//===- tests/pipeline_test.cpp - Strategy pipeline tests ------------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//

#include "machine/MachineModel.h"
#include "pipeline/Batch.h"
#include "pipeline/Strategies.h"
#include "workloads/Kernels.h"

#include <gtest/gtest.h>

using namespace pira;

TEST(PipelineTest, ProgressLineBasicShape) {
  ProgressSnapshot S;
  S.Done = 3;
  S.Total = 10;
  S.Failed = 1;
  S.Degraded = 2;
  S.ElapsedS = 1.5;
  EXPECT_EQ(formatProgressLine(S),
            "pirac: 3/10 done, 1 failed, 2 degraded"
            " | 2.0/s | eta 3.5s");

  // Cache segment appears once a lookup happened.
  S.HasCache = true;
  S.CacheHits = 1;
  S.CacheLookups = 4;
  EXPECT_EQ(formatProgressLine(S),
            "pirac: 3/10 done, 1 failed, 2 degraded"
            " | cache 25.0% | 2.0/s | eta 3.5s");

  // A finished batch drops the ETA but keeps the rate.
  S.HasCache = false;
  S.Done = 10;
  S.Failed = 1;
  EXPECT_EQ(formatProgressLine(S),
            "pirac: 10/10 done, 1 failed, 2 degraded"
            " | 6.7/s");
}

TEST(PipelineTest, ProgressLineNeverShowsInfOrNanAtZeroElapsed) {
  // The first tick of a fast batch can land within the clock's
  // granularity: items finished but zero (or even negative, on a
  // misbehaving clock) elapsed time. The rate and ETA divisions must be
  // skipped, not performed.
  for (double Elapsed : {0.0, -1.0}) {
    ProgressSnapshot S;
    S.Done = 2;
    S.Total = 10;
    S.ElapsedS = Elapsed;
    std::string Line = formatProgressLine(S);
    EXPECT_EQ(Line, "pirac: 2/10 done, 0 failed, 0 degraded")
        << Line;
    EXPECT_EQ(Line.find("inf"), std::string::npos) << Line;
    EXPECT_EQ(Line.find("nan"), std::string::npos) << Line;
  }

  // Zero items done: no rate, no ETA, regardless of elapsed time.
  ProgressSnapshot S;
  S.Total = 10;
  S.ElapsedS = 5.0;
  EXPECT_EQ(formatProgressLine(S),
            "pirac: 0/10 done, 0 failed, 0 degraded");

  // A cache that has seen no lookups contributes no segment (avoiding
  // its own 0/0).
  S.HasCache = true;
  S.CacheLookups = 0;
  EXPECT_EQ(formatProgressLine(S).find("cache"), std::string::npos);
}

TEST(PipelineTest, StrategyNames) {
  EXPECT_STREQ(strategyName(StrategyKind::AllocFirst), "alloc-first");
  EXPECT_STREQ(strategyName(StrategyKind::SchedFirst), "sched-first");
  EXPECT_STREQ(strategyName(StrategyKind::Combined), "combined");
}

TEST(PipelineTest, AllStrategiesSucceedOnSuiteWithAmpleRegs) {
  MachineModel M = MachineModel::rs6000(10);
  for (auto &[Name, Kernel] : standardKernelSuite())
    for (StrategyKind K : {StrategyKind::AllocFirst,
                           StrategyKind::SchedFirst,
                           StrategyKind::Combined}) {
      PipelineResult R = runAndMeasure(K, Kernel, M);
      EXPECT_TRUE(R.Success)
          << Name << " / " << strategyName(K) << ": " << R.Error;
      EXPECT_TRUE(R.SemanticsPreserved) << Name << " / " << strategyName(K);
      EXPECT_LE(R.RegistersUsed, 10u);
    }
}

TEST(PipelineTest, CombinedHasNoFalseDepsWithoutPressure) {
  // Theorem 1 at pipeline level: whenever Combined spills nothing and
  // drops no parallel edge, the final code carries no false dependence.
  MachineModel M = MachineModel::paperTwoUnit(12);
  for (auto &[Name, Kernel] : standardKernelSuite()) {
    PipelineResult R = runStrategy(StrategyKind::Combined, Kernel, M);
    ASSERT_TRUE(R.Success) << Name;
    if (R.SpilledWebs == 0 && R.ParallelEdgesDropped == 0) {
      EXPECT_EQ(R.FalseDeps, 0u) << Name;
    }
  }
}

TEST(PipelineTest, AllocFirstIntroducesFalseDepsOnExample2Tight) {
  // Chaitin with exactly 3 registers on Example 2 must reuse a register
  // pair that kills parallelism (the paper's motivating claim).
  MachineModel M = MachineModel::paperTwoUnit(3);
  PipelineResult R =
      runStrategy(StrategyKind::AllocFirst, paperExample2(), M);
  ASSERT_TRUE(R.Success) << R.Error;
  EXPECT_EQ(R.SpilledWebs, 0u) << "Gr is 3-colorable";
  EXPECT_GT(R.FalseDeps + R.AntiOrderingLosses, 0u);
}

TEST(PipelineTest, CombinedNeverSlowerOnExample2) {
  MachineModel M3 = MachineModel::paperTwoUnit(4);
  PipelineResult A =
      runAndMeasure(StrategyKind::AllocFirst, paperExample2(), M3);
  PipelineResult C =
      runAndMeasure(StrategyKind::Combined, paperExample2(), M3);
  ASSERT_TRUE(A.Success);
  ASSERT_TRUE(C.Success);
  EXPECT_LE(C.DynCycles, A.DynCycles);
  EXPECT_EQ(C.FalseDeps, 0u);
}

TEST(PipelineTest, DynamicAndStaticCyclesAgreeOnStraightLine) {
  MachineModel M = MachineModel::rs6000(8);
  PipelineResult R =
      runAndMeasure(StrategyKind::Combined, paperExample2(), M);
  ASSERT_TRUE(R.Success);
  EXPECT_EQ(R.DynCycles, R.StaticCycles);
}

TEST(PipelineTest, TightRegistersForceSpillsSomewhere) {
  MachineModel M = MachineModel::rs6000(3);
  unsigned TotalSpills = 0;
  for (auto &[Name, Kernel] : standardKernelSuite()) {
    PipelineResult R = runAndMeasure(StrategyKind::AllocFirst, Kernel, M);
    ASSERT_TRUE(R.Success) << Name << ": " << R.Error;
    EXPECT_TRUE(R.SemanticsPreserved) << Name;
    TotalSpills += R.SpilledWebs;
  }
  EXPECT_GT(TotalSpills, 0u);
}

TEST(PipelineTest, SchedFirstSpillsAtLeastAsMuchOnPressure) {
  // Pre-pass scheduling stretches live ranges; under tight registers it
  // should never spill less than alloc-first, summed over the suite.
  MachineModel M = MachineModel::rs6000(4);
  unsigned AllocFirstSpills = 0, SchedFirstSpills = 0;
  for (auto &[Name, Kernel] : standardKernelSuite()) {
    PipelineResult A = runStrategy(StrategyKind::AllocFirst, Kernel, M);
    PipelineResult S = runStrategy(StrategyKind::SchedFirst, Kernel, M);
    ASSERT_TRUE(A.Success) << Name;
    ASSERT_TRUE(S.Success) << Name;
    AllocFirstSpills += A.SpilledWebs;
    SchedFirstSpills += S.SpilledWebs;
  }
  EXPECT_GE(SchedFirstSpills, AllocFirstSpills);
}

TEST(PipelineTest, CombinedRespectsMachineRegisterFile) {
  for (unsigned Regs : {4u, 6u, 8u}) {
    MachineModel M = MachineModel::vliw4(Regs);
    PipelineResult R =
        runAndMeasure(StrategyKind::Combined, livermoreHydro(2), M);
    ASSERT_TRUE(R.Success) << "regs=" << Regs << ": " << R.Error;
    EXPECT_LE(R.RegistersUsed, Regs);
    EXPECT_TRUE(R.SemanticsPreserved);
  }
}

TEST(PipelineTest, FailureReportedWhenRegistersAbsurdlyTight) {
  // One register cannot hold two live operands of a binary op chain.
  MachineModel M = MachineModel::rs6000(1);
  PipelineResult R =
      runStrategy(StrategyKind::AllocFirst, paperExample2(), M);
  EXPECT_FALSE(R.Success);
  EXPECT_FALSE(R.Error.empty());
}
