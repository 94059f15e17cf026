//===- tests/property_test.cpp - Randomized property sweeps ---------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
// Parameterized sweeps over seeded random programs, machine models, and
// register budgets. These pin the paper's theorems as executable
// properties:
//   * Theorem 1 — a PIG coloring spills nothing (when r is ample) and
//     the allocated code has no false dependence.
//   * Theorem 2 — removing any single PIG edge and coloring endpoints
//     alike yields a spill or a false dependence.
//   * End-to-end semantic preservation for every strategy.
//
//===----------------------------------------------------------------------===//

#include "analysis/Webs.h"
#include "core/FalseDepChecker.h"
#include "core/ParallelInterferenceGraph.h"
#include "core/PinterAllocator.h"
#include "ir/Interpreter.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "machine/MachineModel.h"
#include "pipeline/Batch.h"
#include "pipeline/Strategies.h"
#include "regalloc/InterferenceGraph.h"
#include "support/Telemetry.h"
#include "workloads/RandomProgram.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace pira;

namespace {

/// One sweep point: program shape, mix, seed, machine.
struct SweepPoint {
  CfgShape Shape;
  unsigned FloatPercent;
  unsigned MemoryPercent;
  uint64_t Seed;
};

std::vector<SweepPoint> sweepPoints() {
  std::vector<SweepPoint> Points;
  for (CfgShape Shape :
       {CfgShape::Straight, CfgShape::Diamond, CfgShape::Loop,
        CfgShape::NestedDiamond, CfgShape::DoubleLoop})
    for (unsigned Mix = 0; Mix != 3; ++Mix)
      for (uint64_t Seed = 1; Seed <= 6; ++Seed)
        Points.push_back(
            {Shape, 20 + Mix * 25, 15 + Mix * 10, Seed * 7919});
  return Points;
}

Function makeProgram(const SweepPoint &P) {
  RandomProgramOptions Opts;
  Opts.Shape = P.Shape;
  Opts.FloatPercent = P.FloatPercent;
  Opts.MemoryPercent = P.MemoryPercent;
  Opts.Seed = P.Seed;
  Opts.InstructionsPerBlock = 14;
  return generateRandomProgram(Opts);
}

std::string pointName(const testing::TestParamInfo<SweepPoint> &Info) {
  const SweepPoint &P = Info.param;
  const char *Shape = P.Shape == CfgShape::Straight        ? "straight"
                      : P.Shape == CfgShape::Diamond       ? "diamond"
                      : P.Shape == CfgShape::Loop          ? "loop"
                      : P.Shape == CfgShape::NestedDiamond ? "nested"
                                                           : "dloop";
  return std::string(Shape) + "_f" + std::to_string(P.FloatPercent) +
         "_m" + std::to_string(P.MemoryPercent) + "_s" +
         std::to_string(P.Seed);
}

class RandomProgramSweep : public testing::TestWithParam<SweepPoint> {};

} // namespace

TEST_P(RandomProgramSweep, GeneratorEmitsVerifiedPrograms) {
  Function F = makeProgram(GetParam());
  std::string Err;
  EXPECT_TRUE(verifyFunction(F, Err)) << Err;
  ExecResult R = interpret(F, makeInitialState(F, GetParam().Seed));
  EXPECT_TRUE(R.Completed) << R.Error;
}

TEST_P(RandomProgramSweep, Theorem1_NoSpillNoFalseDepWithAmpleRegisters) {
  Function Symbolic = makeProgram(GetParam());
  MachineModel M = MachineModel::paperTwoUnit(64);
  Webs W(Symbolic);
  InterferenceGraph IG(Symbolic, W);
  ParallelInterferenceGraph PIG(Symbolic, W, IG, M);
  std::vector<double> Costs(W.numWebs(), 1.0);
  Allocation A = pinterColor(PIG, Costs, 64);
  ASSERT_TRUE(A.fullyColored()) << "64 registers must suffice";
  EXPECT_EQ(A.ParallelEdgesDropped, 0u);
  Function Alloc = Symbolic;
  applyAllocation(Alloc, W, A);
  EXPECT_TRUE(findFalseDependences(Symbolic, Alloc, M).empty())
      << "Theorem 1 violated";
}

TEST_P(RandomProgramSweep, Theorem1_HoldsOnEveryMachineModel) {
  Function Symbolic = makeProgram(GetParam());
  for (MachineModel M : {MachineModel::rs6000(64),
                         MachineModel::vliw4(64),
                         MachineModel::mipsR3000(64)}) {
    Webs W(Symbolic);
    InterferenceGraph IG(Symbolic, W);
    ParallelInterferenceGraph PIG(Symbolic, W, IG, M);
    std::vector<double> Costs(W.numWebs(), 1.0);
    Allocation A = pinterColor(PIG, Costs, 64);
    ASSERT_TRUE(A.fullyColored()) << M.name();
    Function Alloc = Symbolic;
    applyAllocation(Alloc, W, A);
    EXPECT_TRUE(findFalseDependences(Symbolic, Alloc, M).empty())
        << "Theorem 1 violated on " << M.name();
  }
}

TEST_P(RandomProgramSweep, Theorem2_EveryParallelOnlyEdgeIsLoadBearing) {
  // For each parallel-only edge {u, v} of the PIG (sampled), color the
  // graph with the edge removed while forcing color(u) == color(v):
  // the result must exhibit a false dependence (Theorem 2's dichotomy;
  // the spill arm cannot trigger for parallel-only edges since no
  // interference is violated).
  Function Symbolic = makeProgram(GetParam());
  MachineModel M = MachineModel::paperTwoUnit(64);
  Webs W(Symbolic);
  InterferenceGraph IG(Symbolic, W);
  ParallelInterferenceGraph PIG(Symbolic, W, IG, M);

  unsigned Checked = 0;
  for (const auto &[U, V] : PIG.parallel().edgeList()) {
    if (PIG.interference().hasEdge(U, V))
      continue; // the spill arm of the dichotomy; nothing to color-check
    // Restrict to single-def webs so the merged registers' output
    // dependence is guaranteed to connect exactly the Ef pair.
    if (W.defsOfWeb(U).size() != 1 || W.defsOfWeb(V).size() != 1 ||
        W.hasEntryDef(U) || W.hasEntryDef(V))
      continue;
    if (++Checked > 8)
      break; // sample a few edges per program to bound runtime

    // Unique color per web, except V collapsed onto U: the only register
    // reuse in the rewritten program is the merged pair, so the merge's
    // effect is isolated.
    Allocation A;
    A.ColorOfWeb.resize(PIG.numWebs());
    for (unsigned X = 0; X != PIG.numWebs(); ++X)
      A.ColorOfWeb[X] = static_cast<int>(X);
    A.ColorOfWeb[V] = static_cast<int>(U);
    A.NumColorsUsed = PIG.numWebs();

    Function Alloc = Symbolic;
    applyAllocation(Alloc, W, A);
    auto False = findFalseDependences(Symbolic, Alloc, M);
    EXPECT_FALSE(False.empty())
        << "dropping PIG edge {" << U << "," << V
        << "} and merging colors must create a false dependence";
  }
}

TEST_P(RandomProgramSweep, AllStrategiesPreserveSemantics) {
  Function F = makeProgram(GetParam());
  MachineModel M = MachineModel::rs6000(6);
  for (StrategyKind K :
       {StrategyKind::AllocFirst, StrategyKind::SchedFirst,
        StrategyKind::IntegratedPrepass, StrategyKind::Combined}) {
    PipelineResult R = runAndMeasure(K, F, M, {}, GetParam().Seed);
    ASSERT_TRUE(R.Success) << strategyName(K) << ": " << R.Error;
    EXPECT_TRUE(R.SemanticsPreserved) << strategyName(K);
  }
}

TEST_P(RandomProgramSweep, CombinedPinterNeverSpillsMoreRegistersThanGiven) {
  Function F = makeProgram(GetParam());
  for (unsigned Regs : {4u, 8u}) {
    MachineModel M = MachineModel::vliw4(Regs);
    PipelineResult R = runStrategy(StrategyKind::Combined, F, M);
    ASSERT_TRUE(R.Success) << "regs=" << Regs << ": " << R.Error;
    EXPECT_LE(R.RegistersUsed, Regs);
    std::string Err;
    EXPECT_TRUE(verifyFunction(R.Final, Err)) << Err;
  }
}

TEST_P(RandomProgramSweep, SchedulesAreLegalUnderSimulation) {
  Function F = makeProgram(GetParam());
  MachineModel M = MachineModel::vliw4(8);
  PipelineResult R = runAndMeasure(StrategyKind::Combined, F, M, {},
                                   GetParam().Seed);
  ASSERT_TRUE(R.Success) << R.Error;
  // runAndMeasure already simulates; Success implies no resource or
  // latency violation was reported.
  EXPECT_GT(R.DynCycles, 0u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomProgramSweep,
                         testing::ValuesIn(sweepPoints()), pointName);

//===----------------------------------------------------------------------===//
// Register-budget sweep on a fixed program
//===----------------------------------------------------------------------===//

namespace {
class RegisterBudgetSweep : public testing::TestWithParam<unsigned> {};
} // namespace

TEST_P(RegisterBudgetSweep, CombinedDegradesGracefully) {
  unsigned Regs = GetParam();
  RandomProgramOptions Opts;
  Opts.Seed = 1234;
  Opts.InstructionsPerBlock = 20;
  Function F = generateRandomProgram(Opts);
  MachineModel M = MachineModel::rs6000(Regs);
  PipelineResult R = runAndMeasure(StrategyKind::Combined, F, M, {}, 99);
  ASSERT_TRUE(R.Success) << "regs=" << Regs << ": " << R.Error;
  EXPECT_TRUE(R.SemanticsPreserved);
  EXPECT_LE(R.RegistersUsed, Regs);
}

TEST_P(RegisterBudgetSweep, MoreRegistersNeverIncreaseSpills) {
  unsigned Regs = GetParam();
  RandomProgramOptions Opts;
  Opts.Seed = 777;
  Opts.InstructionsPerBlock = 20;
  Function F = generateRandomProgram(Opts);
  PipelineResult Tight = runStrategy(
      StrategyKind::Combined, F, MachineModel::rs6000(Regs));
  PipelineResult Loose = runStrategy(
      StrategyKind::Combined, F, MachineModel::rs6000(Regs + 4));
  ASSERT_TRUE(Tight.Success);
  ASSERT_TRUE(Loose.Success);
  EXPECT_LE(Loose.SpilledWebs, Tight.SpilledWebs);
}

INSTANTIATE_TEST_SUITE_P(Budget, RegisterBudgetSweep,
                         testing::Values(4, 5, 6, 8, 12, 16));

//===----------------------------------------------------------------------===//
// Parallel-vs-serial batch determinism
//===----------------------------------------------------------------------===//

namespace {

/// A mixed batch exercising every CFG shape and both spilling and
/// non-spilling register pressure.
std::vector<BatchItem> makeDeterminismBatch() {
  std::vector<BatchItem> Batch;
  for (unsigned I = 0; I != 12; ++I) {
    SweepPoint P{static_cast<CfgShape>(I % 5), 20 + (I * 17) % 60,
                 10 + (I * 11) % 30, 1 + I * 6151};
    Batch.push_back({"prog" + std::to_string(I), makeProgram(P)});
  }
  return Batch;
}

/// Fingerprints everything compileBatch promises to keep worker-count
/// invariant: the full stats report (timers neutralized — they are wall
/// clock), every allocated function body, and every block schedule.
std::string batchFingerprint(const std::vector<BatchItem> &Batch,
                             const MachineModel &M, unsigned Jobs) {
  telemetry::reset();
  BatchOptions Opts;
  Opts.Strategy = StrategyKind::Combined;
  Opts.Jobs = Jobs;
  Opts.Seed = 7;
  BatchResult BR = compileBatch(Batch, M, Opts);
  EXPECT_EQ(BR.Results.size(), Batch.size());

  json::Value Report = makeBatchStatsReport(BR, Batch, "combined", M);
  Report.set("timers", json::Value::array());
  std::ostringstream OS;
  Report.write(OS, 0);
  for (const PipelineResult &R : BR.Results) {
    if (!R.Success)
      continue;
    printFunction(R.Final, OS);
    for (const BlockSchedule &B : R.Sched.Blocks) {
      OS << "| " << B.Makespan << ':';
      for (unsigned C : B.CycleOf)
        OS << ' ' << C;
      OS << '\n';
    }
  }
  return OS.str();
}

} // namespace

TEST(BatchDeterminism, WorkerCountNeverChangesResults) {
  std::vector<BatchItem> Batch = makeDeterminismBatch();
  MachineModel M = MachineModel::rs6000(6); // tight: spill paths included
  // Scope recording on: worker threads then exercise the concurrent
  // timer path (under TSan in CI), and the fingerprint proves the
  // *rest* of the report ignores it.
  telemetry::setEnabled(true);
  std::string Serial = batchFingerprint(Batch, M, 1);
  std::string Two = batchFingerprint(Batch, M, 2);
  std::string Eight = batchFingerprint(Batch, M, 8);
  telemetry::setEnabled(false);
  telemetry::reset();
  EXPECT_EQ(Serial, Two) << "2 workers diverged from the serial reference";
  EXPECT_EQ(Serial, Eight) << "8 workers diverged from the serial reference";
}

TEST(BatchDeterminism, RepeatedParallelRunsAreIdentical) {
  std::vector<BatchItem> Batch = makeDeterminismBatch();
  MachineModel M = MachineModel::vliw4(8);
  std::string First = batchFingerprint(Batch, M, 8);
  std::string Second = batchFingerprint(Batch, M, 8);
  EXPECT_EQ(First, Second);
}
