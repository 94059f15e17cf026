//===- tests/transforms_test.cpp - IR transformation tests ----------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//

#include "ir/Interpreter.h"
#include "ir/Verifier.h"
#include "machine/MachineModel.h"
#include "pipeline/Strategies.h"
#include "transforms/LoopUnroller.h"
#include "workloads/Kernels.h"

#include <gtest/gtest.h>

using namespace pira;

namespace {

/// Interprets both functions from the same seed and compares the
/// observable outputs.
void expectSameSemantics(const Function &A, const Function &B,
                         uint64_t Seed, const std::string &What) {
  ExecState InitA = makeInitialState(A, Seed);
  ExecState InitB = makeInitialState(B, Seed);
  for (auto &[Name, Data] : InitB.Arrays) {
    auto It = InitA.Arrays.find(Name);
    if (It != InitA.Arrays.end())
      Data = It->second;
  }
  ExecResult RA = interpret(A, std::move(InitA));
  ExecResult RB = interpret(B, std::move(InitB));
  ASSERT_TRUE(RA.Completed) << What;
  ASSERT_TRUE(RB.Completed) << What << ": " << RB.Error;
  EXPECT_TRUE(statesEquivalent(RA.Final, RB.Final)) << What;
  EXPECT_EQ(RA.HasReturnValue, RB.HasReturnValue) << What;
  if (RA.HasReturnValue) {
    EXPECT_EQ(RA.ReturnValue, RB.ReturnValue) << What;
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Loop unrolling
//===----------------------------------------------------------------------===//

TEST(UnrollTest, UnrollsDotProductPreservingSemantics) {
  for (unsigned Factor : {2u, 4u, 8u}) {
    Function F = dotProduct(1); // 64 iterations, step 1
    Function Before = F;
    ASSERT_TRUE(unrollCountedLoop(F, 1, Factor)) << "factor " << Factor;
    std::string Err;
    ASSERT_TRUE(verifyFunction(F, Err)) << Err;
    expectSameSemantics(Before, F, 33,
                        "dot unroll x" + std::to_string(Factor));
  }
}

TEST(UnrollTest, BodyGrowsByFactor) {
  Function F = dotProduct(1);
  unsigned BodyBefore = F.block(1).size();
  ASSERT_TRUE(unrollCountedLoop(F, 1, 4));
  // body+update replicated 4x, one guard + branch.
  EXPECT_EQ(F.block(1).size(), (BodyBefore - 2) * 4 + 2);
}

TEST(UnrollTest, FreshNamesKeepCopiesIndependent) {
  Function F = dotProduct(1);
  ASSERT_TRUE(unrollCountedLoop(F, 1, 2));
  // The two copies' loads must define different registers (renamed), so
  // a scheduler can overlap them.
  std::vector<Reg> LoadDefs;
  for (const Instruction &I : F.block(1).instructions())
    if (I.opcode() == Opcode::Load)
      LoadDefs.push_back(I.def());
  ASSERT_EQ(LoadDefs.size(), 4u);
  EXPECT_NE(LoadDefs[0], LoadDefs[2]);
  EXPECT_NE(LoadDefs[1], LoadDefs[3]);
}

TEST(UnrollTest, RefusesNonDividingFactor) {
  Function F = dotProduct(1); // 64 iterations
  EXPECT_FALSE(unrollCountedLoop(F, 1, 5));
  EXPECT_FALSE(unrollCountedLoop(F, 1, 7));
}

TEST(UnrollTest, RefusesNonLoopBlocks) {
  Function F = dotProduct(1);
  EXPECT_FALSE(unrollCountedLoop(F, 0, 2)) << "entry is not a loop";
  EXPECT_FALSE(unrollCountedLoop(F, 2, 2)) << "exit is not a loop";
}

TEST(UnrollTest, FactorOneIsIdentity) {
  Function F = dotProduct(1);
  Function Before = F;
  EXPECT_TRUE(unrollCountedLoop(F, 1, 1));
  EXPECT_EQ(F.block(1).size(), Before.block(1).size());
}

TEST(UnrollTest, UnrollAllHandlesMultipleLoops) {
  Function F = twoLoops(); // two counted loops, 32 iterations each
  Function Before = F;
  EXPECT_EQ(unrollAllLoops(F, 4), 2u);
  std::string Err;
  ASSERT_TRUE(verifyFunction(F, Err)) << Err;
  expectSameSemantics(Before, F, 5, "twoLoops unroll");
}

TEST(UnrollTest, UnrolledLoopSchedulesFasterPerElement) {
  // The substrate-level point of unrolling: more ILP per trip.
  MachineModel M = MachineModel::vliw4(12);
  Function U1 = dotProduct(1);
  Function U4 = dotProduct(1);
  ASSERT_TRUE(unrollCountedLoop(U4, 1, 4));
  PipelineResult R1 = runAndMeasure(StrategyKind::Combined, U1, M);
  PipelineResult R4 = runAndMeasure(StrategyKind::Combined, U4, M);
  ASSERT_TRUE(R1.Success) << R1.Error;
  ASSERT_TRUE(R4.Success) << R4.Error;
  EXPECT_LT(R4.DynCycles, R1.DynCycles);
}

TEST(UnrollTest, SemanticsAcrossKernelLoops) {
  for (auto &[Name, Kernel] : standardKernelSuite()) {
    Function F = Kernel;
    unsigned Done = unrollAllLoops(F, 2);
    if (Done == 0)
      continue; // straight-line kernels or non-dividing trip counts
    std::string Err;
    ASSERT_TRUE(verifyFunction(F, Err)) << Name << ": " << Err;
    expectSameSemantics(Kernel, F, 44, Name);
  }
}
