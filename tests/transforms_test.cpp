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
#include "transforms/DagReduce.h"
#include "transforms/LoopUnroller.h"
#include "support/Rng.h"
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

//===----------------------------------------------------------------------===//
// DAG reduction (transforms/DagReduce.h)
//===----------------------------------------------------------------------===//

namespace {

/// Oracle closure: the per-node successor-set reference implementation,
/// independent of everything the reduction pipeline does.
BitMatrix oracleClosure(unsigned N,
                        const std::vector<std::pair<unsigned, unsigned>> &E) {
  BitMatrix M(N);
  for (auto [A, B] : E)
    M.set(A, B);
  return M.transitiveClosureSetBased();
}

void expectReducedMatchesOracle(
    unsigned N, const std::vector<std::pair<unsigned, unsigned>> &E,
    const std::string &What) {
  BitMatrix Want = oracleClosure(N, E);
  BitMatrix Got = dagreduce::reducedClosure(N, E);
  ASSERT_EQ(Got.size(), Want.size()) << What;
  for (unsigned I = 0; I < N; ++I)
    for (unsigned J = 0; J < N; ++J)
      ASSERT_EQ(Got.test(I, J), Want.test(I, J))
          << What << ": row " << I << " col " << J;
}

} // namespace

TEST(DagReduceTest, DegenerateShapes) {
  // Empty graph and a single node.
  expectReducedMatchesOracle(0, {}, "empty");
  expectReducedMatchesOracle(1, {}, "single node");

  // Fully disconnected: no edges at any size.
  expectReducedMatchesOracle(17, {}, "disconnected 17");

  // One long chain — collapses to a single super-node.
  std::vector<std::pair<unsigned, unsigned>> Chain;
  for (unsigned I = 0; I + 1 < 64; ++I)
    Chain.push_back({I, I + 1});
  expectReducedMatchesOracle(64, Chain, "chain 64");

  // Many two-node chains: component splitting plus chain collapse.
  std::vector<std::pair<unsigned, unsigned>> Pairs;
  for (unsigned I = 0; I + 1 < 40; I += 2)
    Pairs.push_back({I, I + 1});
  expectReducedMatchesOracle(40, Pairs, "pair soup");

  // Universal sink (every node feeds the terminator), exercising the
  // sink peel.
  std::vector<std::pair<unsigned, unsigned>> Sink;
  for (unsigned I = 0; I + 1 < 12; ++I)
    Sink.push_back({I, 11});
  expectReducedMatchesOracle(12, Sink, "universal sink");

  // Duplicate edges must not confuse degree counting.
  expectReducedMatchesOracle(
      3, {{0, 1}, {0, 1}, {1, 2}, {1, 2}, {0, 2}}, "duplicate edges");
}

TEST(DagReduceTest, ReducedClosureMatchesOracleOn200RandomDags) {
  // The reduction pipeline (sink peel, component split, chain collapse,
  // transitive strip, reverse-topological closure, expansion) must be
  // invisible: bit-for-bit the closure of the input. Edges are drawn
  // with From < To, the DependenceGraph invariant reducedClosure
  // requires.
  Rng R(0xDA6CEDu);
  for (unsigned Case = 0; Case < 200; ++Case) {
    unsigned N = 1 + static_cast<unsigned>(R.nextBelow(512));
    // Sweep density so some graphs shatter into many components and
    // others are one dense blob with long chains stripped away.
    double Density = static_cast<double>(R.nextBelow(1000)) / 1000.0 * 0.15;
    std::vector<std::pair<unsigned, unsigned>> E;
    // Backbone chains over random strides keep single-entry/single-exit
    // runs common enough that the chain collapse actually fires.
    for (unsigned I = 0; I + 1 < N; ++I)
      if (R.nextBelow(100) < 60)
        E.push_back({I, I + 1});
    auto MaxExtra = static_cast<uint64_t>(Density * N) * 4 + 1;
    for (uint64_t K = R.nextBelow(MaxExtra); K != 0; --K) {
      unsigned A = static_cast<unsigned>(R.nextBelow(N));
      unsigned B = static_cast<unsigned>(R.nextBelow(N));
      if (A != B)
        E.push_back({std::min(A, B), std::max(A, B)});
    }
    std::string What = "case " + std::to_string(Case) + " (N=" +
                       std::to_string(N) + ", |E|=" +
                       std::to_string(E.size()) + ")";
    expectReducedMatchesOracle(N, E, What);
  }
}
