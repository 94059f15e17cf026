//===- tests/differential_test.cpp - Theorem-1 differential oracle --------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
// The paper's core claim as an executable differential oracle, swept
// over ~200 seeded random programs: a coloring of the parallelizable
// interference graph (Pinter) introduces zero false dependences and
// spills nothing when colors suffice, while Chaitin coloring of the
// plain interference graph on the *same* input is free to reuse
// registers across co-issuable instructions — and measurably does,
// somewhere in the corpus. The batch driver leans on exactly this
// invariant, so it is pinned here independently of any pipeline code.
//
//===----------------------------------------------------------------------===//

#include "analysis/DependenceGraph.h"
#include "analysis/Webs.h"
#include "core/FalseDepChecker.h"
#include "core/FalseDependenceGraph.h"
#include "core/ParallelInterferenceGraph.h"
#include "core/PinterAllocator.h"
#include "core/RegionHoist.h"
#include "machine/MachineModel.h"
#include "pipeline/Strategies.h"
#include "pipeline/Tournament.h"
#include "regalloc/ChaitinAllocator.h"
#include "regalloc/InterferenceGraph.h"
#include "regalloc/SpillCost.h"
#include "regalloc/SpillInserter.h"
#include "sched/ListScheduler.h"
#include "sched/PreScheduler.h"
#include "workloads/Kernels.h"
#include "workloads/RandomProgram.h"

#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>

using namespace pira;

namespace {

/// Ample register budget: "colors suffice" for every generated program.
constexpr unsigned AmpleRegs = 64;

/// Program #I of the corpus: shapes, mixes, and seeds all rotate so the
/// 200 programs cover every generator mode.
Function corpusProgram(unsigned I) {
  static const CfgShape Shapes[] = {CfgShape::Straight, CfgShape::Diamond,
                                    CfgShape::Loop, CfgShape::NestedDiamond,
                                    CfgShape::DoubleLoop};
  RandomProgramOptions Opts;
  Opts.Shape = Shapes[I % 5];
  Opts.InstructionsPerBlock = 10 + I % 7;
  Opts.FloatPercent = 20 + (I * 13) % 60;
  Opts.MemoryPercent = 10 + (I * 7) % 30;
  Opts.Seed = 1 + I * 104729; // distinct primes-stride seeds
  return generateRandomProgram(Opts);
}

/// The machine each corpus program is checked on; rotating models keeps
/// the oracle honest about unit contention, not just data dependences.
MachineModel corpusMachine(unsigned I) {
  switch (I % 3) {
  case 0:
    return MachineModel::paperTwoUnit(AmpleRegs);
  case 1:
    return MachineModel::rs6000(AmpleRegs);
  default:
    return MachineModel::vliw4(AmpleRegs);
  }
}

struct DifferentialOutcome {
  bool PinterColored = false;
  unsigned PinterFalseDeps = 0;
  unsigned PinterDroppedEdges = 0;
  bool ChaitinColored = false;
  unsigned ChaitinFalseDeps = 0;
};

/// Colors one program both ways and counts false dependences in each
/// allocated twin.
DifferentialOutcome runDifferential(const Function &Symbolic,
                                    const MachineModel &M) {
  DifferentialOutcome Out;
  Webs W(Symbolic);
  InterferenceGraph IG(Symbolic, W);
  ParallelInterferenceGraph PIG(Symbolic, W, IG, M);
  std::vector<double> Costs(W.numWebs(), 1.0);

  Allocation Pinter = pinterColor(PIG, Costs, AmpleRegs);
  Out.PinterColored = Pinter.fullyColored();
  Out.PinterDroppedEdges = Pinter.ParallelEdgesDropped;
  if (Out.PinterColored) {
    Function Alloc = Symbolic;
    applyAllocation(Alloc, W, Pinter);
    Out.PinterFalseDeps =
        static_cast<unsigned>(findFalseDependences(Symbolic, Alloc, M).size());
  }

  Allocation Chaitin = chaitinColor(IG.graph(), Costs, AmpleRegs);
  Out.ChaitinColored = Chaitin.fullyColored();
  if (Out.ChaitinColored) {
    Function Alloc = Symbolic;
    applyAllocation(Alloc, W, Chaitin);
    Out.ChaitinFalseDeps =
        static_cast<unsigned>(findFalseDependences(Symbolic, Alloc, M).size());
  }
  return Out;
}

class DifferentialOracle : public testing::TestWithParam<unsigned> {};

} // namespace

TEST_P(DifferentialOracle, PinterIntroducesNoFalseDependence) {
  unsigned I = GetParam();
  Function Symbolic = corpusProgram(I);
  MachineModel M = corpusMachine(I);
  DifferentialOutcome Out = runDifferential(Symbolic, M);

  // Theorem 1, both arms: with ample colors the PIG coloring neither
  // spills nor gives up parallel edges, and the allocated code carries
  // zero false dependences. Chaitin is merely *allowed* to differ; its
  // counts are asserted at corpus level below.
  ASSERT_TRUE(Out.PinterColored)
      << AmpleRegs << " registers must suffice for program " << I;
  EXPECT_EQ(Out.PinterDroppedEdges, 0u) << "program " << I;
  EXPECT_EQ(Out.PinterFalseDeps, 0u)
      << "Theorem 1 violated on program " << I << " (" << M.name() << ")";
}

INSTANTIATE_TEST_SUITE_P(Corpus, DifferentialOracle,
                         testing::Range(0u, 200u));

// The contrast that makes the oracle differential: summed over the whole
// corpus, the baseline introduces false dependences (the PIG coloring,
// per the parameterized test above, introduces none anywhere). If the
// generator ever degenerates to programs with no exploitable
// parallelism, this canary fails before the comparison becomes vacuous.
TEST(DifferentialOracle, ChaitinIntroducesFalseDependencesSomewhere) {
  uint64_t ChaitinTotal = 0;
  uint64_t PinterTotal = 0;
  unsigned BothColored = 0;
  for (unsigned I = 0; I != 200; ++I) {
    Function Symbolic = corpusProgram(I);
    MachineModel M = corpusMachine(I);
    DifferentialOutcome Out = runDifferential(Symbolic, M);
    if (!Out.PinterColored || !Out.ChaitinColored)
      continue;
    ++BothColored;
    ChaitinTotal += Out.ChaitinFalseDeps;
    PinterTotal += Out.PinterFalseDeps;
  }
  // Nearly every program must color under 64 registers in both arms for
  // the comparison to mean anything.
  EXPECT_GE(BothColored, 190u);
  EXPECT_EQ(PinterTotal, 0u);
  EXPECT_GT(ChaitinTotal, 0u)
      << "the baseline never introduced a false dependence across 200 "
         "programs; the differential corpus has lost its discriminating "
         "power";
}

//===----------------------------------------------------------------------===//
// Incremental Section 4 coloring against its reference
//===----------------------------------------------------------------------===//

namespace {

/// Decisions seen while following inputs through their spill rounds; the
/// totals keep the comparison from passing vacuously.
struct ColoringTally {
  unsigned Colorings = 0;
  unsigned Drops = 0;
  unsigned Spills = 0;
};

/// Follows \p F through pinterAllocate's rounds on \p M (region hoist and
/// EP reordering once, then color, insert spill code, repeat). Each round
/// \p Color gets the function, its PIG and its spill costs and returns the
/// round's allocation; the walk stops once it fully colors or a check
/// fails.
template <typename ColorFn>
void forEachPinterRound(Function F, const MachineModel &M,
                        const PinterOptions &Opts, ColorFn &&Color) {
  if (Opts.UseRegions)
    regionHoist(F);
  preScheduleFunction(F, M);
  std::set<Reg> NoSpillRegs;
  for (unsigned Round = 0; Round != Opts.MaxRounds; ++Round) {
    SCOPED_TRACE("round " + std::to_string(Round));
    Webs W(F);
    InterferenceGraph IG(F, W);
    ParallelInterferenceGraph PIG(F, W, IG, M, Opts.UseRegions);
    std::vector<double> Costs = computeSpillCosts(F, W);
    for (unsigned Web = 0, E = W.numWebs(); Web != E; ++Web)
      if (NoSpillRegs.count(W.webRegister(Web)))
        Costs[Web] = std::numeric_limits<double>::infinity();
    Allocation A = Color(std::as_const(F), PIG, Costs);
    if (testing::Test::HasFailure() || A.fullyColored())
      return;
    insertSpillCode(F, W, A.SpilledWebs, NoSpillRegs);
  }
}

/// Checks at every round of forEachPinterRound with \p NumRegs registers
/// that pinterColor returns exactly the Allocation of
/// pinterColorReference.
void expectSameColoringEveryRound(Function F, const MachineModel &M,
                                  unsigned NumRegs, const PinterOptions &Opts,
                                  const std::string &What,
                                  ColoringTally &Tally) {
  SCOPED_TRACE(What + " r=" + std::to_string(NumRegs) + " weights (" +
               std::to_string(Opts.InterferenceWeight) + ", " +
               std::to_string(Opts.ParallelWeight) + ")" +
               (Opts.UseRegions ? " regions" : ""));
  forEachPinterRound(
      std::move(F), M, Opts,
      [&](const Function &, const ParallelInterferenceGraph &PIG,
          const std::vector<double> &Costs) {
        Allocation Fast = pinterColor(PIG, Costs, NumRegs, Opts);
        Allocation Ref = pinterColorReference(PIG, Costs, NumRegs, Opts);
        ++Tally.Colorings;
        Tally.Drops += Ref.ParallelEdgesDropped;
        Tally.Spills += static_cast<unsigned>(Ref.SpilledWebs.size());
        EXPECT_EQ(Fast.ColorOfWeb, Ref.ColorOfWeb);
        EXPECT_EQ(Fast.NumColorsUsed, Ref.NumColorsUsed);
        EXPECT_EQ(Fast.SpilledWebs, Ref.SpilledWebs);
        EXPECT_EQ(Fast.ParallelEdgesDropped, Ref.ParallelEdgesDropped);
        return Ref;
      });
}

/// register_sweep's register counts, plus the perf benchmarks' 16.
const unsigned SweepRegs[] = {3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 16};

/// h* weights: the default, classic h, the ablation's heavy-parallel
/// setting, and a dyadic pair whose partial sums are still exact.
const std::pair<double, double> WeightSets[] = {
    {1.0, 1.0}, {1.0, 0.0}, {1.0, 4.0}, {0.5, 1.5}};

class IncrementalColoring : public testing::TestWithParam<unsigned> {
protected:
  PinterOptions options() const {
    PinterOptions Opts;
    Opts.InterferenceWeight = WeightSets[GetParam()].first;
    Opts.ParallelWeight = WeightSets[GetParam()].second;
    return Opts;
  }
};

} // namespace

TEST_P(IncrementalColoring, MatchesReferenceOnCorpus) {
  ColoringTally Tally;
  for (unsigned I = 0; I != 200; ++I) {
    PinterOptions Opts = options();
    // Every other program also takes the region extension, whose
    // cross-block edges all weigh 1.0 and so exercise step 3's ties.
    Opts.UseRegions = I % 2 == 1;
    Function F = corpusProgram(I);
    MachineModel M = corpusMachine(I);
    for (unsigned R : SweepRegs)
      expectSameColoringEveryRound(F, M, R, Opts,
                                   "corpus program " + std::to_string(I),
                                   Tally);
  }
  EXPECT_GT(Tally.Drops, 0u);
  EXPECT_GT(Tally.Spills, 0u);
}

TEST_P(IncrementalColoring, MatchesReferenceOnTournamentCorpus) {
  TournamentOptions TOpts;
  std::vector<BatchItem> Corpus = makeTournamentCorpus(200, 12, 7, TOpts);
  ColoringTally Tally;
  for (unsigned I = 0; I != Corpus.size(); ++I)
    for (unsigned R : SweepRegs)
      expectSameColoringEveryRound(Corpus[I].Input, corpusMachine(I), R,
                                   options(), Corpus[I].Name, Tally);
  EXPECT_GT(Tally.Drops, 0u);
  EXPECT_GT(Tally.Spills, 0u);
}

INSTANTIATE_TEST_SUITE_P(Weights, IncrementalColoring,
                         testing::Range(0u, 4u));

// The perf benchmarks' straight-line blocks at the ladder's sizes, on the
// ladder's machine: hundreds of webs and tens of thousands of drops per
// round, where the incremental bookkeeping has the most to get wrong.
TEST(IncrementalColoringBlocks, MatchesReferenceOnStraightLineBlocks) {
  ColoringTally Tally;
  for (unsigned Insts : {32u, 64u, 128u}) {
    RandomProgramOptions Gen;
    Gen.InstructionsPerBlock = Insts - 3;
    Gen.Seed = 4242;
    Gen.FloatPercent = 40;
    Gen.MemoryPercent = 25;
    expectSameColoringEveryRound(generateRandomProgram(Gen),
                                 MachineModel::rs6000(12), 12, {},
                                 std::to_string(Insts) + "-inst block",
                                 Tally);
  }
  EXPECT_GT(Tally.Drops, 1000u);
  EXPECT_GT(Tally.Spills, 0u);
}

//===----------------------------------------------------------------------===//
// One-pass Lemma 1 check against a two-pass reference
//===----------------------------------------------------------------------===//

namespace {

/// The Lemma 1 check as two loops over each block's allocated edges:
/// output edges in Ef are false dependences, then anti edges in Ef are
/// lost orderings.
FalseDepReport twoPassReference(const Function &Symbolic,
                                const Function &Allocated,
                                const MachineModel &M) {
  FalseDepReport Out;
  for (unsigned B = 0, NB = Symbolic.numBlocks(); B != NB; ++B) {
    FalseDependenceGraph FDG(Symbolic, B, M);
    DependenceGraph After(Allocated, B, M);
    for (const DepEdge &E : After.edges())
      if (E.Kind == DepKind::Output && FDG.canIssueTogether(E.From, E.To))
        Out.FalseDeps.push_back({B, E.From, E.To, E.Kind});
    for (const DepEdge &E : After.edges())
      if (E.Kind == DepKind::Anti && FDG.canIssueTogether(E.From, E.To))
        ++Out.AntiOrderingLosses;
  }
  return Out;
}

/// Registers tight enough that every strategy reuses registers across
/// co-issuable instructions somewhere in the corpus.
constexpr unsigned TightRegs = 6;

MachineModel tightMachine(unsigned Which) {
  switch (Which) {
  case 0:
    return MachineModel::paperTwoUnit(TightRegs);
  case 1:
    return MachineModel::rs6000(TightRegs);
  default:
    return MachineModel::vliw4(TightRegs);
  }
}

class OnePassFalseDeps
    : public testing::TestWithParam<std::tuple<StrategyKind, unsigned>> {};

} // namespace

TEST_P(OnePassFalseDeps, MatchesTwoPassReferenceOnCorpus) {
  auto [Kind, Which] = GetParam();
  MachineModel M = tightMachine(Which);
  unsigned Compared = 0;
  unsigned FalseDeps = 0;
  unsigned AntiLosses = 0;
  for (unsigned I = 0; I != 200; ++I) {
    PipelineResult R = runStrategy(Kind, corpusProgram(I), M);
    if (!R.Success)
      continue;
    ++Compared;
    FalseDepReport Got = analyzeFalseDependences(R.SymbolicTwin, R.Final, M);
    FalseDepReport Want = twoPassReference(R.SymbolicTwin, R.Final, M);
    ASSERT_EQ(Got.FalseDeps.size(), Want.FalseDeps.size()) << "program " << I;
    for (size_t J = 0; J != Want.FalseDeps.size(); ++J) {
      const FalseDep &G = Got.FalseDeps[J];
      const FalseDep &W = Want.FalseDeps[J];
      EXPECT_EQ(G.Block, W.Block) << "program " << I << " entry " << J;
      EXPECT_EQ(G.From, W.From) << "program " << I << " entry " << J;
      EXPECT_EQ(G.To, W.To) << "program " << I << " entry " << J;
      EXPECT_EQ(G.Kind, W.Kind) << "program " << I << " entry " << J;
    }
    EXPECT_EQ(Got.AntiOrderingLosses, Want.AntiOrderingLosses)
        << "program " << I;
    FalseDeps += static_cast<unsigned>(Want.FalseDeps.size());
    AntiLosses += Want.AntiOrderingLosses;
  }
  EXPECT_GE(Compared, 190u);
  EXPECT_GT(AntiLosses, 0u);
  if (Kind != StrategyKind::Combined) {
    EXPECT_GT(FalseDeps, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, OnePassFalseDeps,
    testing::Combine(testing::Values(StrategyKind::Combined,
                                     StrategyKind::IntegratedPrepass,
                                     StrategyKind::SchedFirst,
                                     StrategyKind::AllocFirst),
                     testing::Range(0u, 3u)));

//===----------------------------------------------------------------------===//
// Section 3 on the schedule that ships: co-issued pairs are in Ef
//===----------------------------------------------------------------------===//

namespace {

/// Co-issued instruction pairs of shipped schedules, by the reason each
/// pair may share a cycle.
struct CoIssueTally {
  unsigned InEf = 0;        ///< {u, v} in Ef: Lemma 1 read forwards.
  unsigned Terminator = 0;  ///< Zero-latency control edge into the branch.
  unsigned Anti = 0;        ///< Zero-latency anti edge (read, then rewrite).
  unsigned Unexplained = 0; ///< None of the above.
};

/// Classifies every pair that shares a cycle in \p S, a schedule of the
/// symbolic function \p Sym, against Sym's Gf and schedule graph. Et is
/// built from the closure, so it also holds the pairs whose only
/// constraint is a direct zero-latency edge; those are counted by the
/// edge's kind.
void tallyCoIssues(const Function &Sym, const FunctionSchedule &S,
                   const MachineModel &M, const std::string &What,
                   CoIssueTally &T) {
  ASSERT_EQ(S.Blocks.size(), Sym.numBlocks()) << What;
  for (unsigned B = 0, NB = Sym.numBlocks(); B != NB; ++B) {
    DependenceGraph Gs(Sym, B, M);
    FalseDependenceGraph FDG(Sym, B, Gs, M);
    ASSERT_EQ(S.Blocks[B].CycleOf.size(), Gs.size()) << What;
    for (const std::vector<unsigned> &Group : S.Blocks[B].groupsByCycle())
      for (size_t I = 0; I != Group.size(); ++I)
        for (size_t J = I + 1; J != Group.size(); ++J) {
          unsigned U = Group[I], V = Group[J];
          if (FDG.canIssueTogether(U, V)) {
            ++T.InEf;
            continue;
          }
          std::optional<DepKind> Kind;
          for (unsigned EI : Gs.succEdges(U)) {
            const DepEdge &E = Gs.edges()[EI];
            if (E.To == V && E.Latency == 0) {
              Kind = E.Kind;
              break;
            }
          }
          if (Kind == DepKind::Control) {
            ++T.Terminator;
          } else if (Kind == DepKind::Anti) {
            ++T.Anti;
          } else {
            ++T.Unexplained;
            ADD_FAILURE() << What << " block " << B << ": s" << U
                          << " and s" << V
                          << " share a cycle but are neither in Ef nor "
                             "joined by a zero-latency control or anti edge";
          }
        }
  }
}

void expectEveryClassSeen(const CoIssueTally &T) {
  EXPECT_EQ(T.Unexplained, 0u);
  EXPECT_GT(T.InEf, 0u);
  EXPECT_GT(T.Terminator, 0u);
  EXPECT_GT(T.Anti, 0u);
}

} // namespace

TEST(ShippedScheduleCoIssue, KernelsOnEveryMachine) {
  CoIssueTally T;
  for (const auto &[Name, Kernel] : standardKernelSuite())
    for (unsigned Regs : {16u, TightRegs})
      for (const MachineModel &M :
           {MachineModel::paperTwoUnit(Regs), MachineModel::rs6000(Regs),
            MachineModel::vliw4(Regs)}) {
        PipelineResult R = runStrategy(StrategyKind::Combined, Kernel, M);
        ASSERT_TRUE(R.Success) << Name << " on " << M.name() << ": "
                               << R.Error;
        tallyCoIssues(R.SymbolicTwin, R.Sched, M, Name + " on " + M.name(),
                      T);
      }
  expectEveryClassSeen(T);
}

TEST(ShippedScheduleCoIssue, CorpusAtAmpleAndTightRegisters) {
  CoIssueTally T;
  unsigned Checked = 0;
  for (unsigned I = 0; I != 200; ++I) {
    Function F = corpusProgram(I);
    for (const MachineModel &M : {corpusMachine(I), tightMachine(I % 3)}) {
      PipelineResult R = runStrategy(StrategyKind::Combined, F, M);
      if (!R.Success)
        continue;
      ++Checked;
      tallyCoIssues(R.SymbolicTwin, R.Sched, M, "program " + std::to_string(I),
                    T);
    }
  }
  EXPECT_GE(Checked, 390u);
  expectEveryClassSeen(T);
}

//===----------------------------------------------------------------------===//
// Section 3's list scheduler over the augmented PIG, on the schedulers
// that ship: the Ef lists it reads admit every co-issue they make
//===----------------------------------------------------------------------===//

TEST(PigSchedulerTest, CoIssuedPairsAreAlwaysEfAdjacent) {
  // Example 2's combined schedule co-issues only Ef pairs, apart from
  // work that shares the branch's cycle through its control edge.
  Function F = paperExample2();
  MachineModel M = MachineModel::paperTwoUnit();
  PipelineResult R = runStrategy(StrategyKind::Combined, F, M);
  ASSERT_TRUE(R.Success) << R.Error;
  CoIssueTally T;
  tallyCoIssues(R.SymbolicTwin, R.Sched, M, F.name(), T);
  EXPECT_GT(T.InEf, 0u);
  EXPECT_EQ(T.Anti, 0u);
  EXPECT_EQ(T.Unexplained, 0u);
}

TEST(PigSchedulerTest, MatchesStandardSchedulerOnPaperExamples) {
  // For the computation proper the Ef filter encodes the same co-issue
  // relation as the standard scheduler's resource counters. The one
  // principled difference is the terminator: Et derives from the
  // transitive closure, so *any* predecessor of the branch counts as not
  // co-issuable, while the standard scheduler lets work share the
  // branch's cycle through the latency-0 control edge.
  MachineModel M = MachineModel::paperTwoUnit();
  unsigned Terminator = 0;
  for (const Function &F : {paperExample1(), paperExample2()}) {
    CoIssueTally T;
    tallyCoIssues(F, scheduleFunction(F, M), M, F.name(), T);
    EXPECT_GT(T.InEf, 0u) << F.name();
    EXPECT_EQ(T.Anti, 0u) << F.name();
    EXPECT_EQ(T.Unexplained, 0u) << F.name();
    Terminator += T.Terminator;
  }
  EXPECT_GT(Terminator, 0u);
}

//===----------------------------------------------------------------------===//
// Schedule-graph closure against the set-based reference, on the blocks the
// allocator closes: before coloring and after every spill round
//===----------------------------------------------------------------------===//

namespace {

/// What the closure checks covered; the totals keep them from passing
/// vacuously.
struct ClosureTally {
  unsigned Blocks = 0;
  unsigned TerminatorSinks = 0; ///< Blocks ending in a branch or return.
  unsigned SpillMemOps = 0;     ///< Spill loads and stores in checked blocks.
};

/// Checks DependenceGraph::reachability() against the set-based closure
/// of the same adjacency on every block of \p F.
void expectClosureMatchesReference(const Function &F, const MachineModel &M,
                                   const std::string &What,
                                   ClosureTally &T) {
  for (unsigned B = 0, NB = F.numBlocks(); B != NB; ++B) {
    DependenceGraph G(F, B, M);
    EXPECT_TRUE(G.reachability() == G.adjacency().transitiveClosureSetBased())
        << What << " block " << B << " (" << G.size() << " insts)";
    const BasicBlock &BB = F.block(B);
    ++T.Blocks;
    if (BB.size() != 0 && BB.inst(BB.size() - 1).isTerminator())
      ++T.TerminatorSinks;
    for (const Instruction &I : BB.instructions())
      if (I.isMemory() && I.arraySymbol() == SpillArrayName)
        ++T.SpillMemOps;
  }
}

/// Checks every block's closure before each round of forEachPinterRound
/// with \p NumRegs registers.
void expectClosureEveryRound(Function F, const MachineModel &M,
                             unsigned NumRegs, const std::string &What,
                             ClosureTally &T) {
  SCOPED_TRACE(What + " r=" + std::to_string(NumRegs));
  PinterOptions Opts;
  forEachPinterRound(std::move(F), M, Opts,
                     [&](const Function &G, const ParallelInterferenceGraph &PIG,
                         const std::vector<double> &Costs) {
                       expectClosureMatchesReference(G, M, What, T);
                       return pinterColor(PIG, Costs, NumRegs, Opts);
                     });
}

} // namespace

TEST(ScheduleGraphClosure, KernelsOnEveryMachine) {
  // 350 blocks over both register counts, 1,174 spill loads and stores.
  ClosureTally T;
  for (const auto &[Name, Kernel] : standardKernelSuite())
    for (unsigned Regs : {16u, TightRegs})
      for (const MachineModel &M :
           {MachineModel::paperTwoUnit(Regs), MachineModel::rs6000(Regs),
            MachineModel::vliw4(Regs)})
        expectClosureEveryRound(Kernel, M, Regs, Name + " on " + M.name(), T);
  EXPECT_GE(T.Blocks, 16u * 3u * 2u);
  EXPECT_GT(T.TerminatorSinks, 0u);
  EXPECT_GT(T.SpillMemOps, 0u);
}

TEST(ScheduleGraphClosure, CorpusAtAmpleAndTightRegisters) {
  // 3,430 blocks, 18,515 spill loads and stores.
  ClosureTally T;
  for (unsigned I = 0; I != 200; ++I) {
    Function F = corpusProgram(I);
    expectClosureEveryRound(F, corpusMachine(I), AmpleRegs,
                            "program " + std::to_string(I), T);
    expectClosureEveryRound(F, tightMachine(I % 3), TightRegs,
                            "program " + std::to_string(I), T);
  }
  EXPECT_GE(T.Blocks, 400u);
  EXPECT_GT(T.TerminatorSinks, 0u);
  EXPECT_GT(T.SpillMemOps, 0u);
}

// The benchmark ladder's block shape (straight-line random blocks on
// rs6000 with 12 registers) at 32 to 256 instructions, re-checked after
// every spill round adds loads and stores to the block: 36 closures,
// 3,597 spill loads and stores.
TEST(ScheduleGraphClosure, LadderBlocksAfterEverySpillRound) {
  ClosureTally T;
  for (unsigned Insts : {32u, 64u, 128u, 256u}) {
    RandomProgramOptions Gen;
    Gen.InstructionsPerBlock = Insts - 3;
    Gen.Seed = 4242 + Insts;
    Gen.FloatPercent = 40;
    Gen.MemoryPercent = 25;
    expectClosureEveryRound(generateRandomProgram(Gen),
                            MachineModel::rs6000(12), 12,
                            std::to_string(Insts) + "-inst block", T);
  }
  EXPECT_GT(T.TerminatorSinks, 4u);
  EXPECT_GT(T.SpillMemOps, 0u);
}
