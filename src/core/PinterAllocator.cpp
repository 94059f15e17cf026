//===- core/PinterAllocator.cpp - Section 4 combined allocator ------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//

#include "core/PinterAllocator.h"

#include "analysis/Webs.h"
#include "core/ParallelInterferenceGraph.h"
#include "core/RegionHoist.h"
#include "ir/Function.h"
#include "machine/MachineModel.h"
#include "regalloc/InterferenceGraph.h"
#include "regalloc/SpillCost.h"
#include "regalloc/SpillInserter.h"
#include "sched/PreScheduler.h"
#include "support/BitVector.h"
#include "support/Parallel.h"
#include "support/Telemetry.h"
#include "support/UndirectedGraph.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <set>

using namespace pira;

PIRA_STAT(NumPinterRounds, "Combined-allocator color/spill/repeat rounds");
PIRA_STAT(NumPinterSpilledWebs, "Webs the combined allocator sent to memory");
PIRA_STAT(NumParallelEdgesSacrificed,
          "Parallel-only PIG edges dropped under register pressure");

namespace {

/// Mutable working state of one coloring round: the combined graph and
/// its two families, kept consistent under vertex and edge removal.
class WorkGraphs {
public:
  WorkGraphs(const ParallelInterferenceGraph &PIG)
      : Combined(PIG.combined()), Interf(PIG.interference()),
        Par(PIG.parallel()), Removed(PIG.numWebs(), false),
        Remaining(PIG.numWebs()) {}

  unsigned size() const { return Combined.numVertices(); }
  unsigned remaining() const { return Remaining; }
  bool isRemoved(unsigned V) const { return Removed[V]; }
  unsigned degree(unsigned V) const { return Combined.degree(V); }

  /// Degree counting only interference edges (the paper's "when only
  /// interference edges are considered").
  unsigned interfDegree(unsigned V) const { return Interf.degree(V); }

  /// Degree counting only parallel edges (Ef \ Er and Ef ∩ Er alike).
  unsigned parDegree(unsigned V) const { return Par.degree(V); }

  bool hasParallelEdge(unsigned A, unsigned B) const {
    return Par.hasEdge(A, B);
  }

  /// Removes \p V with all its edges. \returns its former combined
  /// neighbors, ascending.
  std::vector<unsigned> removeVertex(unsigned V) {
    assert(!Removed[V] && "vertex removed twice");
    std::vector<unsigned> Neighbors = Combined.neighborList(V);
    for (unsigned N : Neighbors)
      Combined.removeEdge(V, N);
    for (unsigned N : Interf.neighborList(V))
      Interf.removeEdge(V, N);
    for (unsigned N : Par.neighborList(V))
      Par.removeEdge(V, N);
    Removed[V] = true;
    --Remaining;
    return Neighbors;
  }

  /// Parallel-only neighbors of \p V still present.
  std::vector<unsigned> parallelOnlyNeighbors(unsigned V) const {
    std::vector<unsigned> Result;
    for (unsigned N : Par.neighborList(V))
      if (!Interf.hasEdge(V, N))
        Result.push_back(N);
    return Result;
  }

  void removeParallelEdge(unsigned A, unsigned B) {
    assert(!Interf.hasEdge(A, B) && "never drop an Ef ∩ Er edge");
    Par.removeEdge(A, B);
    Combined.removeEdge(A, B);
  }

  /// h* edge weight of the still-present edge {\p V, \p N}.
  double weight(unsigned V, unsigned N, const PinterOptions &Opts) const {
    double W = 0.0;
    if (Interf.hasEdge(V, N))
      W += Opts.InterferenceWeight;
    if (Par.hasEdge(V, N))
      W += Opts.ParallelWeight;
    return W;
  }

  const UndirectedGraph &combined() const { return Combined; }

private:
  UndirectedGraph Combined;
  UndirectedGraph Interf;
  UndirectedGraph Par;
  std::vector<bool> Removed;
  unsigned Remaining;
};

} // namespace

Allocation pira::pinterColor(const ParallelInterferenceGraph &PIG,
                             const std::vector<double> &Costs,
                             unsigned NumRegs, const PinterOptions &Opts) {
  PIRA_TIME_SCOPE("pig/coloring");
  unsigned N = PIG.numWebs();
  assert(Costs.size() == N && "cost vector size mismatch");
  Allocation Out;
  Out.ColorOfWeb.assign(N, -1);

  WorkGraphs Work(PIG);
  std::vector<unsigned> Stack;
  // Select must color against the graph with dropped edges gone but
  // removed vertices' edges intact: maintain it separately.
  UndirectedGraph SelectGraph = PIG.combined();

  // Present vertices of combined degree < r. Degrees only fall, so a
  // vertex stays eligible until it is pushed; only the ends of a removed
  // edge need re-testing.
  BitVector Eligible(N);
  auto Retest = [&](unsigned V) {
    if (!Work.isRemoved(V) && Work.degree(V) < NumRegs)
      Eligible.set(V);
  };
  for (unsigned V = 0; V != N; ++V)
    Retest(V);
  auto Remove = [&](unsigned V) {
    Eligible.reset(V);
    for (unsigned U : Work.removeVertex(V))
      Retest(U);
  };

  // Ascending sweeps repeated until one pushes nothing: the next push is
  // the first eligible vertex past the cursor, and a vertex that becomes
  // eligible behind the cursor waits for the next pass. \returns true if
  // anything was pushed.
  auto Simplify = [&] {
    int V = Eligible.findFirst();
    if (V == -1)
      return false;
    while (V != -1) {
      unsigned Pushed = static_cast<unsigned>(V);
      Stack.push_back(Pushed);
      Remove(Pushed);
      V = Eligible.findNext(Pushed);
      if (V == -1)
        V = Eligible.findFirst();
    }
    return true;
  };

  // Step 3's victim: the lowest-index vertex of least combined degree
  // among those with interference degree < r. A drop lowers only the
  // degrees of the victim and the dropped neighbor, which keeps the
  // victim the arg-min, so it is rescanned only after a push or a spill.
  unsigned Victim = ~0u;
  bool VictimStale = true;
  // The victim's parallel-only neighbors by (benefit, index): the head
  // still present is its least beneficial edge, first index on ties. The
  // set only shrinks, so the list is built once per victim and consumed
  // lazily.
  std::vector<std::pair<double, unsigned>> Candidates;
  unsigned CandidatesOf = ~0u;
  size_t NextCandidate = 0;

  while (Work.remaining() != 0) {
    if (Simplify())
      VictimStale = true;
    if (Work.remaining() == 0)
      break;

    if (VictimStale) {
      Victim = ~0u;
      for (unsigned V = 0; V != N; ++V) {
        if (Work.isRemoved(V) || Work.interfDegree(V) >= NumRegs)
          continue;
        if (Victim == ~0u || Work.degree(V) < Work.degree(Victim))
          Victim = V;
      }
      VictimStale = false;
    }
    if (Victim != ~0u) {
      if (CandidatesOf != Victim) {
        Candidates.clear();
        for (unsigned C : Work.parallelOnlyNeighbors(Victim))
          Candidates.emplace_back(PIG.parallelBenefit(Victim, C), C);
        std::sort(Candidates.begin(), Candidates.end());
        CandidatesOf = Victim;
        NextCandidate = 0;
      }
      while (!Work.hasParallelEdge(Victim, Candidates[NextCandidate].second)) {
        ++NextCandidate;
        assert(NextCandidate < Candidates.size() &&
               "interference degree < combined degree implies a "
               "parallel-only edge");
      }
      unsigned Best = Candidates[NextCandidate++].second;
      Work.removeParallelEdge(Victim, Best);
      SelectGraph.removeEdge(Victim, Best);
      Retest(Victim);
      Retest(Best);
      ++Out.ParallelEdgesDropped;
      ++NumParallelEdgesSacrificed;
      continue;
    }

    // Step 4: spill by the generalized metric h*. Σw over the present
    // neighbors comes from the maintained family degrees: an edge in both
    // families weighs the sum, so Σw is a weighted sum of the two degrees.
    unsigned Spill = ~0u;
    double BestH = std::numeric_limits<double>::infinity();
    for (unsigned V = 0; V != N; ++V) {
      if (Work.isRemoved(V))
        continue;
      double WeightSum = Opts.InterferenceWeight * Work.interfDegree(V) +
                         Opts.ParallelWeight * Work.parDegree(V);
      double H = WeightSum > 0.0 ? Costs[V] / WeightSum : Costs[V];
      if (Spill == ~0u || H < BestH) {
        BestH = H;
        Spill = V;
      }
    }
    assert(Spill != ~0u && "no spill candidate among survivors");
    Out.SpilledWebs.push_back(Spill);
    Remove(Spill);
    VictimStale = true;
  }

  if (Out.SpilledWebs.empty())
    assignColorsGreedy(SelectGraph, Stack, Out);
  return Out;
}

Allocation pira::pinterColorReference(const ParallelInterferenceGraph &PIG,
                                      const std::vector<double> &Costs,
                                      unsigned NumRegs,
                                      const PinterOptions &Opts) {
  unsigned N = PIG.numWebs();
  assert(Costs.size() == N && "cost vector size mismatch");
  Allocation Out;
  Out.ColorOfWeb.assign(N, -1);

  WorkGraphs Work(PIG);
  std::vector<unsigned> Stack;
  // Select must color against the graph with dropped edges gone but
  // removed vertices' edges intact: maintain it separately.
  UndirectedGraph SelectGraph = PIG.combined();

  auto Simplify = [&] {
    bool Progress = true;
    while (Progress) {
      Progress = false;
      for (unsigned V = 0; V != N; ++V) {
        if (Work.isRemoved(V) || Work.degree(V) >= NumRegs)
          continue;
        Stack.push_back(V);
        Work.removeVertex(V);
        Progress = true;
      }
    }
  };

  while (Work.remaining() != 0) {
    Simplify();
    if (Work.remaining() == 0)
      break;

    // Step 3: some vertex colorable if we give up parallelism? Take the
    // vertex needing the fewest removals (smallest combined degree among
    // those with interference degree < r), and drop its least beneficial
    // parallel-only edge.
    unsigned Victim = ~0u;
    for (unsigned V = 0; V != N; ++V) {
      if (Work.isRemoved(V) || Work.interfDegree(V) >= NumRegs)
        continue;
      if (Victim == ~0u || Work.degree(V) < Work.degree(Victim))
        Victim = V;
    }
    if (Victim != ~0u) {
      std::vector<unsigned> Candidates = Work.parallelOnlyNeighbors(Victim);
      assert(!Candidates.empty() &&
             "interference degree < combined degree implies a parallel-only "
             "edge");
      unsigned Best = Candidates.front();
      for (unsigned C : Candidates)
        if (PIG.parallelBenefit(Victim, C) < PIG.parallelBenefit(Victim, Best))
          Best = C;
      Work.removeParallelEdge(Victim, Best);
      SelectGraph.removeEdge(Victim, Best);
      ++Out.ParallelEdgesDropped;
      continue;
    }

    // Step 4: spill by the generalized metric h*.
    unsigned Spill = ~0u;
    double BestH = std::numeric_limits<double>::infinity();
    for (unsigned V = 0; V != N; ++V) {
      if (Work.isRemoved(V))
        continue;
      double WeightSum = 0.0;
      for (unsigned U : Work.combined().neighborList(V))
        WeightSum += Work.weight(V, U, Opts);
      // All surviving vertices have degree >= r >= 1, but guard against a
      // zero weight sum from degenerate option settings.
      double H = WeightSum > 0.0
                     ? Costs[V] / WeightSum
                     : Costs[V];
      // The first survivor seeds the choice so a round of all-infinite
      // costs still makes progress.
      if (Spill == ~0u || H < BestH) {
        BestH = H;
        Spill = V;
      }
    }
    assert(Spill != ~0u && "no spill candidate among survivors");
    Out.SpilledWebs.push_back(Spill);
    Work.removeVertex(Spill);
  }

  if (Out.SpilledWebs.empty())
    assignColorsGreedy(SelectGraph, Stack, Out);
  return Out;
}

PinterStats pira::pinterAllocate(Function &F, unsigned NumRegs,
                                 const MachineModel &Machine,
                                 const PinterOptions &Opts,
                                 Function *SymbolicSnapshot) {
  PIRA_TIME_SCOPE("alloc/pinter");
  PinterStats Stats;
  std::set<Reg> NoSpillRegs;
  constexpr double Infinite = std::numeric_limits<double>::infinity();

  for (unsigned Round = 0; Round != Opts.MaxRounds; ++Round) {
    // Cooperative watchdog: a stalled color/spill/repeat loop unwinds
    // here instead of holding its worker hostage.
    deadline::checkpoint();
    ++Stats.Rounds;
    ++NumPinterRounds;
    // Preliminary EP reordering improves the *input* order once. It must
    // not run again after spill rounds: it would hoist the fresh reload
    // loads (which have no predecessors) away from their uses, stretching
    // their live ranges and recreating the pressure the spill relieved.
    if (Round == 0) {
      if (Opts.UseRegions)
        Stats.HoistedInstructions = regionHoist(F);
      if (Opts.PreSchedule)
        Stats.PreScheduleMoves += preScheduleFunction(F, Machine);
    }

    PIRA_TIME_SCOPE("alloc/round");
    Webs W(F);
    InterferenceGraph IG(F, W);
    ParallelInterferenceGraph PIG(F, W, IG, Machine, Opts.UseRegions);
    std::vector<double> Costs = computeSpillCosts(F, W);
    for (unsigned Web = 0, E = W.numWebs(); Web != E; ++Web)
      if (NoSpillRegs.count(W.webRegister(Web)))
        Costs[Web] = Infinite;

    Allocation A = pinterColor(PIG, Costs, NumRegs, Opts);
    Stats.ParallelEdgesDropped += A.ParallelEdgesDropped;
    if (A.fullyColored()) {
      if (SymbolicSnapshot != nullptr)
        *SymbolicSnapshot = F;
      applyAllocation(F, W, A);
      Stats.Success = true;
      Stats.ColorsUsed = A.NumColorsUsed;
      return Stats;
    }
    Stats.SpilledWebs += static_cast<unsigned>(A.SpilledWebs.size());
    NumPinterSpilledWebs += A.SpilledWebs.size();
    SpillCode Code = insertSpillCode(F, W, A.SpilledWebs, NoSpillRegs);
    Stats.SpillStores += Code.Stores;
    Stats.SpillLoads += Code.Loads;
  }
  return Stats;
}
