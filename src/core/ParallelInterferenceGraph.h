//===- core/ParallelInterferenceGraph.h - The paper's PIG -------*- C++ -*-===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parallelizable interference graph G = (V, E) — the paper's central
/// construction. V is the set of live-range vertices (webs); E is the
/// union of the interference edges Er and, for every false-dependence
/// pair {ui, vj} in some block's Ef whose instructions both define a
/// value, an edge between the defs' webs. Theorem 1: any coloring of G
/// spills no live value and introduces no false dependence; Theorem 2: no
/// proper subgraph has that property.
///
/// With UseRegions enabled, Ef pairs are also collected across the blocks
/// of each acyclic control-equivalent region (the paper's global
/// extension over "plausible" block pairs), with conservative cross-block
/// memory and flow constraints.
///
//===----------------------------------------------------------------------===//

#ifndef PIRA_CORE_PARALLELINTERFERENCEGRAPH_H
#define PIRA_CORE_PARALLELINTERFERENCEGRAPH_H

#include "support/UndirectedGraph.h"

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace pira {

class Function;
class InterferenceGraph;
class MachineModel;
class Webs;

/// The PIG over webs, keeping the two edge families separate so the
/// Section-4 heuristics can weigh them differently (Lemmas 2 and 3).
class ParallelInterferenceGraph {
public:
  /// Builds the PIG of \p F. \p IG must be the interference graph of the
  /// same function/web partition. When \p UseRegions is true, parallel
  /// edges are additionally collected across plausible block pairs.
  ParallelInterferenceGraph(const Function &F, const Webs &W,
                            const InterferenceGraph &IG,
                            const MachineModel &Machine,
                            bool UseRegions = false);

  /// Returns the number of vertices (webs).
  unsigned numWebs() const { return Interference.numVertices(); }

  /// The interference family Er.
  const UndirectedGraph &interference() const { return Interference; }

  /// The parallel family: web pairs whose defining instructions may issue
  /// in the same cycle somewhere. May overlap Er (Lemma 3 edges).
  const UndirectedGraph &parallel() const { return Parallel; }

  /// The full edge set E = Er ∪ parallel, as one graph.
  const UndirectedGraph &combined() const { return Combined; }

  /// Scheduling benefit of parallel edge {\p A, \p B}: the largest summed
  /// critical-path height over the instruction pairs that induced it.
  /// Edges with small benefit are the cheapest parallelism to give away
  /// under register pressure. Zero for non-parallel edges.
  double parallelBenefit(unsigned A, unsigned B) const;

  /// One entry of the benefit store: the edge {min, max} packed as
  /// min << 32 | max, and its benefit.
  using BenefitEntry = std::pair<uint64_t, double>;

  /// The parallel edges {\p V, C} with C > \p V, ascending in C, with
  /// their benefits (the store's row of \p V). Edges to lower-numbered
  /// webs live in those webs' rows.
  std::span<const BenefitEntry> benefitRow(unsigned V) const {
    return {Benefits.data() + RowStart[V], RowStart[V + 1] - RowStart[V]};
  }

  /// Returns the web at the far end of a benefitRow() entry.
  static unsigned rowNeighbor(const BenefitEntry &E) {
    return static_cast<unsigned>(E.first);
  }

  /// Number of parallel edges that are not interference edges.
  unsigned numParallelOnlyEdges() const;

private:
  void addParallelEdge(unsigned WebA, unsigned WebB, double Benefit);
  void addRegionParallelEdges(const Function &F, const Webs &W,
                              const MachineModel &Machine);

  UndirectedGraph Interference;
  UndirectedGraph Parallel;
  UndirectedGraph Combined;
  /// One entry per parallel edge. The constructor appends one entry per
  /// inducing instruction pair, then sorts by key and keeps each edge's
  /// largest benefit, so the entries fall into rows by min endpoint.
  std::vector<BenefitEntry> Benefits;
  /// Benefits[RowStart[V], RowStart[V + 1]) is the row of web V.
  std::vector<unsigned> RowStart;
};

} // namespace pira

#endif // PIRA_CORE_PARALLELINTERFERENCEGRAPH_H
