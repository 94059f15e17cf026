//===- transforms/DagReduce.h - Pre-closure DAG reduction -------*- C++ -*-===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Semantics-preserving DAG reduction applied before transitive closure.
/// The closure behind the paper's PIG construction is O(n^2 * n/w) Warshall
/// over the whole schedule graph; this library shrinks the problem first —
/// the countermove pasched's sched-transform library demonstrates for
/// expensive scheduling phases:
///
///   1. Peel the universal terminator sink (the Control edges make the
///      block terminator a successor of every node; its closure column is
///      known without computing anything).
///   2. Split the remainder into weakly connected components; each closes
///      independently.
///   3. Collapse single-entry/single-exit chains into super-nodes.
///   4. Strip redundant transitive edges from the contracted DAG.
///   5. Close the contracted DAG by one reverse-topological sweep of
///      word-parallel row unions — O(E * n/w), not O(n^2 * n/w) — then
///      expand super-node rows back to member rows.
///
/// The input must satisfy the schedule-graph invariant From < To for every
/// edge (node order is a topological order); DependenceGraph guarantees it
/// by construction. Under that precondition the result is bit-identical to
/// BitMatrix::transitiveClosure on the same edge set — reachability is
/// unique — so callers keep byte-identical reports whether or not the
/// reduction runs.
///
//===----------------------------------------------------------------------===//

#ifndef PIRA_TRANSFORMS_DAGREDUCE_H
#define PIRA_TRANSFORMS_DAGREDUCE_H

#include "support/BitMatrix.h"

#include <utility>
#include <vector>

namespace pira {
namespace dagreduce {

/// What the reduction found; summed into telemetry counters by callers.
struct ReduceStats {
  unsigned Nodes = 0;         ///< Input vertex count.
  unsigned Edges = 0;         ///< Input edge count after dedup.
  bool PeeledSink = false;    ///< Universal terminator sink peeled.
  unsigned Components = 0;    ///< Weakly connected components (sink excluded).
  unsigned Chains = 0;        ///< Collapsed chains of two or more nodes.
  unsigned SuperNodes = 0;    ///< Vertices remaining after contraction.
  unsigned StrippedEdges = 0; ///< Redundant transitive edges removed.
};

/// Computes the reflexive-free transitive closure of the DAG with \p N
/// vertices and edge list \p Edges (duplicates allowed; every edge must
/// satisfy From < To < N). Equivalent to building the adjacency BitMatrix
/// and running transitiveClosure(), but via the reduction pipeline above.
/// \p Stats, when non-null, receives what the reduction found.
BitMatrix reducedClosure(unsigned N,
                         const std::vector<std::pair<unsigned, unsigned>> &Edges,
                         ReduceStats *Stats = nullptr);

} // namespace dagreduce
} // namespace pira

#endif // PIRA_TRANSFORMS_DAGREDUCE_H
