//===- analysis/DependenceGraph.h - Per-block schedule graph ----*- C++ -*-===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's schedule graph Gs for one basic block: one vertex per
/// instruction and a directed edge (u, v) whenever u must execute before
/// v — register data dependences (flow, and anti/output once registers are
/// reused), conservative memory ordering, and terminator placement. With
/// symbolic registers (one register per value) no anti or output register
/// dependence exists, exactly as the paper observes, so Et then "contains
/// exactly the real constraints on the scheduler."
///
/// Every edge satisfies From < To: dependences always point from an earlier
/// instruction to a later one, so node order is a topological order. The
/// reduction pipeline behind reachability() relies on this invariant.
///
/// Adjacency is stored in CSR form (flat offset/index arrays in an arena,
/// returned as spans): one contiguous allocation instead of one vector per
/// node, built once after construction.
///
//===----------------------------------------------------------------------===//

#ifndef PIRA_ANALYSIS_DEPENDENCEGRAPH_H
#define PIRA_ANALYSIS_DEPENDENCEGRAPH_H

#include "support/Arena.h"
#include "support/BitMatrix.h"

#include <span>
#include <vector>

namespace pira {

class BasicBlock;
class Function;
class MachineModel;

/// Classifies why one instruction must precede another.
enum class DepKind : unsigned {
  Flow,    ///< Register written by From is read by To.
  Anti,    ///< Register read by From is rewritten by To.
  Output,  ///< Register written by From is rewritten by To.
  Memory,  ///< Possible same-location memory access ordering.
  Control, ///< Terminator must remain at the block end.
};

/// Returns a printable name for \p Kind.
const char *depKindName(DepKind Kind);

/// One precedence edge of the schedule graph.
struct DepEdge {
  unsigned From;
  unsigned To;
  DepKind Kind;
  /// Minimum issue-cycle separation: To may issue no earlier than
  /// cycle(From) + Latency. Zero permits same-cycle issue (anti
  /// dependences under read-before-write register semantics).
  unsigned Latency;
};

/// The schedule graph of one basic block.
class DependenceGraph {
public:
  /// Builds the graph for \p BB of \p F with \p Machine's latencies.
  /// \p BlockIdx selects the block within the function.
  DependenceGraph(const Function &F, unsigned BlockIdx,
                  const MachineModel &Machine);

  DependenceGraph(const DependenceGraph &) = delete;
  DependenceGraph &operator=(const DependenceGraph &) = delete;

  /// Returns the number of instructions (vertices).
  unsigned size() const { return NumNodes; }

  /// Returns all edges in deterministic order.
  const std::vector<DepEdge> &edges() const { return Edges; }

  /// Returns the indices into edges() of edges leaving \p Node, in
  /// insertion order.
  std::span<const unsigned> succEdges(unsigned Node) const {
    return {SuccIdx + SuccOff[Node], SuccOff[Node + 1] - SuccOff[Node]};
  }

  /// Returns the indices into edges() of edges entering \p Node, in
  /// insertion order.
  std::span<const unsigned> predEdges(unsigned Node) const {
    return {PredIdx + PredOff[Node], PredOff[Node + 1] - PredOff[Node]};
  }

  /// Returns true when an edge (\p From, \p To) of any kind exists.
  bool hasEdge(unsigned From, unsigned To) const {
    return Adjacent.test(From, To);
  }

  /// Returns the direct-edge adjacency matrix (no closure).
  const BitMatrix &adjacency() const { return Adjacent; }

  /// Returns directed reachability (the transitive closure of the edge
  /// relation). Entry (u, v) is set iff a nonempty path u -> v exists.
  ///
  /// Computed through the pre-closure DAG reduction (component split,
  /// chain collapse, transitive-edge strip); bit-identical to closing the
  /// adjacency matrix directly.
  BitMatrix reachability() const;

  /// Returns true when a nonempty directed path \p From -> \p To exists.
  /// Convenience over reachability() for one-off queries.
  bool hasPath(unsigned From, unsigned To) const;

private:
  void addEdge(unsigned From, unsigned To, DepKind Kind, unsigned Latency);
  /// Freezes the per-node edge lists into CSR arrays; called once at the
  /// end of construction.
  void buildCsr();

  unsigned NumNodes = 0;
  std::vector<DepEdge> Edges;
  BitMatrix Adjacent;

  /// CSR adjacency over edge indices, arena-backed.
  Arena Storage;
  const unsigned *SuccOff = nullptr;
  const unsigned *SuccIdx = nullptr;
  const unsigned *PredOff = nullptr;
  const unsigned *PredIdx = nullptr;

  /// Construction-only intrusive per-From edge chains for duplicate
  /// detection (freed by buildCsr).
  std::vector<unsigned> FirstFrom;
  std::vector<unsigned> NextFrom;
};

} // namespace pira

#endif // PIRA_ANALYSIS_DEPENDENCEGRAPH_H
