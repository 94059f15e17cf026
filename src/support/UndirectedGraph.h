//===- support/UndirectedGraph.h - Dense undirected graph -------*- C++ -*-===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A simple undirected graph over vertices 0..N-1 with dense adjacency and
/// deterministic (ascending-index) neighbor iteration. Interference graphs,
/// false-dependence graphs, and the parallelizable interference graph are
/// all thin layers over this representation.
///
//===----------------------------------------------------------------------===//

#ifndef PIRA_SUPPORT_UNDIRECTEDGRAPH_H
#define PIRA_SUPPORT_UNDIRECTEDGRAPH_H

#include "support/BitMatrix.h"

#include <cassert>
#include <utility>
#include <vector>

namespace pira {

/// An undirected graph with O(1) edge queries and word-parallel neighbor
/// rows. Self loops are rejected.
class UndirectedGraph {
public:
  UndirectedGraph() = default;

  /// Creates an edgeless graph on \p NumVertices vertices.
  explicit UndirectedGraph(unsigned NumVertices)
      : Adjacency(NumVertices), Degrees(NumVertices, 0) {}

  /// Adopts \p Adjacency wholesale as the edge set. The matrix must be
  /// symmetric with a zero diagonal; degrees and the edge count are
  /// derived by word-parallel popcounts, so bulk graph construction
  /// (e.g. the false-dependence graph's complement step) costs O(N^2/64)
  /// instead of one addEdge per pair.
  static UndirectedGraph fromSymmetric(BitMatrix Adjacency) {
    UndirectedGraph G;
    unsigned N = Adjacency.size();
    G.Degrees.resize(N);
    unsigned Total = 0;
    for (unsigned V = 0; V != N; ++V) {
      assert(!Adjacency.test(V, V) && "self loops are not allowed");
      G.Degrees[V] = Adjacency.row(V).count();
      Total += G.Degrees[V];
    }
    assert(Total % 2 == 0 && "adjacency matrix must be symmetric");
    G.NumEdges = Total / 2;
    G.Adjacency = std::move(Adjacency);
    return G;
  }

  /// Returns the number of vertices.
  unsigned numVertices() const { return Adjacency.size(); }

  /// Returns the number of edges.
  unsigned numEdges() const { return NumEdges; }

  /// Returns true if the edge {\p A, \p B} is present.
  bool hasEdge(unsigned A, unsigned B) const {
    assert(A < numVertices() && B < numVertices() && "vertex out of range");
    return Adjacency.test(A, B);
  }

  /// Inserts the edge {\p A, \p B} if absent. \returns true if inserted.
  bool addEdge(unsigned A, unsigned B) {
    assert(A != B && "self loops are not allowed");
    if (hasEdge(A, B))
      return false;
    Adjacency.setSymmetric(A, B);
    ++Degrees[A];
    ++Degrees[B];
    ++NumEdges;
    return true;
  }

  /// Removes the edge {\p A, \p B} if present. \returns true if removed.
  bool removeEdge(unsigned A, unsigned B) {
    if (!hasEdge(A, B))
      return false;
    Adjacency.reset(A, B);
    Adjacency.reset(B, A);
    --Degrees[A];
    --Degrees[B];
    --NumEdges;
    return true;
  }

  /// Returns the degree of \p V.
  unsigned degree(unsigned V) const {
    assert(V < numVertices() && "vertex out of range");
    return Degrees[V];
  }

  /// Returns the adjacency row of \p V (bit I set iff {V, I} is an edge).
  const BitVector &neighbors(unsigned V) const { return Adjacency.row(V); }

  /// Collects neighbors of \p V in ascending index order.
  std::vector<unsigned> neighborList(unsigned V) const {
    std::vector<unsigned> Result;
    const BitVector &Row = neighbors(V);
    for (int I = Row.findFirst(); I != -1;
         I = Row.findNext(static_cast<unsigned>(I)))
      Result.push_back(static_cast<unsigned>(I));
    return Result;
  }

  /// Collects all edges as (min, max) pairs in lexicographic order.
  std::vector<std::pair<unsigned, unsigned>> edgeList() const {
    std::vector<std::pair<unsigned, unsigned>> Result;
    for (unsigned V = 0, E = numVertices(); V != E; ++V) {
      const BitVector &Row = neighbors(V);
      for (int I = Row.findNext(V); I != -1;
           I = Row.findNext(static_cast<unsigned>(I)))
        Result.emplace_back(V, static_cast<unsigned>(I));
    }
    return Result;
  }

private:
  BitMatrix Adjacency;
  std::vector<unsigned> Degrees;
  unsigned NumEdges = 0;
};

} // namespace pira

#endif // PIRA_SUPPORT_UNDIRECTEDGRAPH_H
