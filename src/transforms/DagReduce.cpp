//===- transforms/DagReduce.cpp - Pre-closure DAG reduction ---------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//
//
// Soundness notes for the two non-obvious steps:
//
// Chain contraction. A chain is a maximal path v1 -> ... -> vk with
// outdeg(vi) == 1 for i < k and indeg(v(i+1)) == 1 for i >= 1. External
// in-edges can only enter at v1 (every later member's single in-edge is
// internal) and external out-edges can only leave from vk (every earlier
// member's single out-edge is internal). Reachability through the chain is
// therefore fully described by: vi reaches {v(i+1)..vk} plus everything vk
// reaches, and anything reaching v1 reaches all members.
//
// Transitive-edge strip. In a DAG, edge (u, v) is redundant iff some w has
// u -> w and w -> v in the *original* edge set; removing all such edges
// simultaneously preserves reachability. Induction over the topological
// order of the witness w: the 2-path u -> w -> v survives as a path because
// each of its edges is either kept or itself redundant with a witness that
// is strictly earlier in topological order between the same endpoints, and
// the recursion terminates at kept edges.
//
// Contracted-graph closure. Super-nodes are numbered by their head (= min
// member) node id. Every original edge satisfies From < To, external
// out-edges leave a chain only at its tail, and external in-edges enter
// only at the head, so a contracted edge A -> B implies
// min(A) <= tail(A) < head(B) = min(B): super-node order is topological.
// One reverse sweep then closes the DAG with a single row-union per edge.
//
//===----------------------------------------------------------------------===//

#include "transforms/DagReduce.h"

#include "support/Arena.h"

#include <algorithm>
#include <cassert>

using namespace pira;
using namespace pira::dagreduce;

namespace {

/// Union-find over node ids with path halving; used for the weakly
/// connected component split.
unsigned findRoot(std::vector<unsigned> &Parent, unsigned X) {
  while (Parent[X] != X) {
    Parent[X] = Parent[Parent[X]];
    X = Parent[X];
  }
  return X;
}

/// Everything one component's closure needs, carved out of shared
/// read-only arrays before the close phase.
struct ComponentWork {
  const unsigned *Members;                     ///< Global ids, ascending.
  unsigned NumMembers;
  const std::pair<unsigned, unsigned> *Edges;  ///< Global-id endpoint pairs.
  unsigned NumEdges;
};

/// Closes one weakly connected component into the disjoint row set
/// {Out.row(g) : g in Members}. LocalIdx maps global node id -> index in
/// the component's member list (precomputed, read-only here). Adds the
/// component's chains, super-nodes and stripped edges to \p CS.
void closeComponent(const ComponentWork &W,
                    const std::vector<unsigned> &LocalIdx, unsigned N,
                    BitMatrix &Out, ReduceStats &CS) {
  unsigned M = W.NumMembers;
  if (M <= 1) {
    // A singleton reaches nothing (edges to a peeled sink are handled by
    // the caller).
    CS.SuperNodes += M;
    return;
  }

  // All scratch shares one arena: freed together, allocated contiguously.
  Arena Scratch;

  // Local out-CSR plus degrees and the unique-predecessor table the chain
  // walk needs. Edge order within a node's list is ascending (the caller
  // sorted the global edge list), which keeps everything deterministic.
  unsigned *OutDeg = Scratch.allocateZeroed<unsigned>(M);
  unsigned *InDeg = Scratch.allocateZeroed<unsigned>(M);
  unsigned *ThePred = Scratch.allocate<unsigned>(M);
  for (unsigned E = 0; E != W.NumEdges; ++E) {
    unsigned U = LocalIdx[W.Edges[E].first];
    unsigned V = LocalIdx[W.Edges[E].second];
    ++OutDeg[U];
    if (++InDeg[V] == 1)
      ThePred[V] = U;
  }
  unsigned *SuccOff = Scratch.allocate<unsigned>(M + 1);
  SuccOff[0] = 0;
  for (unsigned V = 0; V != M; ++V)
    SuccOff[V + 1] = SuccOff[V] + OutDeg[V];
  unsigned *SuccIdx = Scratch.allocate<unsigned>(W.NumEdges);
  {
    unsigned *Fill = Scratch.allocate<unsigned>(M);
    std::copy(SuccOff, SuccOff + M, Fill);
    for (unsigned E = 0; E != W.NumEdges; ++E) {
      unsigned U = LocalIdx[W.Edges[E].first];
      SuccIdx[Fill[U]++] = LocalIdx[W.Edges[E].second];
    }
  }

  // Chain contraction. Heads are visited in ascending local id order, so
  // super-node numbering is ascending in head id — a topological order of
  // the contracted DAG (see file header). ChainNext links members in chain
  // order; NoNext terminates.
  constexpr unsigned NoNext = ~0u;
  unsigned *SuperOf = Scratch.allocate<unsigned>(M);
  std::fill(SuperOf, SuperOf + M, NoNext);
  unsigned *ChainNext = Scratch.allocate<unsigned>(M);
  std::fill(ChainNext, ChainNext + M, NoNext);
  // Upper bound M supers.
  unsigned *SuperHead = Scratch.allocate<unsigned>(M);
  unsigned NumSupers = 0;
  for (unsigned V = 0; V != M; ++V) {
    bool IsHead = !(InDeg[V] == 1 && OutDeg[ThePred[V]] == 1);
    if (!IsHead)
      continue;
    unsigned S = NumSupers++;
    SuperHead[S] = V;
    SuperOf[V] = S;
    unsigned Cur = V;
    while (OutDeg[Cur] == 1) {
      unsigned Next = SuccIdx[SuccOff[Cur]];
      if (InDeg[Next] != 1)
        break;
      SuperOf[Next] = S;
      ChainNext[Cur] = Next;
      Cur = Next;
    }
    if (ChainNext[V] != NoNext)
      ++CS.Chains;
  }
  assert(NumSupers >= 1 && "component with edges has at least one super");
  CS.SuperNodes += NumSupers;

  // Contracted edge set with the redundant-transitive-edge strip. S holds
  // super adjacency, T its transpose; edge (a, b) is redundant iff some c
  // has a -> c and c -> b, i.e. the a-row meets the b-predecessor-row.
  BitMatrix S(NumSupers), T(NumSupers);
  for (unsigned E = 0; E != W.NumEdges; ++E) {
    unsigned A = SuperOf[LocalIdx[W.Edges[E].first]];
    unsigned B = SuperOf[LocalIdx[W.Edges[E].second]];
    if (A == B)
      continue;
    assert(A < B && "contracted order must stay topological");
    S.set(A, B);
    T.set(B, A);
  }
  // Survivor lists, built in ascending (a, b); union order does not matter
  // for the closure but determinism costs nothing here.
  unsigned *KeptOff = Scratch.allocateZeroed<unsigned>(NumSupers + 1);
  std::vector<std::pair<unsigned, unsigned>> Kept;
  for (unsigned A = 0; A != NumSupers; ++A) {
    const BitVector &ARow = S.row(A);
    for (int B = ARow.findFirst(); B != -1;
         B = ARow.findNext(static_cast<unsigned>(B))) {
      if (ARow.intersects(T.row(static_cast<unsigned>(B))))
        ++CS.StrippedEdges;
      else
        Kept.push_back({A, static_cast<unsigned>(B)});
    }
  }
  for (const auto &E : Kept)
    ++KeptOff[E.first + 1];
  for (unsigned A = 0; A != NumSupers; ++A)
    KeptOff[A + 1] += KeptOff[A];

  // Reverse-topological closure over super-nodes: each super's reach row
  // (over *global* node ids) is the union of every kept successor's member
  // set and reach row. One row union per kept edge.
  std::vector<BitVector> Reach(NumSupers);
  for (unsigned SIdx = NumSupers; SIdx-- != 0;) {
    BitVector Row(N);
    for (unsigned K = KeptOff[SIdx]; K != KeptOff[SIdx + 1]; ++K) {
      unsigned B = Kept[K].second;
      for (unsigned Mem = SuperHead[B]; Mem != NoNext; Mem = ChainNext[Mem])
        Row.set(W.Members[Mem]);
      Row.unionWith(Reach[B]);
    }
    Reach[SIdx] = std::move(Row);
  }

  // Expansion: the chain tail's row is the super's reach row; walking the
  // chain backwards, each member additionally reaches its own successor.
  std::vector<unsigned> ChainGlobals;
  for (unsigned SIdx = 0; SIdx != NumSupers; ++SIdx) {
    ChainGlobals.clear();
    for (unsigned Mem = SuperHead[SIdx]; Mem != NoNext; Mem = ChainNext[Mem])
      ChainGlobals.push_back(W.Members[Mem]);
    BitVector Acc = std::move(Reach[SIdx]);
    Out.row(ChainGlobals.back()) = Acc;
    for (unsigned I = static_cast<unsigned>(ChainGlobals.size()) - 1;
         I-- != 0;) {
      Acc.set(ChainGlobals[I + 1]);
      Out.row(ChainGlobals[I]) = Acc;
    }
  }
}

} // namespace

BitMatrix dagreduce::reducedClosure(
    unsigned N, const std::vector<std::pair<unsigned, unsigned>> &EdgesIn,
    ReduceStats *Stats) {
  BitMatrix Out(N);
  ReduceStats Local;
  Local.Nodes = N;
  if (N == 0) {
    if (Stats)
      *Stats = Local;
    return Out;
  }

  // Dedup and order the edge list; everything downstream keys off it.
  std::vector<std::pair<unsigned, unsigned>> Edges(EdgesIn);
  std::sort(Edges.begin(), Edges.end());
  Edges.erase(std::unique(Edges.begin(), Edges.end()), Edges.end());
  Local.Edges = static_cast<unsigned>(Edges.size());
#ifndef NDEBUG
  for (const auto &E : Edges)
    assert(E.first < E.second && E.second < N &&
           "dagreduce requires From < To < N (topological node order)");
#endif

  // Step 1: peel the universal sink. The block terminator receives a
  // Control edge from every other node; its closure column is all ones and
  // its row all zeros, so it only inflates the component split (everything
  // becomes one component through the sink).
  unsigned Limit = N;
  std::vector<unsigned> InDeg(N, 0);
  for (const auto &E : Edges)
    ++InDeg[E.second];
  if (N >= 2 && InDeg[N - 1] == N - 1) {
    Local.PeeledSink = true;
    Limit = N - 1;
    Edges.erase(std::remove_if(Edges.begin(), Edges.end(),
                               [N](const std::pair<unsigned, unsigned> &E) {
                                 return E.second == N - 1;
                               }),
                Edges.end());
  }

  // Step 2: weakly connected components over the remaining nodes.
  std::vector<unsigned> Parent(Limit);
  for (unsigned I = 0; I != Limit; ++I)
    Parent[I] = I;
  for (const auto &E : Edges) {
    unsigned A = findRoot(Parent, E.first);
    unsigned B = findRoot(Parent, E.second);
    if (A != B)
      Parent[std::max(A, B)] = std::min(A, B);
  }
  // Components numbered by first (= minimum) member id; LocalIdx maps a
  // global node to its rank inside its component's ascending member list.
  constexpr unsigned None = ~0u;
  std::vector<unsigned> CompOf(Limit), CompIdxOfRoot(Limit, None);
  std::vector<unsigned> MemberCount;
  for (unsigned I = 0; I != Limit; ++I) {
    unsigned Root = findRoot(Parent, I);
    if (CompIdxOfRoot[Root] == None) {
      CompIdxOfRoot[Root] = static_cast<unsigned>(MemberCount.size());
      MemberCount.push_back(0);
    }
    CompOf[I] = CompIdxOfRoot[Root];
  }
  unsigned NumComps = static_cast<unsigned>(MemberCount.size());
  Local.Components = NumComps;
  std::vector<unsigned> LocalIdx(Limit);
  for (unsigned I = 0; I != Limit; ++I)
    LocalIdx[I] = MemberCount[CompOf[I]]++;
  // Member lists (CSR over components, ascending ids by construction).
  std::vector<unsigned> MemberOff(NumComps + 1, 0);
  for (unsigned C = 0; C != NumComps; ++C)
    MemberOff[C + 1] = MemberOff[C] + MemberCount[C];
  std::vector<unsigned> Members(Limit);
  for (unsigned I = 0; I != Limit; ++I)
    Members[MemberOff[CompOf[I]] + LocalIdx[I]] = I;
  // Edge lists per component (both endpoints share a component by
  // construction); stable bucketing preserves the sorted order.
  std::vector<unsigned> EdgeOff(NumComps + 1, 0);
  for (const auto &E : Edges)
    ++EdgeOff[CompOf[E.first] + 1];
  for (unsigned C = 0; C != NumComps; ++C)
    EdgeOff[C + 1] += EdgeOff[C];
  std::vector<std::pair<unsigned, unsigned>> CompEdges(Edges.size());
  {
    std::vector<unsigned> Fill(EdgeOff.begin(), EdgeOff.end() - 1);
    for (const auto &E : Edges)
      CompEdges[Fill[CompOf[E.first]]++] = E;
  }

  // Steps 3-5 run per component; every component writes only its own
  // members' rows.
  for (unsigned C = 0; C != NumComps; ++C) {
    ComponentWork W{Members.data() + MemberOff[C], MemberCount[C],
                    CompEdges.data() + EdgeOff[C], EdgeOff[C + 1] - EdgeOff[C]};
    closeComponent(W, LocalIdx, N, Out, Local);
  }

  // Peeled sink column: every other node reaches the terminator directly.
  if (Local.PeeledSink)
    for (unsigned I = 0; I + 1 < N; ++I)
      Out.row(I).set(N - 1);

  if (Stats)
    *Stats = Local;
  return Out;
}
