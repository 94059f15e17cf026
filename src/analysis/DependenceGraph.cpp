//===- analysis/DependenceGraph.cpp - Per-block schedule graph ------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//

#include "analysis/DependenceGraph.h"

#include "ir/Function.h"
#include "machine/MachineModel.h"

#include <algorithm>
#include <cassert>

using namespace pira;

const char *pira::depKindName(DepKind Kind) {
  switch (Kind) {
  case DepKind::Flow:
    return "flow";
  case DepKind::Anti:
    return "anti";
  case DepKind::Output:
    return "output";
  case DepKind::Memory:
    return "memory";
  case DepKind::Control:
    return "control";
  }
  assert(false && "unknown dependence kind");
  return "?";
}

namespace {
/// Sentinel for an absent edge, position or chain link.
constexpr unsigned NoIndex = ~0u;
} // namespace

void DependenceGraph::addEdge(unsigned From, unsigned To, DepKind Kind,
                              unsigned Latency) {
  assert(From < NumNodes && To < NumNodes && From < To &&
         "bad dependence edge; node order must stay topological");
  if (Adjacent.test(From, To)) {
    // Keep the strongest (largest latency) constraint for duplicates. The
    // per-From chain makes this a walk over From's edges only.
    for (unsigned EI = FirstFrom[From]; EI != NoIndex; EI = NextFrom[EI]) {
      DepEdge &E = Edges[EI];
      if (E.To == To) {
        if (E.Latency < Latency)
          E.Latency = Latency;
        return;
      }
    }
    assert(false && "adjacency bit set without a matching edge");
    return;
  }
  Adjacent.set(From, To);
  unsigned EI = static_cast<unsigned>(Edges.size());
  NextFrom.push_back(FirstFrom[From]);
  FirstFrom[From] = EI;
  Edges.push_back({From, To, Kind, Latency});
}

void DependenceGraph::buildCsr() {
  unsigned NumEdges = static_cast<unsigned>(Edges.size());
  unsigned *SOff = Storage.allocateZeroed<unsigned>(NumNodes + 1);
  unsigned *POff = Storage.allocateZeroed<unsigned>(NumNodes + 1);
  for (const DepEdge &E : Edges) {
    ++SOff[E.From + 1];
    ++POff[E.To + 1];
  }
  for (unsigned I = 0; I != NumNodes; ++I) {
    SOff[I + 1] += SOff[I];
    POff[I + 1] += POff[I];
  }
  unsigned *SIdx = Storage.allocate<unsigned>(NumEdges);
  unsigned *PIdx = Storage.allocate<unsigned>(NumEdges);
  {
    // Stable fill in edge-insertion order, matching the order the old
    // per-node vectors accumulated.
    std::vector<unsigned> SFill(SOff, SOff + NumNodes);
    std::vector<unsigned> PFill(POff, POff + NumNodes);
    for (unsigned EI = 0; EI != NumEdges; ++EI) {
      SIdx[SFill[Edges[EI].From]++] = EI;
      PIdx[PFill[Edges[EI].To]++] = EI;
    }
  }
  SuccOff = SOff;
  SuccIdx = SIdx;
  PredOff = POff;
  PredIdx = PIdx;
  FirstFrom = {};
  NextFrom = {};
}

/// Returns true when the two memory instructions provably access disjoint
/// locations under the interpreter's wrap-modulo-size addressing.
///
/// Sound rules only: different arrays never alias; within one array two
/// accesses are disjoint when they share the same base register (or are
/// both direct) and have distinct constant offsets that both lie inside
/// the declared bounds (wrapping is then the identity, and equal bases
/// shift both offsets identically).
static bool provablyDisjoint(const Function &F, const Instruction &A,
                             const Instruction &B) {
  assert(A.isMemory() && B.isMemory() && "not memory instructions");
  if (A.arraySymbolId() != B.arraySymbolId())
    return true;
  unsigned Size = F.arraySize(A.arraySymbol());
  if (Size == 0)
    return false;

  auto IndexOf = [](const Instruction &I) -> Reg {
    if (I.opcode() == Opcode::Load)
      return I.uses().empty() ? NoReg : I.uses()[0];
    return I.uses().size() > 1 ? I.uses()[1] : NoReg;
  };
  if (IndexOf(A) != IndexOf(B))
    return false;
  bool InBounds = A.imm() >= 0 && B.imm() >= 0 &&
                  A.imm() < static_cast<int64_t>(Size) &&
                  B.imm() < static_cast<int64_t>(Size);
  return InBounds && A.imm() != B.imm();
}

DependenceGraph::DependenceGraph(const Function &F, unsigned BlockIdx,
                                 const MachineModel &Machine) {
  const BasicBlock &BB = F.block(BlockIdx);
  NumNodes = BB.size();
  FirstFrom.assign(NumNodes, NoIndex);
  Adjacent = BitMatrix(NumNodes);

  // Register tables indexed by register id, sized by the largest register
  // this block names. LastDef[R] is the position of R's latest def, and
  // R's readers since that def form a chain through NextReader, from
  // FirstReader[R] to LastReader[R] in program order. These track
  // *positions*, so the same construction serves symbolic code (no
  // redefinition, hence no anti/output edges) and allocated code.
  unsigned NumRegSlots = 0;
  unsigned NumUses = 0;
  for (const Instruction &Inst : BB.instructions()) {
    for (Reg U : Inst.uses()) {
      assert(U != NoReg && "operand names no register");
      NumRegSlots = std::max(NumRegSlots, U + 1);
    }
    NumUses += static_cast<unsigned>(Inst.uses().size());
    if (Inst.hasDef()) {
      assert(Inst.def() != NoReg && "def names no register");
      NumRegSlots = std::max(NumRegSlots, Inst.def() + 1);
    }
  }
  std::vector<unsigned> LastDef(NumRegSlots, NoIndex);
  std::vector<unsigned> FirstReader(NumRegSlots, NoIndex);
  std::vector<unsigned> LastReader(NumRegSlots, NoIndex);
  std::vector<unsigned> Reader;
  std::vector<unsigned> NextReader;
  Reader.reserve(NumUses);
  NextReader.reserve(NumUses);
  std::vector<unsigned> MemOps;

  for (unsigned I = 0; I != NumNodes; ++I) {
    const Instruction &Inst = BB.inst(I);

    // Flow dependences: latest prior def of each used register.
    for (Reg U : Inst.uses()) {
      if (LastDef[U] != NoIndex) {
        const Instruction &Producer = BB.inst(LastDef[U]);
        addEdge(LastDef[U], I, DepKind::Flow,
                Machine.latency(Producer.opcode()));
      }
      unsigned Slot = static_cast<unsigned>(Reader.size());
      Reader.push_back(I);
      NextReader.push_back(NoIndex);
      if (LastReader[U] == NoIndex)
        FirstReader[U] = Slot;
      else
        NextReader[LastReader[U]] = Slot;
      LastReader[U] = Slot;
    }

    if (Inst.hasDef()) {
      Reg D = Inst.def();
      // Output dependence on the previous def of D.
      if (LastDef[D] != NoIndex)
        addEdge(LastDef[D], I, DepKind::Output, 1);
      // Anti dependences from readers of the previous value of D. Zero
      // latency: a superscalar reads operands before writing results, so
      // reader and overwriter may share a cycle.
      for (unsigned S = FirstReader[D]; S != NoIndex; S = NextReader[S])
        if (Reader[S] != I)
          addEdge(Reader[S], I, DepKind::Anti, 0);
      LastDef[D] = I;
      FirstReader[D] = LastReader[D] = NoIndex;
    }

    // Memory ordering: any prior memory op that may touch the same slot,
    // unless both are loads.
    if (Inst.isMemory()) {
      bool IsLoad = Inst.opcode() == Opcode::Load;
      for (unsigned Prev : MemOps) {
        const Instruction &PrevInst = BB.inst(Prev);
        bool PrevIsLoad = PrevInst.opcode() == Opcode::Load;
        if (IsLoad && PrevIsLoad)
          continue;
        if (provablyDisjoint(F, PrevInst, Inst))
          continue;
        addEdge(Prev, I, DepKind::Memory,
                Machine.latency(PrevInst.opcode()));
      }
      MemOps.push_back(I);
    }
  }

  // The terminator stays last: every instruction precedes it. Zero latency
  // lets work share the branch's final cycle, as on real machines.
  if (NumNodes != 0 && BB.inst(NumNodes - 1).isTerminator())
    for (unsigned I = 0; I + 1 < NumNodes; ++I)
      addEdge(I, NumNodes - 1, DepKind::Control, 0);

  buildCsr();
}

BitMatrix DependenceGraph::reachability() const {
  BitMatrix M = Adjacent;
  M.transitiveClosureUpperTriangular();
  return M;
}

bool DependenceGraph::hasPath(unsigned From, unsigned To) const {
  assert(From < NumNodes && To < NumNodes && "node out of range");
  // Small scope; a DFS avoids building the full closure.
  std::vector<unsigned> Stack = {From};
  BitVector Seen(NumNodes);
  Seen.set(From);
  while (!Stack.empty()) {
    unsigned Node = Stack.back();
    Stack.pop_back();
    for (unsigned EI : succEdges(Node)) {
      unsigned Next = Edges[EI].To;
      if (Next == To)
        return true;
      if (!Seen.test(Next)) {
        Seen.set(Next);
        Stack.push_back(Next);
      }
    }
  }
  return false;
}
