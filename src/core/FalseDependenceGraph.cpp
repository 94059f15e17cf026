//===- core/FalseDependenceGraph.cpp - The paper's Gf ---------------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//

#include "core/FalseDependenceGraph.h"

#include "analysis/DependenceGraph.h"
#include "ir/Function.h"
#include "machine/MachineModel.h"
#include "support/Telemetry.h"

#include <array>

using namespace pira;

PIRA_STAT(NumFdgParallelPairs,
          "Instruction pairs found co-issuable (Ef edges)");
PIRA_STAT(NumFdgMachineConstraintPairs,
          "Instruction pairs serialized by unit/width contention alone");

FalseDependenceGraph::FalseDependenceGraph(const Function &F,
                                           unsigned BlockIdx,
                                           const MachineModel &Machine) {
  DependenceGraph Gs(F, BlockIdx, Machine);
  build(F, BlockIdx, Gs, Machine);
}

FalseDependenceGraph::FalseDependenceGraph(const Function &F,
                                           unsigned BlockIdx,
                                           const DependenceGraph &Gs,
                                           const MachineModel &Machine) {
  build(F, BlockIdx, Gs, Machine);
}

void FalseDependenceGraph::build(const Function &F, unsigned BlockIdx,
                                 const DependenceGraph &Gs,
                                 const MachineModel &Machine) {
  PIRA_TIME_SCOPE("pig/fdg");
  unsigned N = Gs.size();

  // Et is assembled as a packed bit matrix and Ef adopted wholesale
  // (UndirectedGraph::fromSymmetric); every step below is a word-parallel
  // row operation, never a per-pair insertion. This is the serial
  // bottleneck each batch worker runs, so it stays O(N^2/64) per step.

  // Et part 1: the transitive closure of Gs, directions removed. The
  // closure runs through the pre-closure DAG reduction.
  BitMatrix Et;
  {
    PIRA_TIME_SCOPE("pig/closure");
    Et = Gs.reachability();
    Et.symmetrize();
  }

  // Et part 2: non-precedence machine constraints.
  BitMatrix MachineM = machineConstraintPairs(F.block(BlockIdx), Machine);
  for (unsigned U = 0; U != N; ++U)
    Et.row(U).unionWith(MachineM.row(U));

  // Ef: the complement of Et — exactly the pairs that may share a cycle.
  Et.complementOffDiagonal();
  ParallelPairs = UndirectedGraph::fromSymmetric(std::move(Et));

  NumFdgParallelPairs += ParallelPairs.numEdges();
  NumFdgMachineConstraintPairs += MachineM.count() / 2;
}

UndirectedGraph FalseDependenceGraph::constraints() const {
  unsigned N = size();
  BitMatrix Et(N);
  for (unsigned U = 0; U != N; ++U)
    Et.row(U) = ParallelPairs.neighbors(U);
  Et.complementOffDiagonal();
  return UndirectedGraph::fromSymmetric(std::move(Et));
}

BitMatrix pira::machineConstraintPairs(const BasicBlock &BB,
                                       const MachineModel &Machine) {
  // Row form: every member of a contended class absorbs the class's
  // member set.
  unsigned N = BB.size();
  BitMatrix MachineM(N);
  if (Machine.issueWidth() == 1) {
    for (unsigned U = 0; U != N; ++U) {
      MachineM.row(U).setAll();
      MachineM.reset(U, U);
    }
    return MachineM;
  }
  std::array<BitVector, NumUnitKinds> Members;
  Members.fill(BitVector(N));
  for (unsigned U = 0; U != N; ++U)
    Members[static_cast<unsigned>(BB.inst(U).unit())].set(U);
  for (unsigned U = 0; U != N; ++U) {
    UnitKind KU = BB.inst(U).unit();
    if (Machine.isSingleUnit(KU)) {
      MachineM.row(U).unionWith(Members[static_cast<unsigned>(KU)]);
      MachineM.reset(U, U);
    }
  }
  return MachineM;
}
