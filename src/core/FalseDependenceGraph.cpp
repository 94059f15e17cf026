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
  const BasicBlock &BB = F.block(BlockIdx);
  unsigned N = Gs.size();

  // All three edge families are assembled as packed bit matrices and
  // adopted wholesale (UndirectedGraph::fromSymmetric); every step below
  // is a word-parallel row operation, never a per-pair insertion. This is
  // the serial bottleneck each batch worker runs, so it stays O(N^2/64)
  // per step.

  // Et part 1: the transitive closure of Gs, directions removed. The
  // closure runs through the pre-closure DAG reduction.
  BitMatrix Et;
  {
    PIRA_TIME_SCOPE("pig/closure");
    Et = Gs.reachability();
    Et.symmetrize();
  }

  // Et part 2: non-precedence machine constraints — pairs contending for
  // a unit class with a single unit (the paper's explicit rule; multiple
  // units of one class are left to the scheduler per footnote 3). A
  // single-issue machine serializes every pair. Row form: every member of
  // a contended class absorbs the class's member set.
  BitMatrix MachineM(N);
  if (Machine.issueWidth() == 1) {
    for (unsigned U = 0; U != N; ++U) {
      MachineM.row(U).setAll();
      MachineM.reset(U, U);
    }
  } else {
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
  }
  for (unsigned U = 0; U != N; ++U)
    Et.row(U).unionWith(MachineM.row(U));

  // Ef: the complement of Et — exactly the pairs that may share a cycle.
  BitMatrix Ef = Et;
  Ef.complementOffDiagonal();

  Constraints = UndirectedGraph::fromSymmetric(std::move(Et));
  MachinePairs = UndirectedGraph::fromSymmetric(std::move(MachineM));
  ParallelPairs = UndirectedGraph::fromSymmetric(std::move(Ef));

  NumFdgParallelPairs += ParallelPairs.numEdges();
  NumFdgMachineConstraintPairs += MachinePairs.numEdges();
}
