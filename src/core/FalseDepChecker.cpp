//===- core/FalseDepChecker.cpp - Post-allocation validation --------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//

#include "core/FalseDepChecker.h"

#include "core/FalseDependenceGraph.h"
#include "ir/Function.h"
#include "machine/MachineModel.h"

#include <cassert>

using namespace pira;

FalseDepReport pira::analyzeFalseDependences(const Function &Symbolic,
                                             const Function &Allocated,
                                             const MachineModel &Machine) {
  assert(!Symbolic.isAllocated() && Allocated.isAllocated() &&
         "arguments swapped");
  assert(Symbolic.numBlocks() == Allocated.numBlocks() &&
         "functions do not correspond");

  FalseDepReport Report;
  for (unsigned B = 0, NB = Symbolic.numBlocks(); B != NB; ++B) {
    assert(Symbolic.block(B).size() == Allocated.block(B).size() &&
           "allocation must preserve instruction positions");
    FalseDependenceGraph FDG(Symbolic, B, Machine);
    DependenceGraph After(Allocated, B, Machine);
    for (const DepEdge &E : After.edges()) {
      // Only register reuse creates new edges; flow/memory/control edges
      // exist identically in the symbolic graph. Anti edges never forbid
      // same-cycle issue (reads precede writes), so only output edges
      // can be false — see the header comment. An anti edge inside Ef
      // still costs one ordering.
      if (E.Kind != DepKind::Output && E.Kind != DepKind::Anti)
        continue;
      if (!FDG.canIssueTogether(E.From, E.To))
        continue;
      if (E.Kind == DepKind::Output)
        Report.FalseDeps.push_back({B, E.From, E.To, E.Kind});
      else
        ++Report.AntiOrderingLosses;
    }
  }
  return Report;
}

std::vector<FalseDep>
pira::findFalseDependences(const Function &Symbolic,
                           const Function &Allocated,
                           const MachineModel &Machine) {
  return analyzeFalseDependences(Symbolic, Allocated, Machine).FalseDeps;
}

unsigned pira::countAntiOrderingLosses(const Function &Symbolic,
                                       const Function &Allocated,
                                       const MachineModel &Machine) {
  return analyzeFalseDependences(Symbolic, Allocated, Machine)
      .AntiOrderingLosses;
}
