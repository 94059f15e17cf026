//===- bench/figures_example1.cpp - Regenerate paper Example 1 ------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
// Regenerates every exhibit built on the paper's Example 1: the schedule
// graph's data edges (Figure 2a), the constraint set Et and its machine
// subset (Figure 2b), the false dependence edges (Figure 2b), the
// interference graph (Figure 2c), the parallelizable interference graph
// and a 3-register combined allocation (Figure 3), and the introduction's
// naive allocation (c) with its false dependence. The paper's expected
// values are printed next to the regenerated ones.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "analysis/DependenceGraph.h"
#include "analysis/Webs.h"
#include "core/FalseDepChecker.h"
#include "core/FalseDependenceGraph.h"
#include "core/ParallelInterferenceGraph.h"
#include "core/PinterAllocator.h"
#include "machine/MachineModel.h"
#include "regalloc/InterferenceGraph.h"
#include "workloads/Kernels.h"

#include <iostream>

using namespace pira;
using namespace pira::bench;

int main() {
  std::cout << "==========================================================\n"
            << " Paper Example 1  (PLDI'93, Figures 2-3)\n"
            << "==========================================================\n\n";
  Function F = paperExample1();
  MachineModel M = MachineModel::paperTwoUnit();

  std::cout << "Input code (block 0 instructions are the paper's s1..s5;\n"
            << "s5 := s3*5+s1 maps to mul(s3,s1) — same operands and unit):\n";
  printFunction(F, std::cout);

  DependenceGraph Gs(F, 0, M);
  std::cout << "\n--- Figure 2(a): data dependence edges of Gs ---\n  ";
  const char *Sep = "";
  for (const DepEdge &E : Gs.edges()) {
    if (E.Kind != DepKind::Flow || E.To >= 5)
      continue;
    std::cout << Sep << "s" << E.From + 1 << "->s" << E.To + 1;
    Sep = "  ";
  }
  std::cout << "\n  paper:  s1->s4  s1->s5  s2->s3  s3->s5\n";

  FalseDependenceGraph FDG(F, 0, Gs, M);
  UndirectedGraph MachinePairs =
      UndirectedGraph::fromSymmetric(machineConstraintPairs(F.block(0), M));
  std::cout << "\n--- Figure 2(b): the set Et ---\n"
            << "  ours : " << paperEdges(FDG.constraints(), 5) << '\n'
            << "  paper: {s1,s3} {s1,s4} {s1,s5} {s2,s3} {s2,s5} {s3,s5} "
               "{s4,s5}\n"
            << "  machine-dependent subset:\n"
            << "  ours : " << paperEdges(MachinePairs, 5) << '\n'
            << "  paper: {s1,s3} {s4,s5}\n";

  std::cout << "\n--- Figure 2(b): false dependence edges Ef ---\n"
            << "  ours : " << paperEdges(FDG.parallelPairs(), 5) << '\n'
            << "  paper: {s1,s2} {s2,s4} {s3,s4}\n";

  Webs W(F);
  InterferenceGraph IG(F, W);
  std::cout << "\n--- Figure 2(c): interference graph Gr ---\n"
            << "  ours : " << paperEdges(IG.graph(), 5) << '\n'
            << "  (s2/s3 and s1/s5 do not interfere: the last-use "
               "statement is an open endpoint)\n";

  ParallelInterferenceGraph PIG(F, W, IG, M);
  std::cout << "\n--- Figure 3: parallelizable interference graph ---\n"
            << "  edges: " << paperEdges(PIG.combined(), 5) << '\n';

  std::vector<double> Costs(W.numWebs(), 1.0);
  Allocation A = pinterColor(PIG, Costs, 3);
  Table T({"inst", "paper reg", "our reg"});
  const char *PaperRegs[5] = {"r1", "r2", "r2", "r3", "r2"};
  for (unsigned I = 0; I != 5; ++I)
    T.addRow({"s" + std::to_string(I + 1), PaperRegs[I],
              "r" + std::to_string(A.ColorOfWeb[W.webOfDef(0, I)] + 1)});
  std::cout << "\n  3-register combined allocation (paper's mapping vs "
               "ours; any optimal PIG coloring is valid):\n";
  T.print(std::cout);
  std::cout << "  colors used: " << A.NumColorsUsed
            << " (paper: 3), parallel edges dropped: "
            << A.ParallelEdgesDropped << " (paper: 0), spills: "
            << A.SpilledWebs.size() << " (paper: 0)\n";

  // The introduction's allocation (c): reuse r2 for s4 and r1 for s5.
  Function Naive = F;
  Allocation NA;
  NA.ColorOfWeb.assign(W.numWebs(), -1);
  int NaiveColors[5] = {0, 1, 2, 1, 0};
  for (unsigned I = 0; I != 5; ++I)
    NA.ColorOfWeb[W.webOfDef(0, I)] = NaiveColors[I];
  NA.NumColorsUsed = 3;
  applyAllocation(Naive, W, NA);
  auto False = findFalseDependences(F, Naive, M);
  std::cout << "\n--- Introduction (c): naive 3-register reuse ---\n";
  printFunction(Naive, std::cout);
  std::cout << "  false dependences introduced: " << False.size()
            << " (paper: 1, between the 2nd and 4th instructions)\n";
  for (const FalseDep &FD : False)
    std::cout << "    inst " << FD.From + 1 << " -> inst " << FD.To + 1
              << " (" << depKindName(FD.Kind) << ")\n";

  bool Ok = False.size() == 1 && False[0].From == 1 && False[0].To == 3 &&
            A.NumColorsUsed == 3 && A.ParallelEdgesDropped == 0;
  std::cout << "\nRESULT: " << (Ok ? "MATCHES PAPER" : "MISMATCH") << "\n\n";
  return Ok ? 0 : 1;
}
