//===- core/FalseDepChecker.h - Post-allocation validation ------*- C++ -*-===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Detects false dependences in allocated code, implementing the paper's
/// definition directly: an edge (u, v) of the post-allocation scheduling
/// graph is false iff u and v could be scheduled together according to
/// the schedule graph of the code in symbolic-register form (Lemma 1:
/// iff {u, v} ∈ Ef). Theorem 1 validation and the strategy benchmarks
/// both rest on this checker.
///
//===----------------------------------------------------------------------===//

#ifndef PIRA_CORE_FALSEDEPCHECKER_H
#define PIRA_CORE_FALSEDEPCHECKER_H

#include "analysis/DependenceGraph.h"

#include <vector>

namespace pira {

class Function;
class MachineModel;

/// One false dependence found in allocated code.
struct FalseDep {
  unsigned Block;
  unsigned From; ///< Instruction index within the block.
  unsigned To;
  DepKind Kind;  ///< Output (see below for why anti edges are excluded).
};

/// Both Lemma 1 results of one allocated function.
struct FalseDepReport {
  /// Output edges whose endpoints are in Ef, block by block (see
  /// findFalseDependences).
  std::vector<FalseDep> FalseDeps;
  /// Anti edges whose endpoints are in Ef (see countAntiOrderingLosses).
  unsigned AntiOrderingLosses = 0;
};

/// Compares \p Allocated against its pre-allocation twin \p Symbolic
/// (same blocks, same instruction positions — allocation is a pure
/// operand renaming) in one pass: per block it builds the symbolic Gf and
/// the allocated schedule graph once and classifies each allocated edge.
FalseDepReport analyzeFalseDependences(const Function &Symbolic,
                                       const Function &Allocated,
                                       const MachineModel &Machine);

/// Returns every false dependence edge of \p Allocated, block by block:
/// analyzeFalseDependences(...).FalseDeps.
///
/// Allocation introduces anti and output register dependences. Only
/// output dependences can forbid scheduling two instructions *together*
/// (two writes of one register cannot share a cycle): an anti edge
/// permits same-cycle issue because a superscalar reads operands before
/// writing results. This matches the paper exactly — its Figure 5
/// assignment itself creates an anti edge between co-issuable
/// instructions (`r2 = r1*r2` reads the r1 that `r1 = load x`
/// overwrites), and the Theorem 1 proof's anti-dependence case argues
/// such reuse is harmless rather than absent. So a false dependence is
/// an *output* edge whose endpoints are in the symbolic code's Ef.
std::vector<FalseDep> findFalseDependences(const Function &Symbolic,
                                           const Function &Allocated,
                                           const MachineModel &Machine);

/// Count of scheduling orderings lost to anti edges: anti dependences in
/// \p Allocated whose endpoints could symbolically issue in the same
/// cycle. Not false dependences (co-issue survives), but they do forbid
/// issuing the writer strictly before the reader; reported apart from
/// them so benchmarks can show the full picture:
/// analyzeFalseDependences(...).AntiOrderingLosses.
unsigned countAntiOrderingLosses(const Function &Symbolic,
                                 const Function &Allocated,
                                 const MachineModel &Machine);

} // namespace pira

#endif // PIRA_CORE_FALSEDEPCHECKER_H
