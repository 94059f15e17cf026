//===- pipeline/Oracle.h - Exact branch-and-bound strategy ------*- C++ -*-===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The exact oracle over the joint schedule + allocation space: a
/// branch-and-bound search that, for a single-block function, finds a
/// spill-free schedule of provably minimum makespan among all schedules
/// for which a K-register allocation exists, then materializes the code
/// (reorder + left-edge renaming) and the schedule. It is the ground
/// truth the heuristic-gap tournament and the differential property
/// tests measure the Section-4 strategies against (ROADMAP item 3; the
/// combinatorial line of Unison, arXiv:1804.02452).
///
/// Formulation (see DESIGN.md §9 for the full argument):
///
///   * The search enumerates cycle-by-cycle issue sets over the symbolic
///     block's schedule graph Gs — exactly the legal schedules, since
///     symbolic code has no anti/output register edges.
///   * Issue sets respect issue width and per-class unit counts, and a
///     register-feasibility check: an issue set is admitted only if some
///     within-cycle order (0-latency edges respected) keeps the number
///     of simultaneously-live values at or under K. Under read-before-
///     write cycle semantics this check is exact — for a fixed schedule
///     of one block, live ranges are intervals along the issue order,
///     so minimum registers equals peak simultaneous liveness and the
///     left-edge greedy achieves it.
///   * Admissible lower bounds prune: the critical path (height over
///     Gs's latencies) and per-unit-class resource floors
///     ceil(remaining / units). A per-instruction pressure floor
///     (an instruction's operands are all live when it issues) rejects
///     provably unallocatable blocks before any search.
///   * Dominance memoization prunes revisits: per scheduled-instruction
///     bitmask the search keeps Pareto-minimal (cycle, ready-times)
///     entries and cuts any state pointwise no better than a stored one.
///   * The search is budgeted and cooperative: it spends at most
///     NodeBudget search nodes and polls the thread's armed deadline
///     (deadline::expired()), so a blowup degrades cleanly down the
///     existing ladder (SearchExhausted is not ladder-fatal) instead of
///     hanging.
///
//===----------------------------------------------------------------------===//

#ifndef PIRA_PIPELINE_ORACLE_H
#define PIRA_PIPELINE_ORACLE_H

#include "support/Status.h"

#include <cstdint>

namespace pira {

class Function;
class MachineModel;
struct PipelineResult;

/// Tunables of the exact search. Defaults keep the oracle inside its
/// feasible envelope (single blocks up to ~30 instructions).
struct OracleOptions {
  /// Largest single-block instruction count the oracle attempts; bigger
  /// inputs fail fast with SearchExhausted and fall down the ladder.
  /// Hard-capped at 64 (the scheduled-set bitmask is one word).
  unsigned MaxInstructions = 30;

  /// Search-node budget; exceeding it abandons the proof with
  /// SearchExhausted. 0 means unlimited (tests only — an adversarial
  /// block can make the exact search take effectively forever).
  uint64_t NodeBudget = 2'000'000;
};

/// Runs the exact search on \p Input for \p Machine. On success fills
/// \p Out: Final (allocated, reordered to the optimal schedule),
/// SymbolicTwin (same order, symbolic registers — the false-dep
/// checker's twin), Sched (the optimal cycle assignment; the caller must
/// NOT re-run the list scheduler over it), RegistersUsed, StaticCycles,
/// and zero spill fields, and returns Ok.
///
/// Failure Statuses:
///   * SearchExhausted — input out of scope (multi-block, too large) or
///     the node budget / a cooperative deadline ran out before the
///     search finished. Not fatal to the degradation ladder.
///   * AllocFailure — proof of infeasibility: no spill-free schedule of
///     this block fits in the machine's registers.
Status oracleCompile(const Function &Input, const MachineModel &Machine,
                     const OracleOptions &Opts, PipelineResult &Out);

} // namespace pira

#endif // PIRA_PIPELINE_ORACLE_H
