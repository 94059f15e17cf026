//===- pipeline/Strategies.h - Phase-ordering strategies --------*- C++ -*-===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end compilation strategies over the same substrate, matching
/// the orderings the paper discusses:
///
///   * AllocFirst — Chaitin coloring of the plain interference graph,
///     then list scheduling (the MIPS ordering [6]; register reuse may
///     introduce false dependences that fence off parallelism).
///   * SchedFirst — aggressive pre-pass scheduling of the symbolic code,
///     then Chaitin allocation on the stretched live ranges, then final
///     scheduling (the RS/6000 ordering [14]; more spills under
///     pressure).
///   * IntegratedPrepass — Goodman-Hsu [10]: a pressure-aware dual-mode
///     prepass scheduler, then Chaitin allocation and final scheduling.
///   * Combined — the paper's framework: coloring of the parallelizable
///     interference graph (PinterAllocator), then list scheduling.
///   * SpillAll — the always-succeeds safety net: every web is spilled
///     to memory up front, leaving only short reload/store ranges for a
///     trivial coloring. Slow code, but verifier-clean on inputs that
///     defeat every real allocator — the bottom rung of the batch
///     driver's degradation ladder.
///   * Oracle — the exact branch-and-bound search over the joint
///     schedule + allocation space (pipeline/Oracle.h): provably minimum
///     makespan among spill-free schedules for small single blocks, the
///     ground truth of the heuristic-gap tournament. Blows up (or goes
///     out of scope) with SearchExhausted and falls down the ladder.
///
/// Every strategy reports the same statistics so benches can print them
/// side by side, and validates semantics against the sequential
/// interpreter. Failures are structured: PipelineResult carries both the
/// legacy Error string and a Status diagnostic (code, phase, context).
///
//===----------------------------------------------------------------------===//

#ifndef PIRA_PIPELINE_STRATEGIES_H
#define PIRA_PIPELINE_STRATEGIES_H

#include "core/PinterAllocator.h"
#include "ir/Function.h"
#include "pipeline/Oracle.h"
#include "sched/Schedule.h"
#include "support/Status.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pira {

class MachineModel;

/// Identifies a phase-ordering strategy.
enum class StrategyKind {
  AllocFirst,
  SchedFirst,
  IntegratedPrepass,
  Combined,
  SpillAll,
  Oracle,
};

/// Returns a short printable name ("alloc-first", ...). Out-of-range
/// values (a cast gone wrong, a corrupted report) map to "unknown" —
/// never undefined behaviour, release builds included.
const char *strategyName(StrategyKind Kind);

/// Parses a strategy name ("alloc-first", "sched-first", "ips" or
/// "goodman-hsu-ips", "combined", "spill-all", "oracle"). Unknown names
/// produce an InvalidArgument Status listing the accepted spellings; the
/// list is generated from the same table strategyName reads, so the two
/// cannot drift apart.
Expected<StrategyKind> strategyFromName(std::string_view Name);

/// Every strategy, in a stable display order (the oracle first — the
/// tournament's baseline — then the heuristics from most to least
/// integrated). Backed by the same table as strategyName.
const std::vector<StrategyKind> &allStrategies();

/// Everything a strategy run produces.
struct PipelineResult {
  bool Success = false;          ///< Allocation converged and code verifies.
  std::string Error;             ///< First failure when !Success.
  Status Diag;                   ///< Structured twin of Error (Ok on success).
  Function Final;                ///< Allocated (physical-register) code.
  Function SymbolicTwin;         ///< Post-spill symbolic code (for checks).
  FunctionSchedule Sched;        ///< Final schedule of Final.

  unsigned RegistersUsed = 0;    ///< Distinct physical registers.
  unsigned SpilledWebs = 0;      ///< Live ranges sent to memory.
  unsigned SpillInstructions = 0;///< Loads + stores inserted.
  unsigned FalseDeps = 0;        ///< False (output) dependence edges.
  unsigned AntiOrderingLosses = 0; ///< Anti edges on co-issuable pairs.
  unsigned ParallelEdgesDropped = 0; ///< Combined only.
  unsigned StaticCycles = 0;     ///< Sum of block makespans.

  /// Dynamic figures from the superscalar simulator (filled by
  /// runAndMeasure; zero otherwise).
  uint64_t DynCycles = 0;
  uint64_t DynInstructions = 0;
  bool SemanticsPreserved = false;
};

/// Runs \p Kind on a copy of \p Input for \p Machine (whose register file
/// bounds the allocator). \p Opts tunes the Combined strategy only;
/// \p OOpts tunes the Oracle strategy only.
/// May throw faultinject::FaultInjectedError (armed throw-sites) or
/// deadline::DeadlineExceededError (an armed ScopedDeadline); the batch
/// driver's guard turns both into per-function diagnostics.
PipelineResult runStrategy(StrategyKind Kind, const Function &Input,
                           const MachineModel &Machine,
                           const PinterOptions &Opts = {},
                           const OracleOptions &OOpts = {});

/// Runs the strategy, then simulates the result against the sequential
/// interpretation of \p Input (initial state seeded with \p Seed),
/// filling the dynamic fields and SemanticsPreserved.
PipelineResult runAndMeasure(StrategyKind Kind, const Function &Input,
                             const MachineModel &Machine,
                             const PinterOptions &Opts = {},
                             uint64_t Seed = 42,
                             const OracleOptions &OOpts = {});

} // namespace pira

#endif // PIRA_PIPELINE_STRATEGIES_H
