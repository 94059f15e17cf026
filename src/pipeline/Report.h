//===- pipeline/Report.h - Structured JSON stats reports --------*- C++ -*-===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The machine-readable side of the pipeline: serializes PipelineResult,
/// the telemetry counter registry, and aggregated phase timers into one
/// JSON document with a stable, versioned schema ("pira.stats"). `pirac
/// --stats-out` and the bench binaries emit this format so
/// the perf trajectory of the repo is diffable across PRs.
///
/// Schema (version 8):
///
///   {
///     "schema": "pira.stats", "version": 8,
///     "provenance": {"tool", "tool_version", "git_sha", "compiler",
///                    "build_type", "ndebug"},
///     "strategy": "combined",            // when known
///     "machine": {"name": ..., "registers": N, "issue_width": W},
///     "pipeline": { ...every PipelineResult scalar field...,
///                   "diagnostic": {"code", "phase", "message",
///                                  "context": [...]} },
///     "counters": {"NumFoo": {"value": N, "description": ...}, ...},
///     "timers": [{"path": ..., "calls": N, "total_ns": N}, ...]
///   }
///
/// Batch reports (makeBatchStatsReport) replace "pipeline" with a
/// "functions" array and add "batch" aggregates plus "failures" and
/// "degradations" sections (the failure model; see DESIGN.md §8), and —
/// when a compilation cache was live — a "cache" block: {"mode",
/// "disk", "memory_hits", "disk_hits", "misses", "inserts",
/// "corrupt_entries", "write_failures", "verify_mismatches",
/// "trimmed_entries", "hit_rate"} (pipeline/Cache.h).
/// Version history: v2 added "diagnostic" per result and the batch
/// "failures"/"degradations" sections and "failed"/"degraded"
/// aggregates; v3 added the batch "cache" block; v4 added the
/// per-function "isolation" record (sandboxed-child spawns, retries,
/// crashes, timeouts, last exit/signal) and the batch "isolated"/
/// "crashes"/"timeouts"/"retries" tallies for out-of-process runs.
/// v5 added the "provenance" block and the "histograms" section.
/// v6 removed "remote_hits" from the batch "cache" block, along with
/// the remote cache tier that was its only source.
/// v7 removed the v4 "isolation" record and the four batch tallies,
/// along with out-of-process compilation, their only source.
/// v8 removed the "histograms" section: each latency it held timed a
/// span that a phase scope under "timers" already covers.
///
/// Byte-identity contract: everything above the "timers" key is
/// deterministic for deterministic inputs (counters merge commutatively,
/// so they match across --jobs); "timers" carries wall-clock
/// measurements and is the report's one volatile section, which
/// identity checks neutralize.
///
//===----------------------------------------------------------------------===//

#ifndef PIRA_PIPELINE_REPORT_H
#define PIRA_PIPELINE_REPORT_H

#include "pipeline/Strategies.h"
#include "support/Json.h"

#include <string>

namespace pira {

class MachineModel;

/// Schema constants; bump the version whenever a field changes meaning.
inline constexpr const char *StatsSchemaName = "pira.stats";
inline constexpr int StatsSchemaVersion = 8;

/// The tool version stamped into provenance blocks and --version output.
inline constexpr const char *PiraVersionString = "0.6.0";

/// Serializes every scalar field of \p R (code and schedule bodies are
/// deliberately omitted — they belong to the textual printers).
json::Value pipelineResultToJson(const PipelineResult &R);

/// Serializes \p Machine's identity (name, register count, issue width).
json::Value machineToJson(const MachineModel &Machine);

/// The registered telemetry counters as {"name": {"value", "description"}}.
json::Value countersToJson();

/// Aggregated phase timers as [{"path", "calls", "total_ns"}].
json::Value timersToJson();

/// The build-provenance block stamped into every stats report and
/// printed by `pirac --version`: tool name + version, git SHA and build
/// type when the build system knew them, compiler id/version, and
/// whether asserts were compiled out (ndebug).
json::Value buildProvenanceToJson();

/// The keys every pira.stats document opens with: schema, version,
/// provenance, strategy (omitted when \p Strategy is empty) and machine.
json::Value beginStatsReport(const std::string &Strategy,
                             const MachineModel &Machine);

/// Appends the keys every pira.stats document closes with: "counters",
/// then the volatile "timers".
void endStatsReport(json::Value &Root);

/// Assembles the full versioned stats document for one pipeline run.
/// \p Strategy may be empty when the run is not strategy-shaped.
json::Value makeStatsReport(const PipelineResult &R,
                            const std::string &Strategy,
                            const MachineModel &Machine);

/// Writes \p Report (pretty-printed) to \p FilePath — or to stdout when
/// \p FilePath is "-"; false with \p Error set on I/O failure.
bool writeJsonFile(const json::Value &Report, const std::string &FilePath,
                   std::string &Error);

} // namespace pira

#endif // PIRA_PIPELINE_REPORT_H
