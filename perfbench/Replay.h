//===- perfbench/Replay.h - Traced replay of one compile --------*- C++ -*-===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Replays runAndMeasure phase by phase through the public functions of
/// ir, analysis, regalloc, sched, core and sim, in the order runStrategy,
/// chaitinAllocate and pinterAllocate call them, with one span per call.
/// The result must equal the untraced runAndMeasure result byte for byte
/// (the benchmark checks it): when the pipeline is restructured, the
/// replay stops matching or loses coverage rather than silently
/// reporting wrong per-layer numbers.
///
//===----------------------------------------------------------------------===//

#ifndef PIRABENCH_REPLAY_H
#define PIRABENCH_REPLAY_H

#include "Trace.h"

#include "pipeline/Strategies.h"

#include <cstdint>
#include <vector>

namespace pirabench {

/// Replays runAndMeasure(\p Kind, \p Input, \p Machine, {}, \p Seed) for
/// the strategies the benchmark runs (combined, goodman-hsu-ips,
/// sched-first, alloc-first) inside the caller's open request span.
/// Every function the PIG was built over is appended to \p PigInputs so
/// the caller can time its dependence graphs and closures as separate
/// calls after the request ends.
pira::PipelineResult replayRunAndMeasure(pira::StrategyKind Kind,
                                         const pira::Function &Input,
                                         const pira::MachineModel &Machine,
                                         uint64_t Seed, Tracer &T,
                                         std::vector<pira::Function> &PigInputs);

/// Times DependenceGraph construction and reachability() for every block
/// of each function in \p PigInputs, as spans "analysis.depgraph" and
/// "analysis.closure" under the caller's open span.
void replayDependenceGraphs(const std::vector<pira::Function> &PigInputs,
                            const pira::MachineModel &Machine, Tracer &T);

} // namespace pirabench

#endif // PIRABENCH_REPLAY_H
