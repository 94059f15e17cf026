//===- bench/perf_algorithms.cpp - Algorithmic cost benchmarks ------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
// google-benchmark timings of the framework's building blocks against
// block size: schedule-graph construction, transitive closure, false
// dependence graph, PIG construction, the two coloring procedures (and
// the Section 4 coloring's reference loop), the list scheduler, and the
// full combined pipeline. These back the engineering claim that the
// construction is practical: the closure pays one V/64-word row union
// per direct edge not implied by others, O(V^2 * V/64) word steps at
// worst.
//
// A custom main wraps the console reporter so every run also lands in
// BENCH_perf_algorithms.json ("pira.bench" schema) with the
// PIRA_BENCH_SEED in effect recorded, keeping the perf trajectory
// machine-readable across PRs.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "analysis/DependenceGraph.h"
#include "analysis/Webs.h"
#include "core/FalseDependenceGraph.h"
#include "core/ParallelInterferenceGraph.h"
#include "core/PinterAllocator.h"
#include "machine/MachineModel.h"
#include "pipeline/Batch.h"
#include "pipeline/Cache.h"
#include "pipeline/Strategies.h"
#include "pipeline/Tournament.h"
#include "regalloc/ChaitinAllocator.h"
#include "regalloc/InterferenceGraph.h"
#include "regalloc/SpillCost.h"
#include "sched/ListScheduler.h"
#include "workloads/RandomProgram.h"

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

using namespace pira;

namespace {

Function makeBlock(unsigned Instructions) {
  // Block 0 (the block every per-block bench analyzes) holds exactly
  // `Instructions` instructions: two seed defs, the value-producing body,
  // and the trailing branch.
  RandomProgramOptions Opts;
  Opts.InstructionsPerBlock = Instructions > 3 ? Instructions - 3 : 1;
  Opts.Seed = pira::bench::benchSeed(4242);
  Opts.FloatPercent = 40;
  Opts.MemoryPercent = 25;
  return generateRandomProgram(Opts);
}

void BM_DependenceGraph(benchmark::State &State) {
  Function F = makeBlock(static_cast<unsigned>(State.range(0)));
  MachineModel M = MachineModel::rs6000(32);
  for (auto _ : State) {
    DependenceGraph G(F, 0, M);
    benchmark::DoNotOptimize(G.size());
  }
}
BENCHMARK(BM_DependenceGraph)
    ->Arg(32)->Arg(128)->Arg(512)->Arg(1024)->Arg(2048)->Arg(4096);

void BM_TransitiveClosure(benchmark::State &State) {
  // The production path: one descending sweep over the upper-triangular
  // schedule graph, where a direct edge implied by an earlier successor
  // costs a bit test instead of a row union. Compare with
  // BM_TransitiveClosureUnreduced at equal args for the sweep-over-Warshall
  // speedups the CI perf gate tracks.
  Function F = makeBlock(static_cast<unsigned>(State.range(0)));
  MachineModel M = MachineModel::rs6000(32);
  DependenceGraph G(F, 0, M);
  for (auto _ : State) {
    BitMatrix R = G.reachability();
    benchmark::DoNotOptimize(R.count());
  }
}
BENCHMARK(BM_TransitiveClosure)
    ->Arg(32)->Arg(128)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048)->Arg(4096);

void BM_TransitiveClosureUnreduced(benchmark::State &State) {
  // Word-parallel Warshall straight over the adjacency matrix, which
  // closes any relation (the control-flow reachability uses it); kept as
  // the ratio numerator of the closure_reduction_speedup and
  // closure_sweep_speedup gates.
  Function F = makeBlock(static_cast<unsigned>(State.range(0)));
  MachineModel M = MachineModel::rs6000(32);
  DependenceGraph G(F, 0, M);
  for (auto _ : State) {
    BitMatrix R = G.adjacency();
    R.transitiveClosure();
    benchmark::DoNotOptimize(R.count());
  }
}
BENCHMARK(BM_TransitiveClosureUnreduced)
    ->Arg(32)->Arg(128)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048)->Arg(4096);

void BM_TransitiveClosureSetBased(benchmark::State &State) {
  // The pre-rewrite per-node std::set closure, kept as the differential
  // oracle; timed against BM_TransitiveClosure at the same sizes to pin
  // the packed-bitset speedup in BENCH_perf_algorithms.json.
  Function F = makeBlock(static_cast<unsigned>(State.range(0)));
  MachineModel M = MachineModel::rs6000(32);
  DependenceGraph G(F, 0, M);
  BitMatrix Edges(G.size());
  for (const DepEdge &E : G.edges())
    Edges.set(E.From, E.To);
  for (auto _ : State) {
    BitMatrix R = Edges.transitiveClosureSetBased();
    benchmark::DoNotOptimize(R.count());
  }
}
BENCHMARK(BM_TransitiveClosureSetBased)->Arg(32)->Arg(128)->Arg(256)->Arg(512);

void BM_FalseDependenceGraph(benchmark::State &State) {
  Function F = makeBlock(static_cast<unsigned>(State.range(0)));
  MachineModel M = MachineModel::rs6000(32);
  for (auto _ : State) {
    FalseDependenceGraph FDG(F, 0, M);
    benchmark::DoNotOptimize(FDG.parallelPairs().numEdges());
  }
}
BENCHMARK(BM_FalseDependenceGraph)->Arg(32)->Arg(128)->Arg(512);

void BM_PigConstruction(benchmark::State &State) {
  Function F = makeBlock(static_cast<unsigned>(State.range(0)));
  MachineModel M = MachineModel::rs6000(32);
  Webs W(F);
  InterferenceGraph IG(F, W);
  for (auto _ : State) {
    ParallelInterferenceGraph PIG(F, W, IG, M);
    benchmark::DoNotOptimize(PIG.numWebs());
  }
}
BENCHMARK(BM_PigConstruction)->Arg(32)->Arg(128)->Arg(512);

void BM_ChaitinColor(benchmark::State &State) {
  Function F = makeBlock(static_cast<unsigned>(State.range(0)));
  Webs W(F);
  InterferenceGraph IG(F, W);
  std::vector<double> Costs = computeSpillCosts(F, W);
  for (auto _ : State) {
    Allocation A = chaitinColor(IG.graph(), Costs, 16);
    benchmark::DoNotOptimize(A.NumColorsUsed);
  }
}
BENCHMARK(BM_ChaitinColor)->Arg(32)->Arg(128)->Arg(512);

void BM_PinterColor(benchmark::State &State) {
  Function F = makeBlock(static_cast<unsigned>(State.range(0)));
  MachineModel M = MachineModel::rs6000(16);
  Webs W(F);
  InterferenceGraph IG(F, W);
  ParallelInterferenceGraph PIG(F, W, IG, M);
  std::vector<double> Costs = computeSpillCosts(F, W);
  for (auto _ : State) {
    Allocation A = pinterColor(PIG, Costs, 16);
    benchmark::DoNotOptimize(A.NumColorsUsed);
  }
}
BENCHMARK(BM_PinterColor)->Arg(32)->Arg(128)->Arg(512);

void BM_PinterColorReference(benchmark::State &State) {
  // The straightforward Section 4 loop pinterColor must match, on the same
  // input: the numerator of the pinter_color_speedup_128 gate.
  Function F = makeBlock(static_cast<unsigned>(State.range(0)));
  MachineModel M = MachineModel::rs6000(16);
  Webs W(F);
  InterferenceGraph IG(F, W);
  ParallelInterferenceGraph PIG(F, W, IG, M);
  std::vector<double> Costs = computeSpillCosts(F, W);
  for (auto _ : State) {
    Allocation A = pinterColorReference(PIG, Costs, 16);
    benchmark::DoNotOptimize(A.NumColorsUsed);
  }
}
BENCHMARK(BM_PinterColorReference)->Arg(32)->Arg(128)->Arg(512);

void BM_ListScheduler(benchmark::State &State) {
  Function F = makeBlock(static_cast<unsigned>(State.range(0)));
  MachineModel M = MachineModel::rs6000(32);
  for (auto _ : State) {
    FunctionSchedule S = scheduleFunction(F, M);
    benchmark::DoNotOptimize(S.totalMakespan());
  }
}
BENCHMARK(BM_ListScheduler)->Arg(32)->Arg(128)->Arg(512);

void BM_CombinedPipeline(benchmark::State &State) {
  Function F = makeBlock(static_cast<unsigned>(State.range(0)));
  MachineModel M = MachineModel::rs6000(12);
  for (auto _ : State) {
    PipelineResult R = runStrategy(StrategyKind::Combined, F, M);
    benchmark::DoNotOptimize(R.StaticCycles);
  }
}
BENCHMARK(BM_CombinedPipeline)->Arg(32)->Arg(128);

void BM_Oracle(benchmark::State &State) {
  // The exact branch-and-bound search on a tournament-corpus block.
  // Guarded to the small single blocks inside the oracle's envelope —
  // search cost is exponential in principle, so this stays out of the
  // CI perf gate (wildly machine-sensitive) and exists to track the
  // pruning machinery's trajectory offline.
  TournamentOptions TOpts;
  std::vector<BatchItem> Corpus = makeTournamentCorpus(
      1, static_cast<unsigned>(State.range(0)), pira::bench::benchSeed(4242),
      TOpts);
  MachineModel M = MachineModel::paperTwoUnit(8);
  for (auto _ : State) {
    PipelineResult R = runStrategy(StrategyKind::Oracle, Corpus[0].Input, M);
    benchmark::DoNotOptimize(R.StaticCycles);
  }
}
BENCHMARK(BM_Oracle)->Arg(8)->Arg(12)->Arg(16);

/// The 24 functions of the batch benchmarks.
std::vector<BatchItem> makeBatch() {
  std::vector<BatchItem> Batch;
  for (unsigned I = 0; I != 24; ++I) {
    RandomProgramOptions Opts;
    Opts.InstructionsPerBlock = 40;
    Opts.FloatPercent = 40;
    Opts.MemoryPercent = 25;
    Opts.Seed = pira::bench::benchSeed(4242) + I;
    Batch.push_back({"f" + std::to_string(I), generateRandomProgram(Opts)});
  }
  return Batch;
}

void BM_CompileBatch(benchmark::State &State) {
  // 24 functions through the combined pipeline, sharded across
  // State.range(0) workers. Serial-vs-parallel wall clock for
  // compileBatch; on a single-core host all arms degenerate to the Jobs=1
  // time (the determinism guarantee makes the outputs identical either
  // way).
  std::vector<BatchItem> Batch = makeBatch();
  MachineModel M = MachineModel::rs6000(12);
  BatchOptions Opts;
  Opts.Jobs = static_cast<unsigned>(State.range(0));
  Opts.Measure = false;
  for (auto _ : State) {
    BatchResult R = compileBatch(Batch, M, Opts);
    benchmark::DoNotOptimize(R.Succeeded);
  }
}
BENCHMARK(BM_CompileBatch)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_CompileBatchWarmCache(benchmark::State &State) {
  // The same 24-function batch through a pre-filled compilation cache:
  // every item is a memory-tier hit, so the timed loop measures key
  // computation + lookup + entry decode + compileBatch's own bookkeeping
  // instead of compilation. The ratio to BM_CompileBatch/1 is the
  // warm-cache speedup recorded in EXPERIMENTS.md.
  std::vector<BatchItem> Batch = makeBatch();
  MachineModel M = MachineModel::rs6000(12);
  CompilationCache Cache(CacheMode::On);
  BatchOptions Opts;
  Opts.Jobs = 1;
  Opts.Measure = false;
  Opts.Cache = &Cache;
  // Cold fill outside the timed loop.
  compileBatch(Batch, M, Opts);
  for (auto _ : State) {
    BatchResult R = compileBatch(Batch, M, Opts);
    benchmark::DoNotOptimize(R.Succeeded);
  }
}
BENCHMARK(BM_CompileBatchWarmCache)->UseRealTime();

void BM_CacheKey(benchmark::State &State) {
  // Key computation alone for the warm-cache batch: the part of a hit
  // that does not depend on the cache. Its ratio to
  // BM_CompileBatchWarmCache is the CI gate's share of the hit path spent
  // hashing; it falls when lookup, decode or compileBatch slow down, and
  // does not move when compiles get faster.
  std::vector<BatchItem> Batch = makeBatch();
  MachineModel M = MachineModel::rs6000(12);
  BatchOptions Opts;
  Opts.Jobs = 1;
  Opts.Measure = false;
  for (auto _ : State)
    for (const BatchItem &Item : Batch) {
      std::string Key = computeCacheKey(Item.Input, M, Opts);
      benchmark::DoNotOptimize(Key.data());
    }
}
BENCHMARK(BM_CacheKey)->UseRealTime();

/// Forwards to the console reporter while collecting every run into a
/// "pira.bench" JSON document written at exit.
class JsonTeeReporter : public benchmark::ConsoleReporter {
public:
  JsonTeeReporter()
      : Report(pira::bench::makeBenchReport(
            "perf_algorithms", pira::bench::benchIterations(0),
            pira::bench::benchSeed(4242))),
        Results(pira::json::Value::array()) {}

  void ReportRuns(const std::vector<Run> &Runs) override {
    for (const Run &R : Runs) {
      pira::json::Value Row = pira::json::Value::object();
      Row.set("name", R.benchmark_name());
      Row.set("iterations", static_cast<int64_t>(R.iterations));
      Row.set("real_time_ns", R.GetAdjustedRealTime());
      Row.set("cpu_time_ns", R.GetAdjustedCPUTime());
      if (R.error_occurred)
        Row.set("error", R.error_message);
      Results.push(std::move(Row));
    }
    ConsoleReporter::ReportRuns(Runs);
  }

  void Finalize() override {
    Report.set("results", std::move(Results));
    pira::bench::writeBenchReport("perf_algorithms", Report);
    ConsoleReporter::Finalize();
  }

private:
  pira::json::Value Report;
  pira::json::Value Results;
};

} // namespace

int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  JsonTeeReporter Reporter;
  benchmark::RunSpecifiedBenchmarks(&Reporter);
  benchmark::Shutdown();
  return 0;
}
