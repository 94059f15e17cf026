//===- pipeline/Batch.cpp - Parallel batch-compilation driver -------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//

#include "pipeline/Batch.h"

#include "machine/MachineModel.h"
#include "pipeline/Cache.h"
#include "pipeline/Report.h"
#include "support/FaultInjection.h"
#include "support/Parallel.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>

#include <unistd.h>

using namespace pira;

PIRA_STAT(NumBatchesCompiled, "Batch compilations driven");
PIRA_STAT(NumBatchItemsCompiled, "Functions compiled via compileBatch");
PIRA_STAT(NumGuardedCompiles, "Functions run through the compile guard");
PIRA_STAT(NumBudgetRejections, "Functions rejected by the resource budget");
PIRA_STAT(NumDegradedFunctions,
          "Functions rescued by a lower ladder rung than requested");
PIRA_STAT(NumFailedFunctions, "Functions that failed every ladder rung");
PIRA_STAT(NumCapturedTaskExceptions,
          "Phase exceptions captured by the compile guard");

/// Marks \p R failed with both the legacy string and the structured
/// diagnostic (the Strategies-side twin is file-static).
static void failResult(PipelineResult &R, Status S) {
  R.Success = false;
  R.Error = S.toString();
  R.Diag = std::move(S);
}

/// One ladder rung under the guard: arms the watchdog, runs the
/// strategy, and converts anything thrown into a structured failure.
static PipelineResult runRungGuarded(StrategyKind Kind, const Function &Input,
                                     const MachineModel &Machine,
                                     const BatchOptions &Opts) {
  PipelineResult R;
  try {
    deadline::ScopedDeadline Watchdog(Opts.Budget.DeadlineMs);
    R = Opts.Measure
            ? runAndMeasure(Kind, Input, Machine, Opts.Pinter, Opts.Seed,
                            Opts.Oracle)
            : runStrategy(Kind, Input, Machine, Opts.Pinter, Opts.Oracle);
  } catch (const faultinject::FaultInjectedError &E) {
    ++NumCapturedTaskExceptions;
    failResult(R, Status::error(ErrorCode::FaultInjected, "guard", E.what()));
  } catch (const deadline::DeadlineExceededError &) {
    ++NumCapturedTaskExceptions;
    failResult(R, Status::error(
                      ErrorCode::DeadlineExceeded, "guard",
                      "watchdog deadline exceeded (budget " +
                          std::to_string(Opts.Budget.DeadlineMs) + " ms)"));
  } catch (const std::exception &E) {
    ++NumCapturedTaskExceptions;
    failResult(R, Status::error(ErrorCode::Internal, "guard",
                                std::string("unhandled exception: ") +
                                    E.what()));
  } catch (...) {
    ++NumCapturedTaskExceptions;
    failResult(R, Status::error(ErrorCode::Internal, "guard",
                                "unhandled non-standard exception"));
  }
  return R;
}

GuardedResult pira::compileFunctionGuarded(const Function &Input,
                                           const MachineModel &Machine,
                                           const BatchOptions &Opts) {
  PIRA_TIME_SCOPE("batch/guarded-compile");
  ++NumGuardedCompiles;
  GuardedResult Out;
  Out.Outcome.Requested = strategyName(Opts.Strategy);
  std::string FnFrame = "function @" + Input.name();

  // Budget gate: reject oversized inputs before any phase burns time on
  // them. Deterministic — a pure function of the input.
  bool InjectedBudget = faultinject::shouldFire("budget.instructions");
  uint64_t Insts = Input.totalInstructions();
  if (InjectedBudget ||
      (Opts.Budget.MaxInstructions != 0 &&
       Insts > Opts.Budget.MaxInstructions)) {
    ++NumBudgetRejections;
    Status S =
        InjectedBudget
            ? Status::error(ErrorCode::FaultInjected, "budget",
                            "injected instruction-budget overrun")
            : Status::error(ErrorCode::ResourceExhausted, "budget",
                            std::to_string(Insts) +
                                " instructions exceed the budget of " +
                                std::to_string(Opts.Budget.MaxInstructions));
    S.addContext(FnFrame);
    failResult(Out.Result, std::move(S));
    return Out;
  }
  if (Opts.Budget.MaxBlocks != 0 && Input.numBlocks() > Opts.Budget.MaxBlocks) {
    ++NumBudgetRejections;
    Status S = Status::error(
        ErrorCode::ResourceExhausted, "budget",
        std::to_string(Input.numBlocks()) +
            " blocks exceed the budget of " +
            std::to_string(Opts.Budget.MaxBlocks));
    S.addContext(FnFrame);
    failResult(Out.Result, std::move(S));
    return Out;
  }

  // The degradation ladder: requested strategy first, then Chaitin on
  // the plain interference graph, then the spill-everywhere baseline.
  std::vector<StrategyKind> Rungs = {Opts.Strategy};
  if (Opts.Degrade) {
    if (Opts.Strategy != StrategyKind::AllocFirst &&
        Opts.Strategy != StrategyKind::SpillAll)
      Rungs.push_back(StrategyKind::AllocFirst);
    if (Opts.Strategy != StrategyKind::SpillAll)
      Rungs.push_back(StrategyKind::SpillAll);
  }

  for (unsigned I = 0; I != Rungs.size(); ++I) {
    PipelineResult R = runRungGuarded(Rungs[I], Input, Machine, Opts);
    R.Diag.addContext("rung " + std::string(strategyName(Rungs[I])));
    R.Diag.addContext(FnFrame);
    Out.Outcome.Used = strategyName(Rungs[I]);
    Out.Outcome.Rung = I;
    if (R.Success) {
      Out.Outcome.Degraded = I != 0;
      if (Out.Outcome.Degraded)
        ++NumDegradedFunctions;
      Out.Result = std::move(R);
      return Out;
    }
    // A blown deadline or budget would blow again on a retry that
    // starts from the same input; stop the ladder there.
    bool Fatal = R.Diag.code() == ErrorCode::DeadlineExceeded ||
                 R.Diag.code() == ErrorCode::ResourceExhausted;
    Out.Outcome.FailedAttempts.push_back(
        {std::string(strategyName(Rungs[I])), R.Diag});
    Out.Result = std::move(R);
    if (Fatal)
      break;
  }
  ++NumFailedFunctions;
  return Out;
}

namespace {

/// The --progress stderr line. Purely cosmetic: it reads the finished
/// slots and the cache tallies, never influences them, and is rate
/// limited so a fast batch doesn't drown stderr. On a terminal the line
/// redraws in place (CR + clear-to-EOL); piped stderr gets occasional
/// whole lines instead so logs stay readable.
class ProgressMeter {
public:
  ProgressMeter(bool Enabled, size_t Total, const CompilationCache *Cache)
      : Enabled(Enabled && Total > 0), Total(Total), Cache(Cache),
        IsTty(::isatty(STDERR_FILENO) != 0),
        StartNs(telemetry::monotonicNowNs()),
        LastEmitNs(0) {}

  void tick(const PipelineResult &P, const CompileOutcome &O) {
    if (!Enabled)
      return;
    Done.fetch_add(1, std::memory_order_relaxed);
    if (!P.Success)
      Failed.fetch_add(1, std::memory_order_relaxed);
    if (O.Degraded)
      Degraded.fetch_add(1, std::memory_order_relaxed);
    maybeEmit(/*Final=*/false);
  }

  void finish() {
    if (Enabled)
      maybeEmit(/*Final=*/true);
  }

private:
  void maybeEmit(bool Final) {
    uint64_t Now = telemetry::monotonicNowNs();
    if (!Final) {
      uint64_t Interval = IsTty ? 100'000'000ull : 1'000'000'000ull;
      uint64_t Last = LastEmitNs.load(std::memory_order_relaxed);
      if (Now - Last < Interval ||
          !LastEmitNs.compare_exchange_strong(Last, Now,
                                              std::memory_order_relaxed))
        return;
    }
    std::lock_guard<std::mutex> Lock(EmitMutex);
    ProgressSnapshot S;
    S.Done = Done.load(std::memory_order_relaxed);
    S.Total = Total;
    S.Failed = Failed.load(std::memory_order_relaxed);
    S.Degraded = Degraded.load(std::memory_order_relaxed);
    if (Cache != nullptr) {
      CompilationCache::Stats CS = Cache->stats();
      S.HasCache = true;
      S.CacheHits = CS.MemoryHits + CS.DiskHits;
      S.CacheLookups = S.CacheHits + CS.Misses;
    }
    S.ElapsedS = static_cast<double>(Now - StartNs) / 1e9;
    std::string Line = formatProgressLine(S);
    if (IsTty) {
      // Redraw in place; the final emission commits the line.
      std::fputs(("\r" + Line + "\x1b[K").c_str(), stderr);
      if (Final)
        std::fputc('\n', stderr);
    } else {
      std::fputs((Line + "\n").c_str(), stderr);
    }
    std::fflush(stderr);
  }

  bool Enabled;
  size_t Total;
  const CompilationCache *Cache;
  bool IsTty;
  uint64_t StartNs;
  std::atomic<uint64_t> LastEmitNs;
  std::atomic<uint64_t> Done{0};
  std::atomic<uint64_t> Failed{0};
  std::atomic<uint64_t> Degraded{0};
  std::mutex EmitMutex;
};

} // namespace

std::string pira::formatProgressLine(const ProgressSnapshot &S) {
  std::string Line = "pirac: " + std::to_string(S.Done) + "/" +
                     std::to_string(S.Total) + " done";
  Line += ", " + std::to_string(S.Failed) + " failed";
  Line += ", " + std::to_string(S.Degraded) + " degraded";
  if (S.HasCache && S.CacheLookups != 0) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.1f",
                  100.0 * static_cast<double>(S.CacheHits) /
                      static_cast<double>(S.CacheLookups));
    Line += std::string(" | cache ") + Buf + "%";
  }
  // Both divisions below need Done > 0 and a positive elapsed time; the
  // first tick of a fast batch can land at elapsed == 0 (clock
  // granularity), where a rate would print "inf" and the ETA "nan".
  if (S.Done != 0 && S.ElapsedS > 0.0) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.1f",
                  static_cast<double>(S.Done) / S.ElapsedS);
    Line += std::string(" | ") + Buf + "/s";
    if (S.Done < S.Total) {
      double Eta = S.ElapsedS / static_cast<double>(S.Done) *
                   static_cast<double>(S.Total - S.Done);
      std::snprintf(Buf, sizeof(Buf), "%.1f", Eta);
      Line += std::string(" | eta ") + Buf + "s";
    }
  }
  return Line;
}

/// Recomputes every aggregate field of \p R (Succeeded, Failed,
/// Degraded, the Total* sums) from Results and Outcomes, walking them in
/// input order.
static void finalizeBatchAggregates(BatchResult &R) {
  R.Succeeded = R.Failed = R.Degraded = 0;
  R.TotalRegistersUsed = R.TotalSpilledWebs = R.TotalSpillInstructions = 0;
  R.TotalFalseDeps = R.TotalStaticCycles = 0;
  R.TotalDynCycles = R.TotalDynInstructions = 0;
  for (size_t I = 0; I != R.Results.size(); ++I) {
    const PipelineResult &P = R.Results[I];
    if (!P.Success) {
      ++R.Failed;
      continue;
    }
    ++R.Succeeded;
    if (R.Outcomes[I].Degraded)
      ++R.Degraded;
    R.TotalRegistersUsed = std::max(R.TotalRegistersUsed, P.RegistersUsed);
    R.TotalSpilledWebs += P.SpilledWebs;
    R.TotalSpillInstructions += P.SpillInstructions;
    R.TotalFalseDeps += P.FalseDeps;
    R.TotalStaticCycles += P.StaticCycles;
    R.TotalDynCycles += P.DynCycles;
    R.TotalDynInstructions += P.DynInstructions;
  }
}

BatchResult pira::compileBatch(const std::vector<BatchItem> &Batch,
                               const MachineModel &Machine,
                               const BatchOptions &Opts) {
  // The whole-batch span is recorded by hand at the end rather than as
  // a TimeScope: a live scope on the caller's thread would prefix the
  // event paths of the items the caller runs but not the other threads',
  // and the trace contract is that the event set does not depend on the
  // thread count.
  uint64_t BatchStartNs = telemetry::monotonicNowNs();
  ++NumBatchesCompiled;
  NumBatchItemsCompiled += Batch.size();

  BatchResult R;
  R.Results.resize(Batch.size());
  R.Outcomes.resize(Batch.size());

  auto Compile = [&](unsigned I) {
    return compileFunctionGuarded(Batch[I].Input, Machine, Opts);
  };

  auto Land = [&](unsigned I, GuardedResult G) {
    R.Results[I] = std::move(G.Result);
    R.Outcomes[I] = std::move(G.Outcome);
  };

  auto CompileOne = [&](unsigned I) {
    // Each slot is written by exactly one worker; the MachineModel and
    // the inputs are read-only. runStrategy copies the function, so the
    // item itself is never mutated. The fault key is the input position,
    // so injected faults hit the same functions for any worker count.
    faultinject::ScopedKey Key(I);

    // Cache lookup precedes the compile guard: a hit stands in for the
    // entire guarded compile (it was inserted by one, and only clean
    // non-degraded successes ever are). The key must be computed under
    // the scoped fault key — armed faults are part of it.
    CompilationCache *Cache = Opts.Cache;
    std::string CacheKey;
    if (Cache != nullptr && Cache->mode() != CacheMode::Off) {
      CacheKey = computeCacheKey(Batch[I].Input, Machine, Opts);
      std::string CachedSerialized;
      std::optional<PipelineResult> Hit =
          Cache->lookup(CacheKey, &CachedSerialized);
      if (Hit) {
        if (Cache->mode() == CacheMode::On) {
          GuardedResult G;
          G.Result = std::move(*Hit);
          G.Outcome.Requested = strategyName(Opts.Strategy);
          G.Outcome.Used = G.Outcome.Requested;
          Land(I, std::move(G));
          return;
        }
        // Verify mode: recompile anyway and hold the entry to byte
        // identity. The fresh result wins either way, so a poisoned
        // cache can flag but never corrupt a verify run.
        GuardedResult G = Compile(I);
        bool Matches =
            G.Result.Success && !G.Outcome.Degraded &&
            encodeCacheEntry(G.Result, CacheKey).toString(-1) ==
                CachedSerialized;
        if (!Matches)
          Cache->noteVerifyMismatch();
        Land(I, std::move(G));
        return;
      }
    }

    GuardedResult G = Compile(I);
    // Never cache degraded or failed functions: they must re-walk the
    // ladder (and re-surface their diagnostics) on every run.
    if (!CacheKey.empty() && G.Result.Success && !G.Outcome.Degraded)
      Cache->insert(CacheKey, G.Result);
    Land(I, std::move(G));
  };

  ProgressMeter Progress(Opts.Progress, Batch.size(), Opts.Cache);
  // Slot I is fully written when CompileOne(I) returns, so the meter may
  // read its own item's result without racing other workers.
  auto CompileOneTicked = [&](unsigned I) {
    CompileOne(I);
    Progress.tick(R.Results[I], R.Outcomes[I]);
  };

  R.JobsUsed = parallelFor(static_cast<unsigned>(Batch.size()), Opts.Jobs,
                           CompileOneTicked);
  Progress.finish();

  if (telemetry::enabled()) {
    telemetry::TimedEvent Span;
    Span.Path = "batch/compile";
    Span.Label = "batch/compile";
    Span.StartNs = BatchStartNs;
    Span.DurationNs = telemetry::monotonicNowNs() - BatchStartNs;
    Span.ThreadId = 0; // compileBatch runs on the driver's main thread
    Span.Depth = 0;
    telemetry::recordEvent(std::move(Span));
  }

  // Deterministic merge: aggregates walk the results in input order, and
  // every aggregated field came from a computation independent of worker
  // scheduling.
  finalizeBatchAggregates(R);
  return R;
}

/// Serializes one ladder record ({"requested", "used", "rung",
/// "attempts": [{"rung", "diagnostic"}]}).
static json::Value outcomeToJson(const CompileOutcome &O) {
  json::Value Out = json::Value::object();
  Out.set("requested", O.Requested);
  Out.set("used", O.Used);
  Out.set("rung", O.Rung);
  json::Value Attempts = json::Value::array();
  for (const CompileAttempt &A : O.FailedAttempts) {
    json::Value One = json::Value::object();
    One.set("rung", A.Rung);
    One.set("diagnostic", A.Diag.toJson());
    Attempts.push(std::move(One));
  }
  Out.set("attempts", std::move(Attempts));
  return Out;
}

json::Value pira::makeBatchStatsReport(
    const BatchResult &R, const std::vector<BatchItem> &Batch,
    const std::string &Strategy, const MachineModel &Machine,
    const std::vector<BatchFailure> &InputFailures,
    const CompilationCache *Cache) {
  json::Value Root = beginStatsReport(Strategy, Machine);

  // Callers that assembled a BatchResult by hand may not have outcome
  // records; the report degrades to the pre-ladder shape then.
  bool HaveOutcomes = R.Outcomes.size() == R.Results.size();

  json::Value Functions = json::Value::array();
  for (size_t I = 0; I != R.Results.size(); ++I) {
    json::Value One = json::Value::object();
    One.set("name", I < Batch.size() ? Batch[I].Name : std::string());
    One.set("pipeline", pipelineResultToJson(R.Results[I]));
    if (HaveOutcomes && (R.Outcomes[I].Rung != 0 ||
                         !R.Outcomes[I].FailedAttempts.empty()))
      One.set("degradation", outcomeToJson(R.Outcomes[I]));
    Functions.push(std::move(One));
  }
  Root.set("functions", std::move(Functions));

  json::Value Agg = json::Value::object();
  Agg.set("items", static_cast<uint64_t>(R.Results.size()));
  Agg.set("succeeded", R.Succeeded);
  Agg.set("failed", R.Failed + static_cast<unsigned>(InputFailures.size()));
  Agg.set("degraded", R.Degraded);
  Agg.set("max_registers_used", R.TotalRegistersUsed);
  Agg.set("spilled_webs", R.TotalSpilledWebs);
  Agg.set("spill_instructions", R.TotalSpillInstructions);
  Agg.set("false_deps", R.TotalFalseDeps);
  Agg.set("static_cycles", R.TotalStaticCycles);
  Agg.set("dyn_cycles", R.TotalDynCycles);
  Agg.set("dyn_instructions", R.TotalDynInstructions);
  Root.set("batch", std::move(Agg));

  // Failures: inputs that never compiled first (they precede the batch
  // in pipeline order), then every function that failed all its rungs.
  json::Value Failures = json::Value::array();
  for (const BatchFailure &F : InputFailures) {
    json::Value One = json::Value::object();
    One.set("name", F.Name);
    One.set("diagnostic", F.Diag.toJson());
    Failures.push(std::move(One));
  }
  for (size_t I = 0; I != R.Results.size(); ++I) {
    if (R.Results[I].Success)
      continue;
    json::Value One = json::Value::object();
    One.set("name", I < Batch.size() ? Batch[I].Name : std::string());
    One.set("diagnostic", R.Results[I].Diag.toJson());
    Failures.push(std::move(One));
  }
  Root.set("failures", std::move(Failures));

  json::Value Degradations = json::Value::array();
  if (HaveOutcomes)
    for (size_t I = 0; I != R.Results.size(); ++I) {
      if (!R.Outcomes[I].Degraded)
        continue;
      json::Value One = json::Value::object();
      One.set("name", I < Batch.size() ? Batch[I].Name : std::string());
      One.set("ladder", outcomeToJson(R.Outcomes[I]));
      Degradations.push(std::move(One));
    }
  Root.set("degradations", std::move(Degradations));

  if (Cache != nullptr)
    Root.set("cache", Cache->statsToJson());
  endStatsReport(Root);
  return Root;
}
