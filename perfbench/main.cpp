//===- perfbench/main.cpp - The PIRA benchmark driver ---------------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//
//
// Usage:
//   pirabench --workload ladder|kernels|rebuild --seed N --seconds S
//             --trace 0|1 [--out-dir DIR]
//
// Runs one workload through the library's public entry points
// (runAndMeasure, compileBatch) for S seconds, checks every output, and
// prints the end-to-end metrics (--trace 0) or, from a separate traced
// replay of the same compiles, the per-layer metrics (--trace 1). The last
// line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// Any wrong output makes the exit code 1. README.md in this directory
// maps every metric to the functions it times.
//
//===----------------------------------------------------------------------===//

#include "Replay.h"
#include "Trace.h"

#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "machine/MachineModel.h"
#include "pipeline/Batch.h"
#include "pipeline/Cache.h"
#include "pipeline/Strategies.h"
#include "support/Hash.h"
#include "support/Rng.h"
#include "workloads/Kernels.h"
#include "workloads/RandomProgram.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

using namespace pira;
using namespace pirabench;

namespace {

/// A seed not used while the benchmark was built; see README.md.
constexpr uint64_t HeldOutSeed = 20261017;

/// The p90 needs at least ten samples beyond it.
constexpr size_t MinSamples = 110;

/// compile_insts_per_s takes each request at its median pass. A fixed
/// floor on the passes keeps that median from resting on one or two
/// timings of the longest requests.
constexpr unsigned MinPasses = 3;

/// Traced passes per run: enough to average the per-layer numbers, and a
/// bound on the spans kept in memory.
constexpr unsigned MaxTracedPasses = 16;

/// No new pass starts after this many seconds, so a run on a slow host
/// still ends within three minutes.
constexpr double HardStopSeconds = 120.0;

/// Timed setups per run; setup_s is their median.
constexpr unsigned SetupRepeats = 7;

uint64_t mixSeed(uint64_t Seed, uint64_t Tag) {
  uint64_t Z = Seed + 0x9E3779B97F4A7C15ull * (Tag + 1);
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

double seconds(uint64_t Ns) { return static_cast<double>(Ns) * 1e-9; }

unsigned hostCpus() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return std::max(1, CPU_COUNT(&Set));
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Digest of everything a compile produces: final and symbolic code, the
/// schedule, and every reported statistic.
std::string digestOf(const PipelineResult &R) {
  return hash::Sha256::hashHex(encodeCacheEntry(R, "").toString(-1));
}

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// The host's speed over a run. On a shared host a core's speed swings by
/// up to half within seconds and drifts by 20-30% over minutes as other
/// tenants load the machine, and every timing of a run swings with it. So
/// a fixed slice of work that makes no call into the library is timed
/// between requests throughout the run, and each end-to-end timing is
/// reported at a nominal host speed: scaled by NominalSliceNs over the
/// median of the slices timed nearest to it. A change to the library does
/// not change the slice, so the scaling removes the host's swings and
/// keeps the code's own cost.
class HostSpeed {
public:
  static constexpr double NominalSliceNs = 0.5e6;

  /// A workload that compiles on \p Threads threads at once is scaled by
  /// that many threads sharing 2 * \p Threads slices, as compileBatch's
  /// threads share a submission, so that the scaling also follows how
  /// many cores the host lets it have.
  explicit HostSpeed(unsigned Threads) : Threads(Threads) {}

  /// Times one slice if at least IntervalNs passed since the last one.
  void maybeSample() {
    if (nowNs() - LastNs >= IntervalNs)
      sample();
  }

  void sample() {
    uint64_t Start = nowNs();
    std::atomic<unsigned> Next = 0;
    auto Work = [&] {
      while (Next++ < 2 * Threads)
        Sink += slice();
    };
    std::vector<std::thread> Others;
    for (unsigned I = 1; I < Threads; ++I)
      Others.emplace_back(Work);
    Work();
    for (std::thread &T : Others)
      T.join();
    LastNs = nowNs();
    // The first slice pays for page faults and cold caches.
    if (Warm)
      Slices.push_back({Start + (LastNs - Start) / 2, LastNs - Start});
    Warm = true;
  }

  /// The factor that converts a wall time of \p Ns centred on \p MidNs
  /// to the nominal host's time: NominalSliceNs over the median of the
  /// slices timed within \p Ns of either end of it, or of the Nearest
  /// slices if those are more. A short request is scaled by the host's
  /// speed of the moment; a long one, over which the swings average out,
  /// by its speed over a span three times as long.
  double scaleFor(uint64_t MidNs, uint64_t Ns) const {
    auto IndexOf = [&](uint64_t T) {
      return static_cast<size_t>(
          std::lower_bound(
              Slices.begin(), Slices.end(), T,
              [](const Slice &S, uint64_t T) { return S.MidNs < T; }) -
          Slices.begin());
    };
    size_t At = IndexOf(MidNs);
    size_t First = At > Nearest / 2 ? At - Nearest / 2 : 0;
    size_t Last = std::min(First + Nearest, Slices.size());
    First = Last > Nearest ? Last - Nearest : 0;
    uint64_t Reach = Ns + Ns / 2;
    size_t Lo = IndexOf(MidNs > Reach ? MidNs - Reach : 0),
           Hi = IndexOf(MidNs + Reach);
    if (Hi - Lo > Last - First) {
      First = Lo;
      Last = Hi;
    }
    std::vector<double> SliceNs;
    for (size_t I = First; I != Last; ++I)
      SliceNs.push_back(static_cast<double>(Slices[I].Ns));
    return NominalSliceNs / median(std::move(SliceNs));
  }

  /// Median time of one slice over the run, in ns.
  double sliceNs() const {
    std::vector<double> Ns;
    for (const Slice &S : Slices)
      Ns.push_back(static_cast<double>(S.Ns));
    return median(std::move(Ns));
  }

  size_t samples() const { return Slices.size(); }

private:
  static constexpr uint64_t IntervalNs = 8'000'000;
  /// Slices a timing is scaled by: half before it, half after.
  static constexpr size_t Nearest = 16;

  /// Work of the kinds a compiler does: reachability over bit sets on a
  /// random DAG, map updates and a sort, on a working set of some 40 KiB.
  /// A slice (two of these) takes about 0.55 ms on a 2.1 GHz Xeon. The
  /// host's swings slow it as they slow a compile; pure arithmetic, or a
  /// working set of megabytes, tracked them less closely.
  static uint64_t slice() {
    uint64_t X = 88172645463325252ull, Acc = 0;
    auto Next = [&] {
      X ^= X << 13;
      X ^= X >> 7;
      X ^= X << 17;
      return X;
    };
    constexpr unsigned N = 64, Words = (N + 63) / 64;
    std::vector<std::vector<unsigned>> Succ(N);
    for (unsigned I = 0; I != N; ++I)
      for (unsigned K = 0; K != 4; ++K)
        if (unsigned J = I + 1 + Next() % 20; J < N)
          Succ[I].push_back(J);
    std::vector<uint64_t> Reach(N * Words);
    for (unsigned I = N; I-- > 0;)
      for (unsigned J : Succ[I]) {
        Reach[I * Words + J / 64] |= 1ull << (J % 64);
        for (unsigned W = 0; W != Words; ++W)
          Reach[I * Words + W] |= Reach[J * Words + W];
      }
    for (uint64_t W : Reach)
      Acc += static_cast<uint64_t>(__builtin_popcountll(W));
    std::map<uint64_t, uint64_t> Map;
    std::vector<uint64_t> Keys;
    for (unsigned I = 0; I != 2000; ++I) {
      uint64_t K = Next() % 600;
      Map[K] += I;
      Keys.push_back(K * 31 + I);
    }
    std::sort(Keys.begin(), Keys.end());
    for (const auto &[K, V] : Map)
      Acc += K ^ V;
    return Acc + Keys[Keys.size() / 2];
  }

  struct Slice {
    uint64_t MidNs, Ns;
  };
  std::vector<Slice> Slices;
  uint64_t LastNs = 0;
  bool Warm = false;
  unsigned Threads;
  std::atomic<uint64_t> Sink = 0;
};

/// One timed request or set-up: its wall time, the moment halfway
/// through it, and the request's index in the pass. Kept small, and kept
/// in a deque, so that the benchmark's own records add to peak_rss_mb in
/// proportion to the requests timed, not in a doubling that a slower host
/// may or may not trigger.
struct Timing {
  uint64_t MidNs;
  float WallMs;
  uint32_t Index;

  /// Records a wall time of \p Ns that ended just now.
  static Timing endingNow(uint64_t Ns, size_t Index = 0) {
    return {nowNs() - Ns / 2,
            static_cast<float>(static_cast<double>(Ns) * 1e-6),
            static_cast<uint32_t>(Index)};
  }

  /// Milliseconds at the nominal host speed, or wall milliseconds when
  /// \p Speed is null.
  double ms(const HostSpeed *Speed) const {
    return Speed != nullptr
               ? WallMs * Speed->scaleFor(
                              MidNs, static_cast<uint64_t>(WallMs * 1e6))
               : WallMs;
  }
};

/// Work and correctness record of a run.
struct Tally {
  std::deque<Timing> Latencies; ///< One per untraced request.
  std::vector<uint64_t> InstsOf; ///< Input instructions of each request.
  uint64_t Attempted = 0;        ///< Functions compiled and checked.
  uint64_t Failed = 0;
  std::vector<std::string> Errors;
  /// First digest seen per input; every later compile must match it.
  std::map<std::string, std::string> Digests;
  /// Sampled between untraced requests when set.
  HostSpeed *Speed = nullptr;

  /// Records one untraced latency of request \p Index of the pass, which
  /// ended just now.
  void time(size_t Index, uint64_t Ns, uint64_t Insts) {
    Latencies.push_back(Timing::endingNow(Ns, Index));
    if (Index >= InstsOf.size())
      InstsOf.resize(Index + 1);
    InstsOf[Index] = Insts;
    if (Speed != nullptr)
      Speed->maybeSample();
  }

  void fail(const std::string &What) {
    ++Failed;
    if (Errors.size() < 10)
      Errors.push_back(What);
  }

  /// Counts one compile of \p Input and fails it if it did not succeed
  /// or its digest differs from the input's first one.
  void check(const std::string &Input, const PipelineResult &R,
             bool Degraded = false) {
    ++Attempted;
    if (!R.Success || !R.SemanticsPreserved || Degraded) {
      fail(Input + ": " + (Degraded ? std::string("degraded") : R.Error));
      return;
    }
    std::string D = digestOf(R);
    auto [It, New] = Digests.emplace(Input, D);
    if (!New && It->second != D)
      fail(Input + ": output digest changed");
  }
};

/// Quality of the generated code over one pass.
struct Quality {
  uint64_t DynCycles = 0;
  uint64_t SpillInsts = 0;
  uint64_t FalseDeps = 0;

  void add(const PipelineResult &R) {
    DynCycles += R.DynCycles;
    SpillInsts += R.SpillInstructions;
    FalseDeps += R.FalseDeps;
  }
  bool operator==(const Quality &) const = default;
};

/// One workload: a fixed pass of requests built from the seed.
class Workload {
public:
  virtual ~Workload() = default;

  /// Generates the inputs, builds the machines, fills caches and warms
  /// up. Everything before timing starts.
  virtual void setup(uint64_t Seed) = 0;

  /// Runs one untraced pass, timing each request into \p T and appending
  /// each request's latency to \p RequestNs.
  virtual Quality runPass(Tally &T, std::vector<uint64_t> &RequestNs) = 0;

  /// Replays the same pass with spans; request I of the pass gets request
  /// id \p FirstId + I. Fidelity failures are counted in \p T.
  virtual void tracedPass(Tracer &Tr, Tally &T, uint64_t FirstId) = 0;

  /// Worker threads a request may use (1 for serial workloads).
  virtual unsigned jobs() const { return 1; }
};

/// Times one runAndMeasure per request: `ladder` and `kernels`.
class FunctionWorkload : public Workload {
public:
  Quality runPass(Tally &T, std::vector<uint64_t> &RequestNs) override {
    Quality Q;
    for (size_t I = 0; I != Jobs.size(); ++I) {
      const Job &J = Jobs[I];
      uint64_t Start = nowNs();
      PipelineResult R = runAndMeasure(J.Kind, J.Input, Machines[J.Machine],
                                       {}, SimSeed);
      uint64_t Ns = nowNs() - Start;
      RequestNs.push_back(Ns);
      T.time(I, Ns, J.Input.totalInstructions());
      T.check(J.Name, R);
      Q.add(R);
    }
    return Q;
  }

  void tracedPass(Tracer &Tr, Tally &T, uint64_t FirstId) override {
    for (size_t I = 0; I != Jobs.size(); ++I) {
      const Job &J = Jobs[I];
      const MachineModel &M = Machines[J.Machine];
      std::vector<Function> PigInputs;
      Tr.setRequest(FirstId + I);
      PipelineResult R = Tr.span("request", [&] {
        return replayRunAndMeasure(J.Kind, J.Input, M, SimSeed, Tr,
                                   PigInputs);
      });
      Tr.span("separate",
              [&] { replayDependenceGraphs(PigInputs, M, Tr); });
      // The digest covers the final code, dyn_cycles and the dropped
      // edge count: the replay must reproduce the untraced call exactly.
      T.check(J.Name, R);
    }
  }

protected:
  /// Compiles \p Count jobs, cycling through the pass, untimed.
  void warmUp(size_t Count) {
    for (size_t I = 0; I != Count; ++I) {
      const Job &J = Jobs[I % Jobs.size()];
      runAndMeasure(J.Kind, J.Input, Machines[J.Machine], {}, SimSeed);
    }
  }

  struct Job {
    std::string Name;
    Function Input;
    unsigned Machine;
    StrategyKind Kind;
  };
  std::vector<MachineModel> Machines;
  std::vector<Job> Jobs;
  uint64_t SimSeed = 0;
};

/// Straight-line random blocks on a ladder of sizes, combined strategy
/// on rs6000(12).
class LadderWorkload : public FunctionWorkload {
public:
  void setup(uint64_t Seed) override {
    // Block 0 of each input holds exactly Size instructions, as in
    // perf_algorithms' makeBlock. The 256 rung costs seconds per compile,
    // so the larger a rung, the fewer distinct inputs it gets; the counts
    // put the p50 inside the 32 rung and the p90 inside the 64 rung.
    constexpr struct {
      unsigned Size, Count;
    } Rungs[] = {{32, 384}, {64, 64}, {128, 4}, {256, 1}};
    Machines = {MachineModel::rs6000(12)};
    SimSeed = Seed;
    Jobs.clear();
    for (const auto &Rung : Rungs)
      for (unsigned I = 0; I != Rung.Count; ++I) {
        RandomProgramOptions O;
        O.InstructionsPerBlock = Rung.Size - 3;
        O.FloatPercent = 40;
        O.MemoryPercent = 25;
        O.Seed = mixSeed(Seed, Rung.Size * 1000 + I);
        Jobs.push_back({"ladder/" + std::to_string(Rung.Size) + "/" +
                            std::to_string(I),
                        generateRandomProgram(O), 0, StrategyKind::Combined});
      }
    warmUp(32);
  }
};

/// The 16 standard kernels under four strategies on three machines with
/// 16 registers.
class KernelsWorkload : public FunctionWorkload {
public:
  void setup(uint64_t Seed) override {
    Machines = {MachineModel::paperTwoUnit(16), MachineModel::rs6000(16),
                MachineModel::vliw4(16)};
    const StrategyKind Kinds[] = {
        StrategyKind::Combined, StrategyKind::IntegratedPrepass,
        StrategyKind::SchedFirst, StrategyKind::AllocFirst};
    SimSeed = Seed;
    Jobs.clear();
    for (auto &[Name, F] : standardKernelSuite())
      for (StrategyKind K : Kinds)
        for (unsigned M = 0; M != Machines.size(); ++M)
          Jobs.push_back({Name + "/" + strategyName(K) + "/" +
                              Machines[M].name(),
                          F, M, K});
    // The seed fixes the request order and the simulated initial state.
    Rng R(mixSeed(Seed, 1));
    for (size_t I = Jobs.size(); I > 1; --I)
      std::swap(Jobs[I - 1], Jobs[R.nextBelow(I)]);
    warmUp(3 * Jobs.size());
  }
};

/// Rebuild submissions through compileBatch with a memory cache: half of
/// each submission repeats earlier functions, half is new.
class RebuildWorkload : public Workload {
public:
  void setup(uint64_t Seed) override {
    constexpr unsigned Prefilled = 32, SubmissionsPerPass = 48,
                       Repeats = 8, Fresh = 8;
    const CfgShape Shapes[] = {CfgShape::Straight, CfgShape::Diamond,
                               CfgShape::NestedDiamond, CfgShape::Loop,
                               CfgShape::DoubleLoop};
    Opts = BatchOptions();
    Opts.Strategy = StrategyKind::Combined;
    Opts.Jobs = std::min(4u, hostCpus());
    Opts.Seed = Seed;
    Rng R(mixSeed(Seed, 2));
    Sources.clear();
    auto AddSource = [&] {
      RandomProgramOptions O;
      // Every pass holds the same mix of shapes and block sizes; the seed
      // varies only the programs' contents.
      size_t K = Sources.size();
      O.Shape = Shapes[K % std::size(Shapes)];
      O.InstructionsPerBlock = 12 + 7 * ((K / std::size(Shapes)) % 5);
      O.Seed = mixSeed(Seed, 100 + Sources.size());
      Function F = generateRandomProgram(O);
      Sources.push_back({functionToString(F), F.totalInstructions()});
      return static_cast<unsigned>(Sources.size() - 1);
    };
    for (unsigned I = 0; I != Prefilled; ++I)
      AddSource();
    Submissions.clear();
    for (unsigned S = 0; S != SubmissionsPerPass; ++S) {
      // Repeats come from everything compiled earlier in the pass.
      std::vector<unsigned> Earlier(Sources.size());
      for (unsigned I = 0; I != Earlier.size(); ++I)
        Earlier[I] = I;
      for (unsigned I = 0; I != Repeats; ++I)
        std::swap(Earlier[I], Earlier[I + R.nextBelow(Earlier.size() - I)]);
      std::vector<unsigned> Items(Earlier.begin(), Earlier.begin() + Repeats);
      for (unsigned I = 0; I != Fresh; ++I)
        Items.push_back(AddSource());
      for (size_t I = Items.size(); I > 1; --I)
        std::swap(Items[I - 1], Items[R.nextBelow(I)]);
      Submissions.push_back(std::move(Items));
    }

    // Prefill: one cold batch over the first sources, through the same
    // cache path a submission takes. It also warms up the compiler. It
    // runs serially so that set-up time does not depend on scheduling.
    std::vector<unsigned> Cold(Prefilled);
    for (unsigned I = 0; I != Prefilled; ++I)
      Cold[I] = I;
    std::vector<BatchItem> Items = parse(Cold, nullptr);
    CompilationCache Cache(CacheMode::On);
    BatchOptions ColdOpts = Opts;
    ColdOpts.Jobs = 1;
    ColdOpts.Cache = &Cache;
    BatchResult B = compileBatch(Items, Machine, ColdOpts);
    // A function that failed here is simply not prefilled: it misses in
    // the first submission that repeats it and is checked there.
    Prefill.clear();
    for (unsigned I = 0; I != Prefilled; ++I)
      if (B.Results[I].Success && B.Results[I].SemanticsPreserved &&
          !B.Outcomes[I].Degraded)
        Prefill.push_back({I, computeCacheKey(Items[I].Input, Machine, Opts),
                           std::move(B.Results[I])});

    // Warm the parallel path too: the first submission on a scratch cache.
    Tally Scratch;
    std::unique_ptr<CompilationCache> WarmCache = freshCache(Scratch);
    BatchOptions WarmOpts = Opts;
    WarmOpts.Cache = WarmCache.get();
    compileBatch(parse(Submissions[0], nullptr), Machine, WarmOpts);
  }

  Quality runPass(Tally &T, std::vector<uint64_t> &RequestNs) override {
    std::unique_ptr<CompilationCache> Cache = freshCache(T);
    BatchOptions BOpts = Opts;
    BOpts.Cache = Cache.get();
    Quality Q;
    for (size_t S = 0; S != Submissions.size(); ++S) {
      const std::vector<unsigned> &Sub = Submissions[S];
      uint64_t Start = nowNs();
      std::vector<BatchItem> Items = parse(Sub, nullptr);
      BatchResult B = compileBatch(Items, Machine, BOpts);
      uint64_t Ns = nowNs() - Start;
      RequestNs.push_back(Ns);
      uint64_t Insts = 0;
      for (unsigned Source : Sub)
        Insts += Sources[Source].Insts;
      T.time(S, Ns, Insts);
      for (size_t I = 0; I != Sub.size(); ++I) {
        T.check(name(Sub[I]), B.Results[I], B.Outcomes[I].Degraded);
        Q.add(B.Results[I]);
      }
    }
    return Q;
  }

  void tracedPass(Tracer &Tr, Tally &T, uint64_t FirstId) override {
    std::unique_ptr<CompilationCache> Cache = freshCache(T);
    std::unique_ptr<CompilationCache> ReplayCache = freshCache(T);
    BatchOptions BOpts = Opts;
    BOpts.Cache = Cache.get();
    for (size_t S = 0; S != Submissions.size(); ++S) {
      const std::vector<unsigned> &Sub = Submissions[S];
      Tr.setRequest(FirstId + S);
      std::vector<BatchItem> Items;
      BatchResult B = Tr.span("request", [&] {
        Items = parse(Sub, &Tr);
        return Tr.span("pipeline.batch",
                       [&] { return compileBatch(Items, Machine, BOpts); });
      });
      for (size_t I = 0; I != Sub.size(); ++I)
        T.check(name(Sub[I]), B.Results[I], B.Outcomes[I].Degraded);

      // The batch's work, one function after another, as CompileOne in
      // compileBatch does it: key, lookup, compile on a miss, insert.
      std::vector<Function> PigInputs;
      std::vector<PipelineResult> Replayed(Items.size());
      Tr.span("replay", [&] {
        for (size_t I = 0; I != Items.size(); ++I) {
          std::string Key = Tr.span("pipeline.cache.key", [&] {
            return computeCacheKey(Items[I].Input, Machine, Opts);
          });
          std::optional<PipelineResult> Hit =
              Tr.span("pipeline.cache.lookup",
                      [&] { return ReplayCache->lookup(Key); });
          Tr.count("pipeline.cache.lookups", 1);
          PipelineResult &R = Replayed[I];
          if (Hit) {
            Tr.count("pipeline.cache.hits", 1);
            R = std::move(*Hit);
          } else {
            R = replayRunAndMeasure(Opts.Strategy, Items[I].Input, Machine,
                                    Opts.Seed, Tr, PigInputs);
            if (R.Success)
              Tr.span("pipeline.cache.insert",
                      [&] { ReplayCache->insert(Key, R); });
          }
        }
      });
      for (size_t I = 0; I != Sub.size(); ++I)
        T.check(name(Sub[I]), Replayed[I]);
      Tr.span("separate",
              [&] { replayDependenceGraphs(PigInputs, Machine, Tr); });
    }
  }

  unsigned jobs() const override { return Opts.Jobs; }

private:
  struct Source {
    std::string Text;
    unsigned Insts;
  };

  static std::string name(unsigned Source) {
    return "rebuild/" + std::to_string(Source);
  }

  /// Parses and verifies the submission's sources, as pirac does with its
  /// input files; spans go to \p Tr when non-null.
  std::vector<BatchItem> parse(const std::vector<unsigned> &Sub,
                               Tracer *Tr) const {
    std::vector<BatchItem> Items(Sub.size());
    for (size_t I = 0; I != Sub.size(); ++I) {
      std::string Error;
      bool Ok = true;
      auto Parse = [&] {
        Ok = parseFunction(Sources[Sub[I]].Text, Items[I].Input, Error);
      };
      auto Verify = [&] { Ok = verifyFunction(Items[I].Input, Error); };
      if (Tr != nullptr)
        Tr->span("ir.parse", Parse);
      else
        Parse();
      if (Ok) {
        if (Tr != nullptr)
          Tr->span("ir.verify", Verify);
        else
          Verify();
      }
      if (!Ok) {
        std::fprintf(stderr, "pirabench: %s does not parse or verify: %s\n",
                     name(Sub[I]).c_str(), Error.c_str());
        std::exit(1);
      }
      Items[I].Name = name(Sub[I]);
    }
    return Items;
  }

  /// A memory-only cache holding the prefilled entries, so every pass
  /// sees the same hits and misses. Hits are checked against the digests
  /// of the cold compiles that produced them.
  std::unique_ptr<CompilationCache> freshCache(Tally &T) const {
    auto Cache = std::make_unique<CompilationCache>(CacheMode::On);
    for (const PrefillEntry &P : Prefill) {
      T.Digests.emplace(name(P.Source), digestOf(P.Result));
      Cache->insert(P.Key, P.Result);
    }
    return Cache;
  }

  MachineModel Machine = MachineModel::rs6000(12);
  BatchOptions Opts;
  std::vector<Source> Sources;
  std::vector<std::vector<unsigned>> Submissions;
  struct PrefillEntry {
    unsigned Source;
    std::string Key;
    PipelineResult Result;
  };
  std::vector<PrefillEntry> Prefill;
};

std::unique_ptr<Workload> makeWorkload(const std::string &Name) {
  if (Name == "ladder")
    return std::make_unique<LadderWorkload>();
  if (Name == "kernels")
    return std::make_unique<KernelsWorkload>();
  if (Name == "rebuild")
    return std::make_unique<RebuildWorkload>();
  return nullptr;
}

/// Nearest-rank percentile.
double percentile(std::vector<double> V, double Q) {
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(Q * static_cast<double>(V.size())));
  return V[std::max<size_t>(Rank, 1) - 1];
}

/// Input instructions of one pass divided by its compile time, each
/// request timed at its median over the run's passes, at the nominal host
/// speed or, when \p Speed is null, on the wall clock.
double instsPerSecond(const Tally &T, const HostSpeed *Speed) {
  std::vector<std::vector<double>> MsOf(T.InstsOf.size());
  for (const Timing &L : T.Latencies)
    MsOf[L.Index].push_back(L.ms(Speed));
  double Insts = 0, Ms = 0;
  for (size_t I = 0; I != T.InstsOf.size(); ++I) {
    Insts += static_cast<double>(T.InstsOf[I]);
    Ms += median(MsOf[I]);
  }
  return Insts / (Ms * 1e-3);
}

/// Every request's latency in ms, at the nominal host speed or, when
/// \p Speed is null, on the wall clock.
std::vector<double> latenciesMs(const Tally &T, const HostSpeed *Speed) {
  std::vector<double> Ms;
  for (const Timing &L : T.Latencies)
    Ms.push_back(L.ms(Speed));
  return Ms;
}

double peakRssMiB() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

/// Effective parallelism of the host: k concurrent copies of one fixed
/// kernels compile against one copy. k * T(1) / T(k) is k on a host
/// that scales perfectly and 1 on one that cannot run two at once.
std::vector<double> calibrateHost() {
  Function F = livermoreHydro(2);
  MachineModel M = MachineModel::rs6000(16);
  auto Copy = [&] {
    for (unsigned I = 0; I != 40; ++I)
      runAndMeasure(StrategyKind::Combined, F, M);
  };
  Copy(); // warm-up
  std::vector<double> Parallelism;
  double One = 0.0;
  for (unsigned K = 1, E = std::min(4u, hostCpus()); K <= E; ++K) {
    uint64_t Start = nowNs();
    std::vector<std::thread> Threads;
    for (unsigned I = 0; I != K; ++I)
      Threads.emplace_back(Copy);
    for (std::thread &Th : Threads)
      Th.join();
    double Wall = seconds(nowNs() - Start);
    if (K == 1)
      One = Wall;
    Parallelism.push_back(static_cast<double>(K) * One / Wall);
  }
  return Parallelism;
}

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
  std::string Note;
};

/// Every per-layer metric: name, unit, and the span or count it reads.
struct LayerMetric {
  const char *Name;
  const char *Unit;
  const char *Source;
};
constexpr LayerMetric LayerMetrics[] = {
    {"core.color.ms", "ms", "core.color"},
    {"core.color.rounds", "count", "core.color.rounds"},
    {"core.color.edges_dropped", "edges", "core.color.edges_dropped"},
    {"core.color.spilled_webs", "webs", "core.color.spilled_webs"},
    {"core.pig_build.ms", "ms", "core.pig_build"},
    {"core.pig.webs", "webs", "core.pig.webs"},
    {"core.pig.edges", "edges", "core.pig.edges"},
    {"core.pig.parallel_only_edges", "edges", "core.pig.parallel_only_edges"},
    {"analysis.depgraph.ms", "ms", "analysis.depgraph"},
    {"analysis.closure.ms", "ms", "analysis.closure"},
    {"core.falsedeps.ms", "ms", "core.falsedeps"},
    {"analysis.webs.ms", "ms", "analysis.webs"},
    {"regalloc.interference.ms", "ms", "regalloc.interference"},
    {"regalloc.spill_cost.ms", "ms", "regalloc.spill_cost"},
    {"regalloc.spill_insert.ms", "ms", "regalloc.spill_insert"},
    {"regalloc.spill_insert.insts", "insts", "regalloc.spill_insert.insts"},
    {"regalloc.apply.ms", "ms", "regalloc.apply"},
    {"regalloc.chaitin.ms", "ms", "regalloc.chaitin"},
    {"sched.prepass.ms", "ms", "sched.prepass"},
    {"sched.prepass.moves", "insts", "sched.prepass.moves"},
    {"sched.ips.ms", "ms", "sched.ips"},
    {"sched.list.ms", "ms", "sched.list"},
    {"ir.parse.ms", "ms", "ir.parse"},
    {"ir.verify.ms", "ms", "ir.verify"},
    {"ir.interpret.ms", "ms", "ir.interpret"},
    {"sim.simulate.ms", "ms", "sim.simulate"},
    {"sim.cycles", "cycles", "sim.cycles"},
    {"pipeline.cache.key.ms", "ms", "pipeline.cache.key"},
    {"pipeline.cache.lookup.ms", "ms", "pipeline.cache.lookup"},
    {"pipeline.cache.insert.ms", "ms", "pipeline.cache.insert"},
    {"pipeline.cache.hit_ratio", "ratio", nullptr},
    {"pipeline.batch.ms", "ms", "pipeline.batch"},
    {"pipeline.batch.parallel_efficiency", "ratio", nullptr},
    {"trace.coverage", "ratio", nullptr},
    {"trace.overhead", "ratio", nullptr},
};

/// Derives the per-layer metrics from the spans and counts of
/// \p Passes traced passes, given the untraced latencies of the same
/// requests (indexed by request id).
std::vector<Metric> layerMetrics(const Tracer &Tr, unsigned Passes,
                                 const std::vector<uint64_t> &UntracedNs,
                                 unsigned Jobs, std::string &Report) {
  std::vector<uint64_t> Self = Tr.selfTimesNs();
  const std::vector<Span> &Spans = Tr.spans();
  std::map<std::string, uint64_t> SelfByName;
  // Self time per root kind ("request", "replay", "separate") and layer.
  std::map<std::string, std::map<std::string, uint64_t>> ByRoot;
  std::vector<int> Root(Spans.size());
  uint64_t RequestNs = 0, CoveredNs = 0, ReplayNs = 0, BatchNs = 0;
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    Root[I] = S.Parent < 0 ? static_cast<int>(I) : Root[S.Parent];
    const char *RootName = Spans[static_cast<size_t>(Root[I])].Name;
    SelfByName[S.Name] += Self[I];
    ByRoot[RootName][S.Name] += Self[I];
    uint64_t Ns = S.EndNs - S.StartNs;
    if (S.Parent < 0 && std::strcmp(S.Name, "request") == 0)
      RequestNs += Ns;
    else if (S.Parent >= 0 &&
             std::strcmp(Spans[static_cast<size_t>(S.Parent)].Name,
                         "request") == 0 &&
             Spans[static_cast<size_t>(S.Parent)].Parent < 0)
      CoveredNs += Ns;
    if (S.Parent < 0 && std::strcmp(S.Name, "replay") == 0)
      ReplayNs += Ns;
    if (std::strcmp(S.Name, "pipeline.batch") == 0)
      BatchNs += Ns;
  }
  uint64_t Untraced = 0;
  for (uint64_t Ns : UntracedNs)
    Untraced += Ns;

  const std::map<std::string, double> &Counts = Tr.counts();
  auto CountOf = [&](const std::string &Name) {
    auto It = Counts.find(Name);
    return It == Counts.end() ? 0.0 : It->second;
  };
  auto Ratio = [](double A, double B) { return B > 0 ? A / B : 0.0; };
  double Hits = CountOf("pipeline.cache.hits");
  double Lookups = CountOf("pipeline.cache.lookups");

  std::vector<Metric> Out;
  for (const LayerMetric &L : LayerMetrics) {
    Metric M{L.Name, 0.0, L.Unit, ""};
    std::string Name = L.Name;
    bool Present = true;
    if (L.Source != nullptr) {
      bool IsTime = M.Unit == "ms";
      auto It = SelfByName.find(L.Source);
      Present = IsTime ? It != SelfByName.end() : Counts.count(L.Source);
      double Total = IsTime ? (Present ? static_cast<double>(It->second) * 1e-6
                                       : 0.0)
                            : CountOf(L.Source);
      M.Value = Total / Passes;
    } else if (Name == "pipeline.cache.hit_ratio") {
      Present = Lookups > 0;
      M.Value = Ratio(Hits, Lookups);
      M.Note = "base: " + std::to_string(static_cast<uint64_t>(Hits)) +
               " hits / " + std::to_string(static_cast<uint64_t>(Lookups)) +
               " lookups";
    } else if (Name == "pipeline.batch.parallel_efficiency") {
      Present = BatchNs > 0;
      M.Value = Ratio(static_cast<double>(ReplayNs),
                      static_cast<double>(Jobs) * static_cast<double>(BatchNs));
      M.Note = "base: serial replay " + std::to_string(ReplayNs / 1000000) +
               " ms / (" + std::to_string(Jobs) + " jobs x batch wall " +
               std::to_string(BatchNs / 1000000) + " ms)";
    } else if (Name == "trace.coverage") {
      M.Value = Ratio(static_cast<double>(CoveredNs),
                      static_cast<double>(Untraced));
      M.Note = "base: untraced request time " +
               std::to_string(Untraced / 1000000) + " ms";
    } else if (Name == "trace.overhead") {
      M.Value = Ratio(static_cast<double>(RequestNs),
                      static_cast<double>(Untraced));
    }
    if (!Present)
      M.Note = "absent: this workload makes no call into the layer";
    Out.push_back(M);
  }

  // Self-time shares per root: which layer dominates each kind of work.
  char Buf[160];
  for (const auto &[RootName, Layers] : ByRoot) {
    uint64_t Total = 0;
    for (const auto &[Layer, Ns] : Layers)
      Total += Ns;
    std::vector<std::pair<uint64_t, std::string>> Sorted;
    for (const auto &[Layer, Ns] : Layers)
      Sorted.push_back({Ns, Layer});
    std::sort(Sorted.rbegin(), Sorted.rend());
    Report += "self time under '" + RootName + "' spans, per pass:\n";
    for (const auto &[Ns, Layer] : Sorted) {
      std::snprintf(Buf, sizeof(Buf), "  %-24s %12.3f ms %6.1f%%\n",
                    Layer.c_str(), static_cast<double>(Ns) * 1e-6 / Passes,
                    100.0 * Ratio(static_cast<double>(Ns),
                                  static_cast<double>(Total)));
      Report += Buf;
    }
  }
  return Out;
}

void writeSpans(const std::string &Path, const Tracer &Tr,
                const std::string &Workload, uint64_t Seed) {
  std::ofstream OS(Path);
  if (!OS) {
    std::fprintf(stderr, "pirabench: cannot write %s\n", Path.c_str());
    return;
  }
  OS.precision(17);
  std::map<std::string, unsigned> Ids;
  std::vector<std::string> Names;
  for (const Span &S : Tr.spans())
    if (Ids.emplace(S.Name, Names.size()).second)
      Names.push_back(S.Name);
  OS << "{\"schema\": \"pirabench.spans\", \"version\": 1, \"workload\": \""
     << Workload << "\", \"seed\": " << Seed << ",\n \"names\": [";
  for (size_t I = 0; I != Names.size(); ++I)
    OS << (I ? ", " : "") << '"' << Names[I] << '"';
  OS << "],\n \"fields\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", "
        "\"request\"],\n \"spans\": [";
  bool First = true;
  for (const Span &S : Tr.spans()) {
    OS << (First ? "\n  " : ",\n  ") << '[' << Ids[S.Name] << ", "
       << S.StartNs << ", " << S.EndNs << ", " << S.Parent << ", "
       << S.Request << ']';
    First = false;
  }
  OS << "],\n \"counts\": {";
  First = true;
  for (const auto &[Name, Value] : Tr.counts()) {
    OS << (First ? "" : ", ") << '"' << Name << "\": " << Value;
    First = false;
  }
  OS << "}}\n";
}

std::string formatShort(double V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.6g", V);
  return Buf;
}

std::string formatNumber(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

int usage(const char *Why) {
  std::fprintf(stderr,
               "pirabench: %s\nusage: pirabench --workload "
               "ladder|kernels|rebuild --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR]\n",
               Why);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string WorkloadName, OutDir = ".";
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + Arg).c_str());
    std::string Value = Argv[++I];
    char *End = nullptr;
    if (Arg == "--workload")
      WorkloadName = Value;
    else if (Arg == "--seed")
      Seed = std::strtoull(Value.c_str(), &End, 10);
    else if (Arg == "--seconds")
      Seconds = std::strtod(Value.c_str(), &End);
    else if (Arg == "--trace" && (Value == "0" || Value == "1"))
      Trace = Value == "1";
    else if (Arg == "--trace")
      return usage("--trace takes 0 or 1");
    else if (Arg == "--out-dir")
      OutDir = Value;
    else
      return usage(("unknown argument " + Arg).c_str());
    if (End != nullptr && (*End != '\0' || Value.empty()))
      return usage(("bad number for " + Arg).c_str());
  }
  if (!(Seconds > 0))
    return usage("--seconds must be positive");

  // Set-up is serial, whatever the workload's requests are.
  HostSpeed SetupSpeed(1);
  std::unique_ptr<Workload> W;
  std::vector<Timing> Setups;
  for (unsigned I = 0; I != SetupRepeats; ++I) {
    for (unsigned K = 0; K != 4; ++K)
      SetupSpeed.sample();
    uint64_t Start = nowNs();
    W = makeWorkload(WorkloadName);
    if (W == nullptr)
      return usage(("unknown workload '" + WorkloadName + "'").c_str());
    W->setup(Seed);
    Setups.push_back(Timing::endingNow(nowNs() - Start));
  }
  for (unsigned K = 0; K != 4; ++K)
    SetupSpeed.sample();

  HostSpeed Speed(W->jobs());
  Tally T;
  T.Speed = &Speed;
  Quality First;
  unsigned Passes = 0, TracedPasses = 0;
  Tracer Tr;
  std::vector<uint64_t> TracedUntracedNs;
  uint64_t Start = nowNs();
  auto Elapsed = [&] { return seconds(nowNs() - Start); };
  do {
    std::vector<uint64_t> RequestNs;
    Quality Q = W->runPass(T, RequestNs);
    if (Passes == 0)
      First = Q;
    else if (Q != First)
      T.fail("pass " + std::to_string(Passes) +
             ": code quality differs from the first pass");
    ++Passes;
    if (Trace) {
      W->tracedPass(Tr, T, TracedUntracedNs.size());
      TracedUntracedNs.insert(TracedUntracedNs.end(), RequestNs.begin(),
                              RequestNs.end());
      if (++TracedPasses == MaxTracedPasses)
        break;
    }
  } while ((Elapsed() < Seconds ||
            (!Trace &&
             (T.Latencies.size() < MinSamples || Passes < MinPasses))) &&
           Elapsed() < HardStopSeconds);
  double MeasuredS = Elapsed();
  double PeakRssMiB = peakRssMiB();
  std::vector<double> Parallelism = calibrateHost();

  std::vector<Metric> Metrics;
  std::string Report;
  double FailedRatio = T.Attempted == 0 ? 1.0
                                        : static_cast<double>(T.Failed) /
                                              static_cast<double>(T.Attempted);
  if (!Trace) {
    size_t N = T.Latencies.size();
    auto SetupSeconds = [&](const HostSpeed *S) {
      std::vector<double> V;
      for (const Timing &L : Setups)
        V.push_back(L.ms(S) * 1e-3);
      return median(V);
    };
    auto Wall = [](double V) { return ", wall " + formatShort(V); };
    std::vector<double> Lat = latenciesMs(T, &Speed),
                        LatWall = latenciesMs(T, nullptr);
    double RateWall = instsPerSecond(T, nullptr),
           P50Wall = percentile(LatWall, 0.5),
           P90Wall = percentile(LatWall, 0.9);
    std::string Requests = std::to_string(N) + " requests";
    Metrics = {
        {"setup_s", SetupSeconds(&SetupSpeed), "s",
         "median of " + std::to_string(SetupRepeats) + " set-ups" +
             Wall(SetupSeconds(nullptr))},
        {"compile_insts_per_s", instsPerSecond(T, &Speed), "insts/s",
         "each request at its median of " + std::to_string(Passes) +
             " passes" + Wall(RateWall)},
        {"compile_ms.p50", percentile(Lat, 0.5), "ms",
         Requests + Wall(P50Wall)},
        {"compile_ms.p90", percentile(Lat, 0.9), "ms",
         Requests + (N < 100 ? ", fewer than ten beyond the p90" : "") +
             Wall(P90Wall)},
        {"peak_rss_mb", PeakRssMiB, "MiB", "before host calibration"},
        {"dyn_cycles", static_cast<double>(First.DynCycles), "cycles",
         "one pass"},
        {"spill_insts", static_cast<double>(First.SpillInsts), "insts",
         "one pass"},
        {"false_deps", static_cast<double>(First.FalseDeps), "edges",
         "one pass"},
    };
  } else {
    Metrics = layerMetrics(Tr, TracedPasses, TracedUntracedNs, W->jobs(),
                           Report);
    writeSpans(OutDir + "/spans-" + WorkloadName + "-" +
                   std::to_string(Seed) + ".json",
               Tr, WorkloadName, Seed);
  }

  std::printf("pirabench workload=%s seed=%llu held_out_seed=%llu "
              "trace=%d passes=%u traced_passes=%u measured_s=%.3f\n",
              WorkloadName.c_str(), static_cast<unsigned long long>(Seed),
              static_cast<unsigned long long>(HeldOutSeed), Trace ? 1 : 0,
              Passes, TracedPasses, MeasuredS);
  std::printf("host speed: reference slice %.3f ms on %u thread(s) (median "
              "of %zu), %.3f ms on one around set-up (median of %zu); "
              "timings are scaled to a host where it takes %.3f ms\n",
              Speed.sliceNs() * 1e-6, W->jobs(), Speed.samples(),
              SetupSpeed.sliceNs() * 1e-6, SetupSpeed.samples(),
              HostSpeed::NominalSliceNs * 1e-6);
  std::printf("host: %u cpus, effective parallelism", hostCpus());
  for (size_t K = 0; K != Parallelism.size(); ++K)
    std::printf(" k=%zu:%.2f", K + 1, Parallelism[K]);
  std::printf(" (k copies of one kernels compile vs one copy)\n");
  for (const Metric &M : Metrics)
    std::printf("%-36s %16.6g %-8s %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str(), M.Note.c_str());
  std::printf("%-36s %16.6g %-8s %llu failed of %llu attempted\n",
              "failed_ratio", FailedRatio, "ratio",
              static_cast<unsigned long long>(T.Failed),
              static_cast<unsigned long long>(T.Attempted));
  std::fputs(Report.c_str(), stdout);
  for (const std::string &E : T.Errors)
    std::printf("FAILED %s\n", E.c_str());

  bool Correct = T.Failed == 0 && T.Attempted != 0;
  std::string Json = "{\"correct\": " + std::string(Correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(T.Attempted) +
                     ", \"failed\": " + std::to_string(T.Failed) +
                     ", \"metrics\": {";
  for (size_t I = 0; I != Metrics.size(); ++I)
    Json += (I ? ", \"" : "\"") + Metrics[I].Name + "\": {\"value\": " +
            formatNumber(Metrics[I].Value) + ", \"unit\": \"" +
            Metrics[I].Unit + "\"}";
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return Correct ? 0 : 1;
}
