//===- perfbench/Replay.cpp - Traced replay of one compile ----------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//

#include "Replay.h"

#include "analysis/DependenceGraph.h"
#include "analysis/Webs.h"
#include "core/FalseDepChecker.h"
#include "core/ParallelInterferenceGraph.h"
#include "core/PinterAllocator.h"
#include "ir/Interpreter.h"
#include "ir/Verifier.h"
#include "machine/MachineModel.h"
#include "regalloc/ChaitinAllocator.h"
#include "regalloc/InterferenceGraph.h"
#include "regalloc/SpillCost.h"
#include "regalloc/SpillInserter.h"
#include "sched/IntegratedPrepass.h"
#include "sched/ListScheduler.h"
#include "sched/PreScheduler.h"
#include "sim/SuperscalarSim.h"

#include <limits>
#include <set>

using namespace pira;
using namespace pirabench;

namespace {

constexpr double Infinite = std::numeric_limits<double>::infinity();

void fail(PipelineResult &R, std::string Message) {
  R.Success = false;
  R.Error = std::move(Message);
}

/// Webs and interference graph of the current code; the opening of every
/// color/spill/repeat round.
struct RoundGraphs {
  RoundGraphs(const Function &F, Tracer &T)
      : W(T.span("analysis.webs", [&] { return Webs(F); })),
        IG(T.span("regalloc.interference",
                  [&] { return InterferenceGraph(F, W); })) {}
  Webs W;
  InterferenceGraph IG;
};

/// Spill costs, with the registers spill code introduced made unspillable.
std::vector<double> spillCosts(const Function &F, const Webs &W,
                               const std::set<Reg> &NoSpillRegs, Tracer &T) {
  std::vector<double> Costs =
      T.span("regalloc.spill_cost", [&] { return computeSpillCosts(F, W); });
  for (unsigned Web = 0, E = W.numWebs(); Web != E; ++Web)
    if (NoSpillRegs.count(W.webRegister(Web)))
      Costs[Web] = Infinite;
  return Costs;
}

/// Ends a round: on a full coloring, snapshot the symbolic twin and apply
/// the allocation (returns true); otherwise insert spill code.
bool finishRound(PipelineResult &R, RoundGraphs &G, const Allocation &A,
                 std::set<Reg> &NoSpillRegs, unsigned &Stores,
                 unsigned &Loads, Tracer &T) {
  if (A.fullyColored()) {
    R.SymbolicTwin = R.Final;
    T.span("regalloc.apply", [&] { applyAllocation(R.Final, G.W, A); });
    return true;
  }
  SpillCode Code = T.span("regalloc.spill_insert", [&] {
    return insertSpillCode(R.Final, G.W, A.SpilledWebs, NoSpillRegs);
  });
  Stores += Code.Stores;
  Loads += Code.Loads;
  T.count("regalloc.spill_insert.insts", Code.Stores + Code.Loads);
  return false;
}

/// chaitinAllocate(R.Final, K, 32, &R.SymbolicTwin), call by call.
bool replayChaitin(PipelineResult &R, unsigned K, Tracer &T) {
  std::set<Reg> NoSpillRegs;
  unsigned Spilled = 0, Stores = 0, Loads = 0;
  for (unsigned Round = 0; Round != 32; ++Round) {
    RoundGraphs G(R.Final, T);
    std::vector<double> Costs = spillCosts(R.Final, G.W, NoSpillRegs, T);
    Allocation A = T.span("regalloc.chaitin",
                          [&] { return chaitinColor(G.IG.graph(), Costs, K); });
    if (finishRound(R, G, A, NoSpillRegs, Stores, Loads, T)) {
      R.Success = true;
      R.RegistersUsed = A.NumColorsUsed;
      R.SpilledWebs += Spilled;
      R.SpillInstructions += Stores + Loads;
      return true;
    }
    Spilled += static_cast<unsigned>(A.SpilledWebs.size());
  }
  fail(R, "chaitin allocation did not converge");
  return false;
}

/// pinterAllocate(R.Final, K, Machine, {}, &R.SymbolicTwin), call by call.
bool replayPinter(PipelineResult &R, unsigned K, const MachineModel &Machine,
                  Tracer &T, std::vector<Function> &PigInputs) {
  PinterOptions Opts;
  std::set<Reg> NoSpillRegs;
  unsigned Spilled = 0, Stores = 0, Loads = 0, Dropped = 0;
  for (unsigned Round = 0; Round != Opts.MaxRounds; ++Round) {
    if (Round == 0)
      T.count("sched.prepass.moves", T.span("sched.prepass", [&] {
        return preScheduleFunction(R.Final, Machine);
      }));
    RoundGraphs G(R.Final, T);
    PigInputs.push_back(R.Final);
    ParallelInterferenceGraph PIG = T.span("core.pig_build", [&] {
      return ParallelInterferenceGraph(R.Final, G.W, G.IG, Machine);
    });
    T.count("core.pig.webs", PIG.numWebs());
    T.count("core.pig.edges", PIG.combined().numEdges());
    T.count("core.pig.parallel_only_edges", PIG.numParallelOnlyEdges());
    std::vector<double> Costs = spillCosts(R.Final, G.W, NoSpillRegs, T);
    Allocation A = T.span("core.color",
                          [&] { return pinterColor(PIG, Costs, K, Opts); });
    T.count("core.color.rounds", 1);
    T.count("core.color.edges_dropped", A.ParallelEdgesDropped);
    T.count("core.color.spilled_webs", A.SpilledWebs.size());
    Dropped += A.ParallelEdgesDropped;
    if (finishRound(R, G, A, NoSpillRegs, Stores, Loads, T)) {
      R.Success = true;
      R.RegistersUsed = A.NumColorsUsed;
      R.SpilledWebs = Spilled;
      R.SpillInstructions = Stores + Loads;
      R.ParallelEdgesDropped = Dropped;
      return true;
    }
    Spilled += static_cast<unsigned>(A.SpilledWebs.size());
  }
  fail(R, "combined allocation did not converge");
  return false;
}

/// runStrategy for the four strategies the benchmark compiles with.
PipelineResult replayStrategy(StrategyKind Kind, const Function &Input,
                              const MachineModel &Machine, Tracer &T,
                              std::vector<Function> &PigInputs) {
  PipelineResult R;
  R.Final = Input;
  unsigned K = Machine.numPhysRegs();
  bool Allocated = false;
  switch (Kind) {
  case StrategyKind::AllocFirst:
    Allocated = replayChaitin(R, K, T);
    break;
  case StrategyKind::SchedFirst: {
    T.count("sched.prepass.moves", T.span("sched.prepass", [&] {
      return preScheduleFunction(R.Final, Machine);
    }));
    FunctionSchedule Pre = T.span(
        "sched.list", [&] { return scheduleFunction(R.Final, Machine); });
    T.span("sched.prepass", [&] {
      for (unsigned B = 0, E = R.Final.numBlocks(); B != E; ++B)
        reorderBlockBySchedule(R.Final, B, Pre.Blocks[B]);
    });
    Allocated = replayChaitin(R, K, T);
    break;
  }
  case StrategyKind::IntegratedPrepass:
    T.span("sched.ips",
           [&] { integratedPrepassSchedule(R.Final, Machine, K); });
    Allocated = replayChaitin(R, K, T);
    break;
  case StrategyKind::Combined:
    Allocated = replayPinter(R, K, Machine, T, PigInputs);
    break;
  default:
    fail(R, std::string("no replay for strategy ") + strategyName(Kind));
    break;
  }
  if (!Allocated)
    return R;

  std::string VerifyError;
  if (!T.span("ir.verify",
              [&] { return verifyFunction(R.Final, VerifyError); })) {
    fail(R, "final code fails verification: " + VerifyError);
    return R;
  }
  R.Sched = T.span("sched.list",
                   [&] { return scheduleFunction(R.Final, Machine); });
  R.StaticCycles = R.Sched.totalMakespan();
  T.span("core.falsedeps", [&] {
    R.FalseDeps = static_cast<unsigned>(
        findFalseDependences(R.SymbolicTwin, R.Final, Machine).size());
    R.AntiOrderingLosses =
        countAntiOrderingLosses(R.SymbolicTwin, R.Final, Machine);
  });
  return R;
}

} // namespace

PipelineResult pirabench::replayRunAndMeasure(StrategyKind Kind,
                                              const Function &Input,
                                              const MachineModel &Machine,
                                              uint64_t Seed, Tracer &T,
                                              std::vector<Function> &PigInputs) {
  PipelineResult R = replayStrategy(Kind, Input, Machine, T, PigInputs);
  if (!R.Success)
    return R;

  ExecState Initial;
  ExecResult Ref = T.span("ir.interpret", [&] {
    Initial = makeInitialState(Input, Seed);
    return interpret(Input, Initial);
  });
  if (!Ref.Completed) {
    fail(R, "reference interpretation failed: " + Ref.Error);
    return R;
  }
  SimResult Sim = T.span("sim.simulate", [&] {
    ExecState SimInitial = makeInitialState(R.Final, Seed);
    for (auto &[Name, Data] : SimInitial.Arrays) {
      auto It = Initial.Arrays.find(Name);
      if (It != Initial.Arrays.end())
        Data = It->second;
      else
        Data.assign(Data.size(), 0);
    }
    return simulate(R.Final, R.Sched, Machine, std::move(SimInitial));
  });
  R.DynCycles = Sim.Cycles;
  R.DynInstructions = Sim.Instructions;
  T.count("sim.cycles", static_cast<double>(Sim.Cycles));
  if (!Sim.Completed) {
    fail(R, "simulation failed: " + Sim.Error);
    return R;
  }
  bool Same = Ref.HasReturnValue == Sim.HasReturnValue &&
              (!Ref.HasReturnValue || Ref.ReturnValue == Sim.ReturnValue);
  for (const auto &[Name, Data] : Ref.Final.Arrays) {
    auto It = Sim.Final.Arrays.find(Name);
    Same = Same && It != Sim.Final.Arrays.end() && It->second == Data;
  }
  R.SemanticsPreserved = Same;
  if (!Same)
    fail(R, "semantics diverged from the sequential reference");
  return R;
}

void pirabench::replayDependenceGraphs(
    const std::vector<Function> &PigInputs, const MachineModel &Machine,
    Tracer &T) {
  for (const Function &F : PigInputs)
    for (unsigned B = 0, E = F.numBlocks(); B != E; ++B) {
      DependenceGraph G = T.span("analysis.depgraph",
                                 [&] { return DependenceGraph(F, B, Machine); });
      T.span("analysis.closure", [&] { return G.reachability(); });
    }
}
