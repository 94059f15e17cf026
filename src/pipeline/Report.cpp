//===- pipeline/Report.cpp - Structured JSON stats reports ----------------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//

#include "pipeline/Report.h"

#include "machine/MachineModel.h"
#include "support/Telemetry.h"

#include <fstream>
#include <iostream>

using namespace pira;

// The build system injects git SHA and build type when it can determine
// them; a bare compiler invocation still builds with the fallbacks.
#ifndef PIRA_GIT_SHA
#define PIRA_GIT_SHA "unknown"
#endif
#ifndef PIRA_BUILD_TYPE
#define PIRA_BUILD_TYPE "unknown"
#endif

json::Value pira::pipelineResultToJson(const PipelineResult &R) {
  json::Value P = json::Value::object();
  P.set("success", R.Success);
  P.set("error", R.Error);
  P.set("diagnostic", R.Diag.toJson());
  P.set("registers_used", R.RegistersUsed);
  P.set("spilled_webs", R.SpilledWebs);
  P.set("spill_instructions", R.SpillInstructions);
  P.set("false_deps", R.FalseDeps);
  P.set("anti_ordering_losses", R.AntiOrderingLosses);
  P.set("parallel_edges_dropped", R.ParallelEdgesDropped);
  P.set("static_cycles", R.StaticCycles);
  P.set("dyn_cycles", R.DynCycles);
  P.set("dyn_instructions", R.DynInstructions);
  P.set("semantics_preserved", R.SemanticsPreserved);
  return P;
}

json::Value pira::machineToJson(const MachineModel &Machine) {
  json::Value M = json::Value::object();
  M.set("name", Machine.name());
  M.set("registers", Machine.numPhysRegs());
  M.set("issue_width", Machine.issueWidth());
  return M;
}

json::Value pira::countersToJson() {
  json::Value C = json::Value::object();
  for (const telemetry::Counter *Counter : telemetry::counters()) {
    json::Value One = json::Value::object();
    One.set("value", Counter->value());
    One.set("description", Counter->description());
    C.set(Counter->name(), std::move(One));
  }
  return C;
}

json::Value pira::buildProvenanceToJson() {
  json::Value P = json::Value::object();
  P.set("tool", "pirac");
  P.set("tool_version", PiraVersionString);
  P.set("git_sha", PIRA_GIT_SHA);
#if defined(__clang__)
  P.set("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  P.set("compiler", std::string("gcc ") + __VERSION__);
#else
  P.set("compiler", "unknown");
#endif
  P.set("build_type", PIRA_BUILD_TYPE);
#ifdef NDEBUG
  P.set("ndebug", true);
#else
  P.set("ndebug", false);
#endif
  return P;
}

json::Value pira::timersToJson() {
  json::Value T = json::Value::array();
  for (const telemetry::TimerAggregate &A : telemetry::timerAggregates()) {
    json::Value One = json::Value::object();
    One.set("path", A.Path);
    One.set("calls", A.Calls);
    One.set("total_ns", A.TotalNs);
    T.push(std::move(One));
  }
  return T;
}

json::Value pira::beginStatsReport(const std::string &Strategy,
                                   const MachineModel &Machine) {
  json::Value Root = json::Value::object();
  Root.set("schema", StatsSchemaName);
  Root.set("version", StatsSchemaVersion);
  Root.set("provenance", buildProvenanceToJson());
  if (!Strategy.empty())
    Root.set("strategy", Strategy);
  Root.set("machine", machineToJson(Machine));
  return Root;
}

void pira::endStatsReport(json::Value &Root) {
  Root.set("counters", countersToJson());
  Root.set("timers", timersToJson());
}

json::Value pira::makeStatsReport(const PipelineResult &R,
                                  const std::string &Strategy,
                                  const MachineModel &Machine) {
  json::Value Root = beginStatsReport(Strategy, Machine);
  Root.set("pipeline", pipelineResultToJson(R));
  endStatsReport(Root);
  return Root;
}

bool pira::writeJsonFile(const json::Value &Report,
                         const std::string &FilePath, std::string &Error) {
  if (FilePath == "-") {
    Report.write(std::cout, 0);
    std::cout << '\n';
    std::cout.flush();
    if (!std::cout) {
      Error = "error while writing report to stdout";
      return false;
    }
    return true;
  }
  std::ofstream Out(FilePath);
  if (!Out) {
    Error = "cannot open '" + FilePath + "' for writing";
    return false;
  }
  Report.write(Out, 0);
  Out << '\n';
  if (!Out) {
    Error = "error while writing '" + FilePath + "'";
    return false;
  }
  return true;
}
