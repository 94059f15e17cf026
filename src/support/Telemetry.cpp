//===- support/Telemetry.cpp - Phase timers and counter registry ----------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//

#include "support/Telemetry.h"

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <map>
#include <mutex>
#include <set>

#include <unistd.h>

using namespace pira;
using namespace pira::telemetry;

namespace {

std::atomic<bool> Enabled{false};

/// Registry + event log. Function-local statics so instrumented passes
/// in other translation units can register counters during static
/// initialization without ordering hazards.
struct GlobalState {
  std::mutex Mutex;
  std::vector<Counter *> Counters;
  std::vector<TimedEvent> Events;
  uint32_t NextThreadId = 0;
};

GlobalState &state() {
  static GlobalState S;
  return S;
}

/// Per-thread stack of active scope labels; Path is the joined form so
/// scope entry is O(label) and exit copies one string.
struct ThreadStack {
  std::vector<const char *> Labels;
  std::string Path;
  uint32_t Id;

  ThreadStack() {
    GlobalState &S = state();
    std::lock_guard<std::mutex> Lock(S.Mutex);
    Id = S.NextThreadId++;
  }
};

ThreadStack &threadStack() {
  thread_local ThreadStack TS;
  return TS;
}

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

} // namespace

bool telemetry::enabled() { return Enabled.load(std::memory_order_relaxed); }

void telemetry::setEnabled(bool On) {
  Enabled.store(On, std::memory_order_relaxed);
}

void telemetry::reset() {
  GlobalState &S = state();
  std::lock_guard<std::mutex> Lock(S.Mutex);
  S.Events.clear();
  for (Counter *C : S.Counters)
    C->Value.store(0, std::memory_order_relaxed);
}

uint64_t telemetry::processId() {
  static const uint64_t Pid = static_cast<uint64_t>(::getpid());
  return Pid;
}

uint64_t telemetry::monotonicNowNs() { return nowNs(); }

//===----------------------------------------------------------------------===//
// Counters
//===----------------------------------------------------------------------===//

Counter::Counter(const char *Name, const char *Description)
    : Name(Name), Description(Description) {
  GlobalState &S = state();
  std::lock_guard<std::mutex> Lock(S.Mutex);
  S.Counters.push_back(this);
}

const std::vector<Counter *> &telemetry::counters() {
  return state().Counters;
}

//===----------------------------------------------------------------------===//
// Phase timers
//===----------------------------------------------------------------------===//

TimeScope::TimeScope(const char *Label)
    : Active(Enabled.load(std::memory_order_relaxed)), Label(Label) {
  if (!Active)
    return;
  ThreadStack &TS = threadStack();
  Depth = static_cast<uint32_t>(TS.Labels.size());
  TS.Labels.push_back(Label);
  if (!TS.Path.empty())
    TS.Path += '/';
  TS.Path += Label;
  Path = TS.Path;
  StartNs = nowNs();
}

TimeScope::~TimeScope() {
  if (!Active)
    return;
  uint64_t End = nowNs();
  ThreadStack &TS = threadStack();
  // Pop our label (and the separator) off the thread path.
  if (!TS.Labels.empty()) {
    size_t LabelLen = std::char_traits<char>::length(TS.Labels.back());
    size_t Cut = TS.Path.size() >= LabelLen ? TS.Path.size() - LabelLen : 0;
    if (Cut > 0)
      --Cut; // the '/' separator
    TS.Path.resize(Cut);
    TS.Labels.pop_back();
  }
  GlobalState &S = state();
  std::lock_guard<std::mutex> Lock(S.Mutex);
  S.Events.push_back(
      {std::move(Path), Label, StartNs, End - StartNs, TS.Id, Depth});
}

std::vector<TimedEvent> telemetry::events() {
  GlobalState &S = state();
  std::lock_guard<std::mutex> Lock(S.Mutex);
  return S.Events;
}

void telemetry::recordEvent(TimedEvent E) {
  if (!enabled())
    return;
  GlobalState &S = state();
  std::lock_guard<std::mutex> Lock(S.Mutex);
  S.Events.push_back(std::move(E));
}

std::vector<TimerAggregate> telemetry::timerAggregates() {
  std::map<std::string, TimerAggregate> ByPath;
  for (const TimedEvent &E : events()) {
    TimerAggregate &A = ByPath[E.Path];
    A.Path = E.Path;
    ++A.Calls;
    A.TotalNs += E.DurationNs;
  }
  std::vector<TimerAggregate> Out;
  Out.reserve(ByPath.size());
  for (auto &[Path, A] : ByPath)
    Out.push_back(std::move(A));
  std::sort(Out.begin(), Out.end(),
            [](const TimerAggregate &A, const TimerAggregate &B) {
              return A.TotalNs != B.TotalNs ? A.TotalNs > B.TotalNs
                                            : A.Path < B.Path;
            });
  return Out;
}

void telemetry::printTimerReport(std::ostream &OS) {
  std::vector<TimerAggregate> Aggs = timerAggregates();
  size_t PathWidth = std::string("path").size();
  for (const TimerAggregate &A : Aggs)
    PathWidth = std::max(PathWidth, A.Path.size());
  OS << "=== pass timing ===\n"
     << std::left << std::setw(static_cast<int>(PathWidth) + 2) << "path"
     << std::right << std::setw(8) << "calls" << std::setw(12) << "total ms"
     << '\n';
  for (const TimerAggregate &A : Aggs) {
    OS << std::left << std::setw(static_cast<int>(PathWidth) + 2) << A.Path
       << std::right << std::setw(8) << A.Calls << std::setw(12) << std::fixed
       << std::setprecision(3) << static_cast<double>(A.TotalNs) / 1e6
       << '\n';
  }
}

//===----------------------------------------------------------------------===//
// Trace export
//===----------------------------------------------------------------------===//

json::Value telemetry::chromeTraceToJson() {
  std::vector<TimedEvent> Evs = events();
  const int64_t Pid = static_cast<int64_t>(processId());

  json::Value Trace = json::Value::array();
  // Metadata first: name the process and every thread that appears so
  // the trace reads as labeled tracks, not bare pid numbers.
  auto Metadata = [&](const char *Kind, uint32_t Tid, std::string Name) {
    json::Value Ev = json::Value::object();
    Ev.set("name", Kind);
    Ev.set("ph", "M");
    Ev.set("pid", Pid);
    Ev.set("tid", static_cast<int64_t>(Tid));
    json::Value Args = json::Value::object();
    Args.set("name", std::move(Name));
    Ev.set("args", std::move(Args));
    Trace.push(std::move(Ev));
  };
  Metadata("process_name", 0, "pirac");
  std::set<uint32_t> Threads;
  for (const TimedEvent &E : Evs)
    Threads.insert(E.ThreadId);
  for (uint32_t Tid : Threads)
    Metadata("thread_name", Tid,
             Tid == 0 ? std::string("main") : "thread-" + std::to_string(Tid));

  for (const TimedEvent &E : Evs) {
    json::Value Ev = json::Value::object();
    // The event name is the scope's own label so chrome://tracing
    // groups repeated phases; the full hierarchical path rides in args.
    Ev.set("name", E.Label);
    Ev.set("cat", "pira");
    Ev.set("ph", "X");
    Ev.set("ts", static_cast<double>(E.StartNs) / 1e3); // microseconds
    Ev.set("dur", static_cast<double>(E.DurationNs) / 1e3);
    Ev.set("pid", Pid);
    Ev.set("tid", static_cast<int64_t>(E.ThreadId));
    json::Value Args = json::Value::object();
    Args.set("path", E.Path);
    Args.set("depth", static_cast<int64_t>(E.Depth));
    Ev.set("args", std::move(Args));
    Trace.push(std::move(Ev));
  }
  json::Value Root = json::Value::object();
  Root.set("traceEvents", std::move(Trace));
  Root.set("displayTimeUnit", "ms");
  return Root;
}
