//===- perfbench/Trace.h - In-memory spans for the traced replay -*- C++ -*-===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's span recorder. Spans are opened and closed around calls
/// into the library from the benchmark's own files, never inside it: a
/// span records its name, start, end, the span that caused it and the
/// request it belongs to. Counts recorded at the same boundaries (edges
/// dropped, spill instructions, ...) sit beside the spans. Everything stays
/// in memory until the run writes it out at the end.
///
//===----------------------------------------------------------------------===//

#ifndef PIRABENCH_TRACE_H
#define PIRABENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pirabench {

/// Monotonic nanoseconds.
inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  const char *Name; ///< A string literal: the layer the call belongs to.
  uint64_t StartNs;
  uint64_t EndNs;
  int Parent;       ///< Index of the causing span; -1 for a root.
  uint64_t Request; ///< Shared by every span of one request.
};

class Tracer {
public:
  /// Opens a span under the innermost open one; returns its index.
  int begin(const char *Name) {
    int Index = static_cast<int>(Spans.size());
    Spans.push_back({Name, nowNs(), 0, Open.empty() ? -1 : Open.back(),
                     Request});
    Open.push_back(Index);
    return Index;
  }

  /// Closes the innermost open span.
  void end() {
    Spans[static_cast<size_t>(Open.back())].EndNs = nowNs();
    Open.pop_back();
  }

  /// Runs \p Fn inside a span named \p Name and returns its result.
  template <typename Fn> decltype(auto) span(const char *Name, Fn &&Call) {
    struct Closer {
      Tracer &T;
      ~Closer() { T.end(); }
    } Close{*this};
    begin(Name);
    return Call();
  }

  /// Starts a new request: later spans carry \p Id.
  void setRequest(uint64_t Id) { Request = Id; }

  /// Adds \p Value to the count \p Name.
  void count(const std::string &Name, double Value) { Counts[Name] += Value; }

  const std::vector<Span> &spans() const { return Spans; }
  const std::map<std::string, double> &counts() const { return Counts; }

  /// Self time of every span in ns: its duration minus the part its
  /// direct children cover (children of one span never overlap).
  std::vector<uint64_t> selfTimesNs() const {
    std::vector<uint64_t> Self(Spans.size());
    for (size_t I = 0; I != Spans.size(); ++I)
      Self[I] = Spans[I].EndNs - Spans[I].StartNs;
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        Self[static_cast<size_t>(S.Parent)] -= S.EndNs - S.StartNs;
    return Self;
  }

private:
  std::vector<Span> Spans;
  std::vector<int> Open;
  std::map<std::string, double> Counts;
  uint64_t Request = 0;
};

} // namespace pirabench

#endif // PIRABENCH_TRACE_H
