//===- support/Parallel.cpp - Parallel loop and per-thread deadlines ------===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//

#include "support/Parallel.h"

#include "support/FaultInjection.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

using namespace pira;

PIRA_STAT(NumDroppedTaskExceptions,
          "Secondary task exceptions dropped after the first was captured");

//===----------------------------------------------------------------------===//
// Per-thread deadlines
//===----------------------------------------------------------------------===//

namespace {

using Clock = std::chrono::steady_clock;

/// The innermost armed deadline of this thread; max() when none is.
thread_local Clock::time_point CurrentDeadline = Clock::time_point::max();

} // namespace

deadline::ScopedDeadline::ScopedDeadline(uint64_t BudgetMs)
    : Prev(CurrentDeadline) {
  if (BudgetMs == 0)
    return;
  // A budget past the clock's range can never expire; saturate instead
  // of letting the addition overflow into the past.
  Clock::time_point Now = Clock::now();
  auto Left = std::chrono::duration_cast<std::chrono::milliseconds>(
      Clock::time_point::max() - Now);
  CurrentDeadline = BudgetMs >= static_cast<uint64_t>(Left.count())
                        ? Clock::time_point::max()
                        : Now + std::chrono::milliseconds(BudgetMs);
}

deadline::ScopedDeadline::~ScopedDeadline() { CurrentDeadline = Prev; }

bool pira::deadline::expired() {
  if (faultinject::shouldFire("budget.deadline"))
    return true;
  Clock::time_point At = CurrentDeadline;
  return At != Clock::time_point::max() && Clock::now() >= At;
}

void pira::deadline::checkpoint() {
  if (expired())
    throw DeadlineExceededError();
}

//===----------------------------------------------------------------------===//
// parallelFor
//===----------------------------------------------------------------------===//

unsigned pira::defaultJobCount() {
  if (const char *Raw = std::getenv("PIRA_JOBS")) {
    char *End = nullptr;
    long V = std::strtol(Raw, &End, 10);
    if (End != Raw && *End == '\0' && V > 0)
      return static_cast<unsigned>(V);
  }
  unsigned HW = std::thread::hardware_concurrency();
  return HW == 0 ? 1 : HW;
}

unsigned pira::parallelFor(unsigned N, unsigned Jobs,
                           const std::function<void(unsigned)> &Body) {
  if (Jobs == 0)
    Jobs = defaultJobCount();
  std::atomic<unsigned> Next{0};
  std::mutex ErrorMutex;
  std::exception_ptr FirstError;
  auto Drain = [&] {
    for (unsigned I = Next++; I < N; I = Next++) {
      try {
        Body(I);
      } catch (...) {
        // The first failure is the actionable one; later ones are
        // counted so a silent pile-up shows in the stats report.
        std::lock_guard<std::mutex> Lock(ErrorMutex);
        if (!FirstError)
          FirstError = std::current_exception();
        else
          ++NumDroppedTaskExceptions;
      }
    }
  };

  std::vector<std::thread> Helpers;
  for (unsigned T = 1, E = std::min(Jobs, N); T < E; ++T) {
    try {
      Helpers.emplace_back(Drain);
    } catch (...) {
      break; // Out of threads: the ones already running finish the loop.
    }
  }
  Drain();
  for (std::thread &T : Helpers)
    T.join();
  if (FirstError)
    std::rethrow_exception(FirstError);
  return static_cast<unsigned>(Helpers.size()) + 1;
}
