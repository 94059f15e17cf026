//===- support/Parallel.h - Parallel loop and thread deadlines --*- C++ -*-===//
//
// Part of PIRA, a reproduction of Pinter's PLDI'93 combined register
// allocation / instruction scheduling framework.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The whole concurrency surface of PIRA: one parallel loop over
/// independent items, and a cooperative per-thread wall-clock deadline.
///
/// parallelFor(N, Jobs, Body) runs Body(0) … Body(N-1) on min(Jobs, N)
/// threads, the caller being one of them. The threads claim indices
/// from a shared atomic cursor, so completion order is arbitrary;
/// callers that need determinism (compileBatch and runTournament do)
/// write results into pre-sized slots indexed by I. With one thread
/// (Jobs == 1, or N <= 1) the loop runs inline on the caller.
///
/// Fault isolation: an iteration that throws does not stop the others.
/// Every iteration runs, then the first exception is rethrown on the
/// caller. Later exceptions are dropped by design, but never silently:
/// each one bumps the NumDroppedTaskExceptions telemetry counter.
///
/// Deadlines: deadline::ScopedDeadline arms a wall-clock budget for the
/// current thread. Long-running phases poll deadline::expired(), or
/// call deadline::checkpoint(), which throws DeadlineExceededError, at
/// loop boundaries to unwind. Cancellation is cooperative: nothing
/// kills a thread; the phase must observe the clock itself.
///
//===----------------------------------------------------------------------===//

#ifndef PIRA_SUPPORT_PARALLEL_H
#define PIRA_SUPPORT_PARALLEL_H

#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>

namespace pira {

namespace deadline {

/// Thrown by checkpoint() when the armed deadline has passed.
class DeadlineExceededError : public std::exception {
public:
  const char *what() const noexcept override {
    return "task deadline exceeded";
  }
};

/// Arms a wall-clock deadline of \p BudgetMs for the current thread
/// (0 arms nothing and leaves any enclosing deadline in force).
/// Deadlines nest; the innermost armed one is consulted, and the
/// enclosing one comes back when this scope ends.
class ScopedDeadline {
public:
  explicit ScopedDeadline(uint64_t BudgetMs);
  ~ScopedDeadline();
  ScopedDeadline(const ScopedDeadline &) = delete;
  ScopedDeadline &operator=(const ScopedDeadline &) = delete;

private:
  std::chrono::steady_clock::time_point Prev; ///< Deadline to restore.
};

/// True when the innermost armed deadline has passed or the
/// "budget.deadline" fault site fires. Cheap enough for per-round
/// polling; false when nothing is armed.
bool expired();

/// Throws DeadlineExceededError when expired(). Phases call this at
/// loop boundaries so overrunning work unwinds to the task guard.
void checkpoint();

} // namespace deadline

/// The thread count used when none is given: PIRA_JOBS when set to a
/// positive integer, otherwise std::thread::hardware_concurrency() (at
/// least 1).
unsigned defaultJobCount();

/// Runs Body(I) for every I in [0, N) on min(Jobs, N) threads, the
/// caller included, and returns once every iteration has finished.
/// \p Jobs of 0 means defaultJobCount(). \p Body must be safe to call
/// concurrently for distinct indices. If a thread cannot be started,
/// the loop carries on with the threads it already has. A throwing
/// iteration does not stop the others; the first exception is rethrown
/// on return. Returns the number of threads that ran the loop (at
/// least 1, the caller).
unsigned parallelFor(unsigned N, unsigned Jobs,
                     const std::function<void(unsigned)> &Body);

} // namespace pira

#endif // PIRA_SUPPORT_PARALLEL_H
