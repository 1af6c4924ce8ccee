//===- Watchdog.h - Budget monitor thread -----------------------*- C++ -*-===//
//
// Part of the gcache project (Reinhold, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A monitor thread that periodically evaluates the process budget
/// (support/Budget.h) and trips the CancelToken when a limit is breached.
/// The watchdog exists for the checks a cooperative poll site cannot
/// afford (the resident-memory probe reads /proc) and as a backstop for
/// the ones it can (the deadline still fires even if the mutator is stuck
/// in a long non-polling stretch). It never touches simulation state: it
/// only sets flags, and the mutator thread acts on them at its next poll,
/// so every counter stays bit-identical with or without a watchdog.
///
//===----------------------------------------------------------------------===//

#ifndef GCACHE_SUPPORT_WATCHDOG_H
#define GCACHE_SUPPORT_WATCHDOG_H

#include <condition_variable>
#include <mutex>
#include <thread>

namespace gcache {

/// Periodic budget monitor. start()/stop() are idempotent; the destructor
/// stops the thread.
class Watchdog {
public:
  explicit Watchdog(unsigned PeriodMs = 50) : PeriodMs(PeriodMs) {}
  ~Watchdog() { stop(); }
  Watchdog(const Watchdog &) = delete;
  Watchdog &operator=(const Watchdog &) = delete;

  void start();
  void stop();
  bool running() const { return Thread.joinable(); }

  /// Ticks evaluated so far (tests assert the thread is alive).
  uint64_t ticks() const;

private:
  void run();

  unsigned PeriodMs;
  std::thread Thread;
  mutable std::mutex Mu;
  std::condition_variable Cv;
  bool StopRequested = false;
  uint64_t Ticks = 0;
};

/// The process-wide watchdog the bench drivers start once budgets are
/// configured.
Watchdog &processWatchdog();

} // namespace gcache

#endif // GCACHE_SUPPORT_WATCHDOG_H
