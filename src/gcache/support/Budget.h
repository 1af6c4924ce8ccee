//===- Budget.h - Resource budgets and cooperative cancellation -*- C++ -*-===//
//
// Part of the gcache project (Reinhold, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Resource governance for long measurement runs: a wall-clock deadline, a
/// simulated-reference budget, and a resident-memory budget, all enforced
/// through *cooperative cancellation*.
///
/// The process-wide CancelToken is tripped by whoever notices a limit
/// first — the Watchdog monitor thread (support/Watchdog.h), a SIGTERM or
/// SIGINT handler (support/SignalGuard.h), or a cooperative poll site
/// itself — and every long-running loop in the stack polls it at a safe
/// boundary:
///
///   - the VM interpreter loop (every few thousand bytecodes),
///   - the collectors' scan/mark loops (every few thousand objects),
///   - checkpointed trace replay (every few dozen records).
///
/// pollCancellation() throws StatusError(StatusCode::Cancelled) once the
/// token is tripped. Unit boundaries catch it, drain the in-flight bank
/// batches (CacheBank::flush / setThreads(0) — any record boundary is a
/// consistent cut), audit the drained state, and report a *partial*
/// result instead of tearing down mid-batch; a checkpointed replay also
/// cuts one final checkpoint.
///
/// The memory budget has one threshold. The watchdog probes resident
/// memory every 50 ms; once it reaches the budget, the token trips with
/// MemBudget and the unit drains as partial-mem, just as --max-refs drains
/// as partial-deadline. The analysis sinks never trade exactness for
/// memory.
///
/// The watchdog-trip and budget-probe fault sites (support/FaultInjector.h)
/// are counted at every poll, so the whole drain path gets the same
/// deterministic every-occurrence sweep as the OOM sites.
///
//===----------------------------------------------------------------------===//

#ifndef GCACHE_SUPPORT_BUDGET_H
#define GCACHE_SUPPORT_BUDGET_H

#include "gcache/support/Status.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>

namespace gcache {

class Options;

/// Why cancellation was requested. First request wins; later reasons are
/// ignored so a drain in progress is never re-attributed.
enum class CancelReason : uint8_t {
  None = 0,
  Deadline,  ///< Wall-clock deadline (--deadline) or injected watchdog trip.
  RefBudget, ///< Simulated-reference budget exhausted (--max-refs).
  MemBudget, ///< Resident-memory budget breached (--mem-budget).
  Signal,    ///< SIGTERM/SIGINT requested a drain (support/SignalGuard.h).
};

/// Stable lower-case name of \p Reason ("deadline", "signal", ...).
const char *cancelReasonName(CancelReason Reason);

/// One-shot cancellation flag shared by the watchdog, the signal handlers,
/// and every cooperative poll site. request() is async-signal-safe and
/// wait-free (a single lock-free CAS), so the SIGTERM handler may call it.
class CancelToken {
public:
  bool requested() const {
    return Reason_.load(std::memory_order_relaxed) != CancelReason::None;
  }
  CancelReason reason() const {
    return Reason_.load(std::memory_order_acquire);
  }

  /// Trips the token; only the first reason sticks. Returns true when this
  /// call was the one that tripped it.
  bool request(CancelReason Reason) {
    CancelReason Expected = CancelReason::None;
    return Reason_.compare_exchange_strong(Expected, Reason,
                                           std::memory_order_acq_rel);
  }

  /// Re-arms the token (tests and resumed runs in the same process).
  void reset() { Reason_.store(CancelReason::None, std::memory_order_release); }

private:
  std::atomic<CancelReason> Reason_{CancelReason::None};
};

/// How a bench unit or a replay ended. A run interrupted mid-way
/// drains to a *partial* result, attributed to what tripped the token:
/// deadline-like trips — wall clock, ref budget, SIGTERM — are
/// partial-deadline; a memory breach is partial-mem.
enum class UnitOutcome : uint8_t {
  Ok = 0,
  PartialDeadline,
  PartialMem,
};

/// Stable name ("ok", "partial-deadline", "partial-mem").
const char *unitOutcomeName(UnitOutcome Outcome);

/// The partial outcome a mid-run trip with \p Reason drains to.
UnitOutcome outcomeForReason(CancelReason Reason);

/// The configured limits (all 0 = unlimited).
struct BudgetSpec {
  double DeadlineSec = 0;      ///< Wall clock for the whole process run.
  uint64_t MaxRefs = 0;        ///< Total simulated references.
  uint64_t MemBudgetBytes = 0; ///< Resident-memory budget.

  bool any() const { return DeadlineSec > 0 || MaxRefs || MemBudgetBytes; }
};

/// Parses "512", "64k", "512m", "2g" into bytes. InvalidArgument (naming
/// \p Flag) on malformed text, zero, or overflow.
Expected<uint64_t> parseByteSize(const std::string &Text,
                                 const std::string &Flag);

/// Parses the budget flags --deadline (seconds, fractional ok), --max-refs
/// and --mem-budget (bytes with optional k/m/g suffix) from \p O, with the
/// usual GCACHE_<NAME> env fallback. A flag that is bare, non-positive,
/// malformed, or overflowing is InvalidArgument — bench binaries exit 2 on
/// it.
Expected<BudgetSpec> parseBudgetFlags(const Options &O);

/// The process-wide budget: limits and elapsed/consumed accounting.
/// Checks are split by thread:
///  - checkMemory() runs on the watchdog thread (it reads /proc, too slow
///    for a poll site) and only trips the token;
///  - pollCancellation() runs on the mutator thread and throws on a
///    tripped token.
class Budget {
public:
  /// Installs \p Spec and anchors the deadline clock at *now*. Resets the
  /// consumed-reference counter and re-arms the cancel token.
  void configure(const BudgetSpec &Spec);

  /// Drops all limits (tests; equivalent to configure({})).
  void reset() { configure(BudgetSpec()); }

  bool active() const { return Active.load(std::memory_order_relaxed); }
  const BudgetSpec &spec() const { return Spec; }

  double elapsedSec() const;

  /// Simulated references consumed so far (fed by the experiment's ref
  /// meter sink and by checkpointed replay).
  void noteRefs(uint64_t N) {
    RefsSeen.fetch_add(N, std::memory_order_relaxed);
  }
  uint64_t refsSeen() const {
    return RefsSeen.load(std::memory_order_relaxed);
  }

  /// Resident set size in bytes (/proc/self/statm; 0 where unsupported),
  /// or whatever setMemoryProbe installed.
  uint64_t residentBytes() const;
  /// Replaces the RSS probe (tests drive breaches deterministically).
  /// nullptr restores the real probe.
  void setMemoryProbe(std::function<uint64_t()> Probe);

  /// Trips the token with MemBudget once resident memory reaches the
  /// budget (watchdog thread).
  void checkMemory();

  /// Evaluates the deadline and reference budget (poll sites; cheap).
  void checkProgress();

private:
  BudgetSpec Spec;
  std::atomic<bool> Active{false};
  std::chrono::steady_clock::time_point Start =
      std::chrono::steady_clock::now();
  std::atomic<uint64_t> RefsSeen{0};
};

/// The process-wide cancel token and budget (mirrors faultInjector()).
CancelToken &cancelToken();
Budget &processBudget();

/// The cooperative poll every long loop calls at a safe boundary: counts
/// the watchdog-trip / budget-probe fault sites, re-checks the cheap
/// limits, and throws StatusError(StatusCode::Cancelled) naming \p Where
/// once the token is tripped. Costs a few atomic operations when nothing is armed — call it
/// every few thousand iterations, not every iteration.
void pollCancellation(const char *Where);

} // namespace gcache

#endif // GCACHE_SUPPORT_BUDGET_H
