//===- FaultInjector.h - Deterministic fault injection ----------*- C++ -*-===//
//
// Part of the gcache project (Reinhold, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic, seed-driven fault injection for the whole measurement
/// stack. Every layer threads a *named injection site* through this
/// process-wide injector:
///
///   heap-oom      Collector::allocate fails with OutOfMemory at the Nth
///                 dynamic allocation.
///   gc-force      A full collection is forced at the Nth allocation.
///   trace-write   TraceWriter simulates a short write / disk-full at the
///                 Nth emitted record.
///   shard-worker  A cache-bank worker throws at the Nth lane batch it
///                 runs; the site fires once per lane batch, in threaded
///                 banks only (captured and rethrown at the next flush).
///   step-abort    SchemeSystem::run aborts before its Nth top-level
///                 form.
///   snapshot-write  SnapshotWriter::writeFile fails with IoError on its
///                   Nth call (checkpoint cannot be persisted).
///   snapshot-load   SnapshotReader::open fails with IoError on its Nth
///                   call (checkpoint cannot be read back).
///   watchdog-trip   The Nth cooperative cancellation poll behaves as if
///                   the watchdog had tripped the deadline: the run drains
///                   to a partial result (support/Budget.h).
///   budget-probe    The Nth poll simulates a memory-budget breach: the
///                   run drains to a partial-mem result
///                   (support/Budget.h).
///   gc-step-abort   The Nth GC step boundary throws Aborted after the
///                   step's work completes; the cycle stays in flight and
///                   the caller may drive it to completion
///                   (gc/Collector.h).
///   io-short-write  The Nth Vfs write persists only a byte-granular
///                   prefix and reports the failure — an EINTR-style
///                   partial write (support/Vfs.h).
///   io-torn-write   The Nth Vfs write persists a prefix but reports
///                   *success*: silent sector tearing that only CRC
///                   validation or crash recovery can catch.
///   io-eio          The Nth Vfs read or write fails with an I/O error
///                   and transfers nothing.
///   io-enospc       The Nth Vfs write fails with no-space-left; no bytes
///                   persist.
///   io-fsync-lost   The Nth Vfs fsync reports success without making the
///                   volatile bytes durable — a lying flush whose loss a
///                   simulated power cut then exposes (FaultVfs).
///
/// A plan is `<site>:<n>[:<seed>]`: without a seed the site fires at
/// exactly the Nth occurrence (1-based); with a seed it fires at a
/// splitmix64-derived occurrence in [1, n] — a deterministic
/// pseudo-random pick, so seed sweeps explore different injection points
/// reproducibly. Plans come from `GCACHE_FAULT=<spec>` or the bench
/// binaries' `--fault <spec>`.
///
/// Sites count occurrences even when disarmed, so a clean run doubles as an
/// occurrence census: run once, read occurrences(Site), then sweep n over
/// [1, max] — the OOM-at-every-allocation test in
/// tests/test_fault_injection.cpp.
///
/// Thread contract: only a threaded bank's workers hit a site concurrently
/// (shard-worker), and that site counts with an atomic read-modify-write.
/// Every other site is hit by one thread at a time (the mutator's: the VM,
/// the collectors, trace and snapshot I/O, the cooperative polls) and
/// counts with a relaxed load and store, so the heap-oom and gc-force
/// checks on every allocation take no locked instruction. Counts stay
/// exact under this contract.
///
//===----------------------------------------------------------------------===//

#ifndef GCACHE_SUPPORT_FAULTINJECTOR_H
#define GCACHE_SUPPORT_FAULTINJECTOR_H

#include "gcache/support/Status.h"

#include <atomic>
#include <cstdint>
#include <string>

namespace gcache {

class SnapshotWriter;
class SnapshotReader;

/// The named injection sites (see file comment for where each fires).
enum class FaultSite : uint8_t {
  HeapOom = 0,
  GcForce,
  TraceShortWrite,
  ShardWorker,
  StepAbort,
  SnapshotWrite,
  SnapshotLoad,
  WatchdogTrip,
  BudgetProbe,
  GcStepAbort,
  IoShortWrite,
  IoTornWrite,
  IoEio,
  IoEnospc,
  IoFsyncLost,
};
constexpr unsigned NumFaultSites = 15;

/// Stable spec name of \p Site ("heap-oom", "trace-write", ...).
const char *faultSiteName(FaultSite Site);

/// One armed fault: fire \p Site once, at an occurrence derived from
/// \p Nth and \p Seed.
struct FaultPlan {
  FaultSite Site = FaultSite::HeapOom;
  uint64_t Nth = 1;  ///< >= 1.
  uint64_t Seed = 0; ///< 0 = fire exactly at occurrence Nth.

  /// The 1-based occurrence at which the site fires: Nth when Seed == 0,
  /// otherwise a deterministic splitmix64 pick in [1, Nth].
  uint64_t fireIndex() const;

  /// Renders the plan back to spec syntax.
  std::string toString() const;
};

/// Parses `<site>:<n>[:<seed>]`; n must be a positive integer and site a
/// known name. Returns InvalidArgument with the accepted grammar on any
/// malformed spec.
Expected<FaultPlan> parseFaultSpec(const std::string &Spec);

/// Process-wide injector: at most one armed plan, plus an occurrence
/// counter per site. shouldFire() is wait-free; bank workers call it for
/// shard-worker concurrently with the mutator thread's other sites (see
/// the thread contract above).
class FaultInjector {
public:
  /// Arms \p Plan (replacing any previous plan) and resets all counters.
  void arm(const FaultPlan &Plan);

  /// Disarms; counters keep counting (census mode).
  void disarm();

  /// Parses and arms \p Spec; empty or "off" disarms. Returns the parse
  /// status.
  Status armFromSpec(const std::string &Spec);

  /// Arms from the GCACHE_FAULT environment variable if set; a no-op
  /// (ok) when unset. Returns the parse status so CLIs can report it.
  Status armFromEnv();

  bool armed() const { return Armed.load(std::memory_order_relaxed); }
  FaultPlan plan() const { return Plan; }

  /// Counts one occurrence of \p Site; true exactly when the armed plan
  /// targets this site and this is the firing occurrence. The caller then
  /// raises the fault (throw, forced GC, simulated short write).
  bool shouldFire(FaultSite Site) {
    std::atomic<uint64_t> &Count = Counts[static_cast<unsigned>(Site)];
    uint64_t Seen;
    if (Site == FaultSite::ShardWorker) {
      Seen = Count.fetch_add(1, std::memory_order_relaxed) + 1;
    } else {
      Seen = Count.load(std::memory_order_relaxed) + 1;
      Count.store(Seen, std::memory_order_relaxed);
    }
    if (!Armed.load(std::memory_order_relaxed))
      return false;
    return Site == Plan.Site && Seen == FireIndex;
  }

  /// Occurrences of \p Site counted since the last arm()/resetCounters().
  uint64_t occurrences(FaultSite Site) const {
    return Counts[static_cast<unsigned>(Site)].load(std::memory_order_relaxed);
  }

  /// Zeroes every site counter (between census runs).
  void resetCounters();

  /// Snapshots the armed plan and every occurrence counter, so a resumed
  /// run fires (or declines to fire) at exactly the same global occurrence
  /// a continuous run would have.
  void saveTo(SnapshotWriter &W) const;
  /// Restores plan and counters from a snapshot's "fault-injector" section.
  Status loadFrom(const SnapshotReader &R);

private:
  std::atomic<bool> Armed{false};
  FaultPlan Plan;
  uint64_t FireIndex = 0;
  std::atomic<uint64_t> Counts[NumFaultSites] = {};
};

/// The process-wide injector every layer consults.
FaultInjector &faultInjector();

} // namespace gcache

#endif // GCACHE_SUPPORT_FAULTINJECTOR_H
