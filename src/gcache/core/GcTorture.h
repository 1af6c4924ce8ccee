//===- GcTorture.h - Kill/resume torture driver for stepped GC --*- C++ -*-===//
//
// Part of the gcache project (Reinhold, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The GC torture harness: a small, fully deterministic, fully
/// serializable mutator driven directly against a stepped collector
/// (gc/Collector.h), a cache bank, and the counting/audit sinks — the
/// proving ground for mid-cycle checkpointing. Every GC step boundary
/// cuts a whole-run snapshot (heap, in-flight cycle machine, caches,
/// counters, fault-injector state, mutator cursor); a run killed at any
/// boundary and resumed from that snapshot finishes with a digest
/// bit-identical to an uninterrupted run's, under any collector, any
/// thread count, with cross-checking and auditing enabled.
///
/// The mutator is not the Scheme VM (the VM holds host-side state that is
/// not snapshot-serializable); it is a synthetic allocation/mutation/drop
/// workload whose every decision derives from splitmix64 of (seed, op
/// index), so op N behaves identically whether reached in one process or
/// after ten kills. Roots live in simulated stack slots plus two host
/// registers, exercising every root class the collectors scan.
///
//===----------------------------------------------------------------------===//

#ifndef GCACHE_CORE_GCTORTURE_H
#define GCACHE_CORE_GCTORTURE_H

#include "gcache/core/Audit.h"
#include "gcache/gc/Collector.h"
#include "gcache/memsys/CacheBank.h"
#include "gcache/trace/Sinks.h"
#include "gcache/vm/SchemeSystem.h"

#include <memory>
#include <string>

namespace gcache {

/// One torture run's shape. The defaults give a few collections over a
/// few hundred ops — small enough that a kill-at-every-step sweep stays
/// fast, large enough to cross every phase of every collector.
struct GcTortureConfig {
  GcKind Gc = GcKind::Cheney; ///< Cheney, Generational, or MarkSweep.
  uint64_t Seed = 1;
  uint32_t Ops = 300;        ///< Mutator operations to execute.
  uint32_t StepBudget = 64;  ///< Collector::setStepBudget.
  /// Cheney semispace / whole mark-sweep heap / generational old
  /// semispace, in bytes.
  uint32_t HeapBytes = 64 * 1024;
  uint32_t NurseryBytes = 16 * 1024; ///< Generational only.
  unsigned Threads = 0;       ///< Cache-bank worker threads (0 = inline).
  uint64_t CrossCheckEvery = 0; ///< --crosscheck period (0 = off).
  bool Audit = false;           ///< Wire the conservation-law auditor.
  bool PhaseParanoid = false;   ///< Certify at every step boundary.
  /// Cut a snapshot here at every GC step boundary ("" = never cut).
  std::string SnapshotPath;
  /// Simulate a kill: throw StatusError(Aborted) at this 1-based global
  /// step-boundary count, right after that boundary's snapshot cut
  /// (0 = never). Real SIGKILL coverage uses the gc-step-kill fault site
  /// instead (bench/gc_torture.cpp forks per kill point).
  uint64_t KillAtStep = 0;
};

/// Everything a finished run is judged by. Two runs of the same config —
/// one uninterrupted, one killed and resumed any number of times — must
/// produce equal digests.
struct GcTortureDigest {
  uint64_t OpsRun = 0;
  uint64_t TotalRefs = 0;
  uint64_t MutatorRefs = 0;
  uint64_t AllocBytes = 0;
  uint64_t Collections = 0;
  uint64_t GcInstructions = 0;
  uint64_t GcSteps = 0;     ///< Collector::totalSteps().
  uint64_t HeapHash = 0;    ///< Reachable-graph content hash.
  uint64_t CacheHash = 0;   ///< Every cache's full counter set.

  bool operator==(const GcTortureDigest &O) const;
  bool operator!=(const GcTortureDigest &O) const { return !(*this == O); }
  std::string toString() const;
};

/// One torture world: heap + collector + bank + sinks + mutator cursor.
class GcTortureRun {
public:
  explicit GcTortureRun(const GcTortureConfig &Config);
  ~GcTortureRun();

  /// Executes the remaining mutator ops. Throws StatusError(Aborted) when
  /// KillAtStep fires (the snapshot for that boundary is already on
  /// disk), and propagates certification / cross-check / audit failures.
  void run();

  /// Restores the world from \p Path (cut by a previous run of the same
  /// config), drives the interrupted GC cycle to completion, finishes the
  /// interrupted operation, then runs the remaining ops via run().
  Status resume(const std::string &Path);

  /// Flushes the bank, runs the final audits (when configured), and
  /// digests the run. Call after run()/resume() returns normally.
  GcTortureDigest digest();

  Collector &collector() { return *Coll; }
  CacheBank &bank() { return Bank; }
  /// Step boundaries observed so far (over all cycles, kills included) —
  /// the sweep driver's iteration space.
  uint64_t boundariesSeen() const { return BoundariesSeen; }

private:
  enum class PendingKind : uint8_t { None = 0, Alloc = 1, ForceGc = 2 };

  void executeOp(uint32_t I, bool Resuming);
  void cutSnapshot();
  Address stackSlot(uint32_t I) const;
  void storeHeapValue(Address A, Value V);

  GcTortureConfig Cfg;
  TraceBus Bus;
  CacheBank Bank;
  CountingSink Counting;
  std::unique_ptr<AuditSink> Auditor;
  Heap H;
  SimpleMutatorContext Mutator;
  Value HostA{0}, HostB{0};
  std::unique_ptr<Collector> Coll;

  uint32_t OpIndex = 0;
  PendingKind Pending = PendingKind::None;
  uint32_t PendingWords = 0;
  uint64_t BoundariesSeen = 0;
};

/// Convenience: one uninterrupted run of \p Config, returning its digest.
GcTortureDigest runGcTorture(const GcTortureConfig &Config);

} // namespace gcache

#endif // GCACHE_CORE_GCTORTURE_H
