//===- CrashSim.h - Power-loss crash-point sweep ----------------*- C++ -*-===//
//
// Part of the gcache project (Reinhold, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hostile-storage proof for the checkpoint pipeline: a simulated
/// power cut at EVERY durable-state transition of a checkpointed replay,
/// each followed by a reboot and a resumed run that must finish with
/// cache-bank and counting-sink state bit-identical to an uninterrupted
/// replay.
///
/// The sweep runs entirely inside a FaultVfs (support/Vfs.h): it records
/// a real collector trace into the in-memory filesystem, replays it once
/// uninterrupted to fix the reference digest and count the filesystem's
/// mutating operations N, then for each k in 1..N re-runs the replay from
/// the same durable base image with the power cut armed at operation k.
/// The cut drops every byte not yet fsynced — exactly the loss a kernel
/// page cache suffers — so any missing-fsync or rename-before-sync bug in
/// the checkpoint protocol surfaces as a digest divergence or an
/// unrecoverable resume.
///
/// Recovery per crash point is the production startup sequence, nothing
/// more: sweep stale `*.tmp` files, then replay with Resume set. The A/B
/// snapshot slots (support/Snapshot.h) make a cut mid-checkpoint-write
/// recoverable from the older slot; the sweep counts observed fallbacks
/// and scrubber repairs so callers can assert the machinery actually
/// fired.
///
//===----------------------------------------------------------------------===//

#ifndef GCACHE_CORE_CRASHSIM_H
#define GCACHE_CORE_CRASHSIM_H

#include "gcache/support/Status.h"
#include "gcache/vm/SchemeSystem.h"

#include <cstdint>
#include <string>

namespace gcache {

/// One crash-point sweep's shape: which collector records the trace and
/// how the checkpointed replay is driven.
struct CrashSweepOptions {
  GcKind Gc = GcKind::Cheney;
  double Scale = 0.05;          ///< Workload scale of the recorded trace.
  /// Semispace/heap bytes of the recorded run. The generational nursery is
  /// sized to this too, so every collector reaches its first GC boundary
  /// within the trimmed trace. Small spaces => early, frequent cycles.
  uint32_t SemispaceBytes = 64 << 10;
  unsigned Threads = 0;         ///< Cache-bank workers (0 = serial).
  uint64_t EveryRefs = 5000;    ///< Periodic checkpoint cadence (records).
  bool CrossCheck = false;      ///< Shadow oracles (--crosscheck).
  bool Audit = true;            ///< Conservation-law auditor on.
  /// Cap on tested crash points: 0 sweeps every mutating operation; a
  /// positive value tests that many points evenly spread over 1..N (CI
  /// smoke mode). The cap is reported, never silent.
  uint64_t MaxCuts = 0;
  /// The recorded trace is trimmed to its longest prefix of at most this
  /// many records that ends exactly at a GC boundary — the sweep's cost is
  /// (transitions x replays), so the trace must stay small while still
  /// containing complete collector cycles. 0 keeps the full trace. The
  /// default covers the first boundary of all three collectors at the
  /// default heap size (the latest, mark-sweep, ends near record 385k).
  uint64_t MaxTraceRecords = 400000;
};

/// What the sweep observed. Every tested cut either never fired (the run
/// finished first — impossible for k <= N but handled) or was recovered
/// to the reference digest; anything else is an error return, not a
/// result.
struct CrashSweepResult {
  uint64_t TraceRecords = 0;  ///< Records in the recorded trace.
  uint64_t MutatingOps = 0;   ///< Durable-state transitions in a clean run.
  uint64_t CutsTested = 0;    ///< Crash points actually exercised.
  uint64_t CutsFired = 0;     ///< Runs that really died at their cut.
  uint64_t Resumes = 0;       ///< Recoveries that loaded a checkpoint.
  uint64_t SlotFallbacks = 0; ///< Recoveries served by the older A/B slot.
  uint64_t SlotScrubs = 0;    ///< Damaged/missing slots repaired on open.
  uint64_t TmpSwept = 0;      ///< Stale .tmp files removed across reboots.
  uint32_t ReferenceDigest = 0; ///< contentCrc of the clean final state.
};

/// Runs the sweep. Installs a FaultVfs as the process Vfs for the call's
/// duration (restored on return), so it must not run concurrently with
/// other Vfs users in the same process. Returns the first unrecovered
/// crash point as an error (message names the operation index), or the
/// totals above.
Expected<CrashSweepResult> runCrashSweep(const CrashSweepOptions &Opts);

} // namespace gcache

#endif // GCACHE_CORE_CRASHSIM_H
