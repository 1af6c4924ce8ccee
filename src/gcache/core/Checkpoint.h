//===- Checkpoint.h - Checkpointed trace replay -----------------*- C++ -*-===//
//
// Part of the gcache project (Reinhold, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Crash-safe checkpoint/resume for trace replay, built on the snapshot
/// container (support/Snapshot.h). replayTraceCheckpointed() streams a
/// recorded trace into a cache bank and counting sink, cutting a snapshot
/// every N records and at every GC boundary. A killed replay resumes from
/// the last snapshot and finishes with counters bit-identical to an
/// uninterrupted run (proven by the kill-at-every-GC-boundary tests in
/// tests/test_checkpoint.cpp). trace_inspect --replay --checkpoint-dir
/// exposes it on the command line.
///
/// Every cut goes through the A/B slot pair's atomic tmp+fsync+rename
/// path and is CRC-validated on load, so a torn or damaged checkpoint is
/// detected (Corrupt/Truncated), never silently trusted.
///
//===----------------------------------------------------------------------===//

#ifndef GCACHE_CORE_CHECKPOINT_H
#define GCACHE_CORE_CHECKPOINT_H

#include "gcache/core/Experiment.h"
#include "gcache/trace/Sinks.h"

#include <string>

namespace gcache {

/// Removes stale "*.tmp" files from \p Dir — half-written snapshots left
/// by a kill inside SnapshotWriter's write-then-rename window. Safe to run
/// at every startup: the atomic rename protocol means a .tmp file is never
/// the authoritative copy of anything. Returns the number removed.
unsigned sweepStaleTmpFiles(const std::string &Dir);

/// How replayTraceCheckpointed checkpoints and resumes.
struct ReplayCheckpointOptions {
  /// Base path of the checkpoint's A/B slot pair (`<path>.a`/`<path>.b`,
  /// see support/Snapshot.h); empty = never cut.
  std::string SnapshotPath;
  uint64_t EveryRefs = 0;   ///< Also checkpoint every N records (0 = only
                            ///< at GC boundaries).
  bool Resume = false;      ///< Resume from SnapshotPath if it exists.
  bool Salvage = false;     ///< Replay a damaged trace's valid prefix.
  /// Run the conservation-law auditor (core/Audit.h) over the replay: at
  /// every GC boundary, at end of replay, and — on resume — immediately
  /// after the restored state is loaded, so a corrupted-but-CRC-valid
  /// checkpoint cannot poison the continuation.
  bool Audit = false;
  /// Test hook simulating a kill: abort (StatusCode::Aborted) after this
  /// many records have been dispatched in this process (0 = never).
  uint64_t StopAfterRecords = 0;
};

/// Result of a (possibly resumed) checkpointed replay.
struct ReplayCheckpointResult {
  uint64_t RecordsReplayed = 0; ///< Records dispatched by this call.
  uint64_t StartRecord = 0;     ///< First record index of this call.
  bool Resumed = false;         ///< True when a snapshot was loaded.
  /// A/B slot telemetry (support/Snapshot.h): resume found the newer slot
  /// damaged and fell back to the older good one / repaired a damaged or
  /// missing slot from the good one's bytes.
  bool SlotFellBack = false;
  bool SlotScrubbed = false;
  /// Ok, or a Partial* outcome when a budget/deadline/signal tripped
  /// mid-replay; the counters then cover exactly the records up to the
  /// drain checkpoint, and resuming replays the remainder bit-identically.
  UnitOutcome Outcome = UnitOutcome::Ok;
  std::string OutcomeNote; ///< Cancellation detail ("" when Ok).
  /// Records dispatched so far / total records; negative when unknown.
  double Coverage = -1.0;

  bool partial() const { return Outcome != UnitOutcome::Ok; }
};

/// Replays \p TracePath into \p Bank and \p Counts with checkpointing per
/// \p Opts. On resume, bank, sink, and fault-injector state are restored
/// from the snapshot and replay continues from the exact saved record;
/// finishing yields counters bit-identical to an uninterrupted replay,
/// with any thread count (checkpoints are cut at batch-drained points).
/// Returns Aborted for the StopAfterRecords test kill, IoError/Corrupt/
/// Truncated for trace or snapshot damage.
Expected<ReplayCheckpointResult>
replayTraceCheckpointed(const std::string &TracePath, CacheBank &Bank,
                        CountingSink &Counts,
                        const ReplayCheckpointOptions &Opts);

} // namespace gcache

#endif // GCACHE_CORE_CHECKPOINT_H
