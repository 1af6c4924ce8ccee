//===- Checkpoint.cpp - Checkpointed trace replay -------------------------===//

#include "gcache/core/Checkpoint.h"

#include "gcache/core/Audit.h"
#include "gcache/support/FaultInjector.h"
#include "gcache/support/Snapshot.h"
#include "gcache/support/Vfs.h"
#include "gcache/trace/TraceFile.h"

using namespace gcache;

unsigned gcache::sweepStaleTmpFiles(const std::string &Dir) {
  Expected<std::vector<std::string>> Names = vfs().list(Dir);
  if (!Names)
    return 0;
  unsigned Removed = 0;
  for (const std::string &Name : *Names) {
    if (Name.size() < 4 || Name.compare(Name.size() - 4, 4, ".tmp") != 0)
      continue;
    if (vfs().unlink(Dir + "/" + Name).ok())
      ++Removed;
  }
  return Removed;
}

/// Cuts one replay checkpoint: resume position, full bank state (drained
/// first), sink counters, and the fault injector so injected faults fire
/// at the same global occurrence after a resume. Lands in the A/B slot
/// pair so the previous good checkpoint survives a crash or tear during
/// this cut.
static Status cutReplayCheckpoint(const std::string &Path, TraceStream &Stream,
                                  CacheBank &Bank, CountingSink &Counts) {
  SnapshotWriter W;
  W.beginSection("replay-pos");
  W.putU64(Stream.recordCount());
  W.putU64(Stream.recordIndex());
  W.putU64(Stream.byteOffset());
  Bank.saveTo(W);
  W.beginSection("counting-sink");
  Counts.save(W);
  faultInjector().saveTo(W);
  return writeSnapshotAb(W, Path);
}

Expected<ReplayCheckpointResult>
gcache::replayTraceCheckpointed(const std::string &TracePath, CacheBank &Bank,
                                CountingSink &Counts,
                                const ReplayCheckpointOptions &Opts) {
  TraceStream Stream;
  if (Status S = Stream.open(TracePath, Opts.Salvage); !S.ok())
    return S;

  AuditSink Auditor(&Bank, &Counts);
  ReplayCheckpointResult Result;
  if (Opts.Resume && !Opts.SnapshotPath.empty() &&
      snapshotAbExists(Opts.SnapshotPath)) {
    SnapshotReader R;
    AbSlotInfo Ab;
    if (Status S = openSnapshotAb(R, Opts.SnapshotPath, &Ab); !S.ok())
      return S;
    Result.SlotFellBack = Ab.FellBack;
    Result.SlotScrubbed = Ab.Scrubbed;
    SnapshotCursor C = R.section("replay-pos");
    uint64_t SavedCount = C.getU64();
    uint64_t RecIdx = C.getU64();
    uint64_t ByteOff = C.getU64();
    if (C.ok() && SavedCount != Stream.recordCount())
      C.fail(Status::failf(StatusCode::Corrupt,
                           "checkpoint is for a %llu-record trace, '%s' has "
                           "%llu records",
                           static_cast<unsigned long long>(SavedCount),
                           TracePath.c_str(),
                           static_cast<unsigned long long>(
                               Stream.recordCount())));
    if (Status S = C.finish(); !S.ok())
      return S;
    if (Status S = Bank.loadFrom(R); !S.ok())
      return S;
    SnapshotCursor SC = R.section("counting-sink");
    Counts.load(SC);
    if (Status S = SC.finish(); !S.ok())
      return S;
    if (R.hasSection("fault-injector"))
      if (Status S = faultInjector().loadFrom(R); !S.ok())
        return S;
    if (Status S = Stream.seekTo(RecIdx, ByteOff); !S.ok())
      return S;
    Result.Resumed = true;
    if (Opts.Audit) {
      // The restored state must audit clean before a single new record is
      // dispatched: a checkpoint whose CRC is intact but whose counters
      // disagree with each other would otherwise poison the continuation.
      Auditor.adoptBaseline();
      if (Status S = Auditor.finalCheck("resume-restore"); !S.ok())
        return S;
    }
  }
  Result.StartRecord = Stream.recordIndex();

  TraceRecord Rec;
  uint64_t SinceCheckpoint = 0;
  uint64_t RefsSincePoll = 0;
  uint64_t SincePoll = 0;
  try {
    while (Stream.next(Rec)) {
      Rec.dispatch(Counts);
      Rec.dispatch(Bank);
      if (Opts.Audit)
        Rec.dispatch(Auditor);
      ++Result.RecordsReplayed;
      ++SinceCheckpoint;
      if (Rec.Op == TraceRecord::Kind::Ref)
        ++RefsSincePoll;
      // Cooperative cancellation: poll every 64 records. A trip lands in
      // the catch below, which cuts a drain checkpoint at this exact
      // record boundary — resuming from it finishes bit-identically.
      if (++SincePoll >= 64) {
        processBudget().noteRefs(RefsSincePoll);
        RefsSincePoll = 0;
        SincePoll = 0;
        pollCancellation("replay");
      }
      if (Opts.StopAfterRecords &&
          Result.RecordsReplayed >= Opts.StopAfterRecords)
        return Status::failf(
            StatusCode::Aborted,
            "replay stopped after %llu records (test kill)",
            static_cast<unsigned long long>(Result.RecordsReplayed));
      // Checkpoint at every GC boundary and every EveryRefs records. Any
      // record boundary is a safe point: dispatch is deterministic and
      // saveTo drains the bank first.
      bool AtGcEnd = Rec.Op == TraceRecord::Kind::GcEnd;
      bool Periodic = Opts.EveryRefs && SinceCheckpoint >= Opts.EveryRefs;
      if (!Opts.SnapshotPath.empty() && (AtGcEnd || Periodic)) {
        if (Status S = cutReplayCheckpoint(Opts.SnapshotPath, Stream, Bank,
                                           Counts);
            !S.ok())
          return S;
        SinceCheckpoint = 0;
      }
    }
    Bank.flush();
  } catch (const StatusError &E) {
    if (E.status().code() == StatusCode::Cancelled) {
      // A budget, deadline, or signal tripped. The stream sits at a record
      // boundary, so the state is a consistent prefix: drain the workers,
      // cut the drain checkpoint, audit it, and report a partial result.
      Bank.flush();
      if (!Opts.SnapshotPath.empty())
        if (Status S = cutReplayCheckpoint(Opts.SnapshotPath, Stream, Bank,
                                           Counts);
            !S.ok())
          return S;
      if (Opts.Audit)
        if (Status S = Auditor.finalCheck("cancel-drain"); !S.ok())
          return S;
      Result.Outcome = outcomeForReason(cancelToken().reason());
      Result.OutcomeNote = E.status().message();
      Result.Coverage =
          Stream.recordCount()
              ? double(Stream.recordIndex()) / double(Stream.recordCount())
              : -1.0;
      return Result;
    }
    // Divergence/audit failures and rethrown shard-worker exceptions
    // surface through this function's Expected like every other replay
    // error.
    return E.status();
  }
  if (Opts.Audit)
    if (Status S = Auditor.finalCheck(); !S.ok())
      return S;
  Result.Coverage = 1.0;
  return Result;
}
