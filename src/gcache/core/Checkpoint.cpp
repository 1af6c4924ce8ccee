//===- Checkpoint.cpp - Checkpointed replay and unit snapshots -------------===//

#include "gcache/core/Checkpoint.h"

#include "gcache/core/Audit.h"
#include "gcache/support/FaultInjector.h"
#include "gcache/support/Snapshot.h"
#include "gcache/support/Vfs.h"
#include "gcache/trace/TraceFile.h"

#include <cassert>
#include <cctype>
#include <cstring>

using namespace gcache;

CheckpointContext &gcache::checkpointContext() {
  static CheckpointContext Ctx;
  return Ctx;
}

/// Unit names ("nbody (cheney)") become filesystem-safe slugs.
static std::string sanitizeName(const std::string &Name) {
  std::string Out;
  Out.reserve(Name.size());
  for (char C : Name)
    Out += (std::isalnum(static_cast<unsigned char>(C)) || C == '-' ||
            C == '.')
               ? C
               : '_';
  return Out;
}

std::string
CheckpointContext::unitSnapshotPath(const std::string &UnitName) const {
  return Dir + "/" + sanitizeName(UnitName) + ".snap";
}

std::string CheckpointContext::inProgressPath() const {
  return Dir + "/inprogress";
}

std::string CheckpointContext::denyListPath() const {
  return Dir + "/deny.list";
}

std::string CheckpointContext::outcomesPath() const {
  return Dir + "/outcomes.list";
}

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

bool gcache::isUnitDenied(const CheckpointContext &Ctx,
                          const std::string &UnitName) {
  if (!Ctx.enabled() || !vfs().exists(Ctx.denyListPath()))
    return false;
  Expected<std::string> Text = vfs().readFileText(Ctx.denyListPath());
  if (!Text)
    return false;
  size_t Pos = 0;
  while (Pos < Text->size()) {
    size_t End = Text->find('\n', Pos);
    std::string Line = Text->substr(
        Pos, End == std::string::npos ? std::string::npos : End - Pos);
    while (!Line.empty() && (Line.back() == '\n' || Line.back() == '\r'))
      Line.pop_back();
    if (Line == UnitName)
      return true;
    if (End == std::string::npos)
      break;
    Pos = End + 1;
  }
  return false;
}

void gcache::markUnitInProgress(const CheckpointContext &Ctx,
                                const std::string &UnitName) {
  if (!Ctx.enabled())
    return;
  std::string Line = UnitName + "\n";
  if (Expected<std::unique_ptr<VfsFile>> F =
          vfs().openWrite(Ctx.inProgressPath())) {
    (void)(*F)->write(Line.data(), Line.size());
    (void)(*F)->close(); // Best effort: a torn marker only costs a retry.
  }
}

void gcache::clearUnitInProgress(const CheckpointContext &Ctx) {
  if (!Ctx.enabled())
    return;
  (void)vfs().unlink(Ctx.inProgressPath());
}

//===----------------------------------------------------------------------===//
// Checkpointed replay
//===----------------------------------------------------------------------===//

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

//===----------------------------------------------------------------------===//
// Unit snapshots
//===----------------------------------------------------------------------===//

Status gcache::saveUnitSnapshot(const std::string &Path, ProgramRun &Run,
                                double Scale) {
  assert(Run.Bank && "unit snapshot needs the run's cache bank");
  SnapshotWriter W;
  W.beginSection("program-run");
  W.putString(Run.Name);
  W.putDouble(Scale);
  W.putU64(Run.TotalRefs);
  W.putU64(Run.MutatorRefs);
  W.putU64(Run.AllocBytes);
  W.putU64(Run.Collections);
  W.putString(Run.Output);
  W.putU32(Run.RuntimeVectorAddr);
  W.putU32(Run.StaticBytes);
  W.putU64(Run.Stats.Instructions);
  W.putU64(Run.Stats.ExtraInstructions);
  W.putU64(Run.Stats.DynamicBytes);
  W.putU64(Run.Stats.Gc.Collections);
  W.putU64(Run.Stats.Gc.MajorCollections);
  W.putU64(Run.Stats.Gc.ObjectsCopied);
  W.putU64(Run.Stats.Gc.WordsCopied);
  W.putU64(Run.Stats.Gc.Instructions);
  // Resource-governance stamp: partial snapshots must never be mistaken
  // for completed units on resume (BenchUnitRunner re-runs them).
  W.putString(unitOutcomeName(Run.Outcome));
  W.putString(Run.OutcomeNote);
  W.putDouble(Run.Coverage);
  W.putU8(Run.Degraded ? 1 : 0);
  W.putString(Run.DegradeNote);

  W.beginSection("unit-bank");
  W.putU64(Run.Bank->size());
  for (size_t I = 0; I != Run.Bank->size(); ++I) {
    const CacheConfig &Cfg = Run.Bank->cache(I).config();
    W.putU32(Cfg.SizeBytes);
    W.putU32(Cfg.BlockBytes);
    W.putU32(Cfg.Ways);
    W.putU8(static_cast<uint8_t>(Cfg.WriteMiss));
    W.putU8(static_cast<uint8_t>(Cfg.WriteHit));
    W.putU8(Cfg.CollectorFetchOnWrite ? 1 : 0);
    W.putU8(Cfg.TrackPerBlockStats ? 1 : 0);
  }
  Run.Bank->saveTo(W);
  return W.writeFile(Path);
}

Expected<ProgramRun> gcache::loadUnitSnapshot(const std::string &Path,
                                              const std::string &UnitName,
                                              double Scale) {
  SnapshotReader R;
  if (Status S = R.open(Path); !S.ok())
    return S;

  ProgramRun Run;
  SnapshotCursor C = R.section("program-run");
  Run.Name = C.getString();
  double SavedScale = C.getDouble();
  Run.TotalRefs = C.getU64();
  Run.MutatorRefs = C.getU64();
  Run.AllocBytes = C.getU64();
  Run.Collections = C.getU64();
  Run.Output = C.getString();
  Run.RuntimeVectorAddr = C.getU32();
  Run.StaticBytes = C.getU32();
  Run.Stats.Instructions = C.getU64();
  Run.Stats.ExtraInstructions = C.getU64();
  Run.Stats.DynamicBytes = C.getU64();
  Run.Stats.Gc.Collections = C.getU64();
  Run.Stats.Gc.MajorCollections = C.getU64();
  Run.Stats.Gc.ObjectsCopied = C.getU64();
  Run.Stats.Gc.WordsCopied = C.getU64();
  Run.Stats.Gc.Instructions = C.getU64();
  std::string OutcomeName = C.getString();
  Run.OutcomeNote = C.getString();
  Run.Coverage = C.getDouble();
  Run.Degraded = C.getU8() != 0;
  Run.DegradeNote = C.getString();
  Run.Outcome = unitOutcomeFromName(OutcomeName);
  if (C.ok() && OutcomeName != unitOutcomeName(Run.Outcome))
    C.fail(Status::failf(StatusCode::Corrupt,
                         "snapshot '%s' holds unknown outcome '%s'",
                         Path.c_str(), OutcomeName.c_str()));
  if (C.ok() && (Run.Name != UnitName || SavedScale != Scale))
    C.fail(Status::failf(StatusCode::Corrupt,
                         "snapshot '%s' is for unit '%s' at scale %g, not "
                         "'%s' at scale %g",
                         Path.c_str(), Run.Name.c_str(), SavedScale,
                         UnitName.c_str(), Scale));
  if (Status S = C.finish(); !S.ok())
    return S;

  SnapshotCursor BC = R.section("unit-bank");
  uint64_t NumCaches = BC.getU64();
  auto Bank = std::make_unique<CacheBank>();
  for (uint64_t I = 0; BC.ok() && I != NumCaches; ++I) {
    CacheConfig Cfg;
    Cfg.SizeBytes = BC.getU32();
    Cfg.BlockBytes = BC.getU32();
    Cfg.Ways = BC.getU32();
    Cfg.WriteMiss = static_cast<WriteMissPolicy>(BC.getU8());
    Cfg.WriteHit = static_cast<WriteHitPolicy>(BC.getU8());
    Cfg.CollectorFetchOnWrite = BC.getU8() != 0;
    Cfg.TrackPerBlockStats = BC.getU8() != 0;
    if (!BC.ok())
      break;
    if (!Cfg.isValid()) {
      BC.fail(Status::failf(StatusCode::Corrupt,
                            "snapshot '%s' holds an invalid cache geometry "
                            "(%u B, %u B blocks, %u ways)",
                            Path.c_str(), Cfg.SizeBytes, Cfg.BlockBytes,
                            Cfg.Ways));
      break;
    }
    Bank->addConfig(Cfg);
  }
  if (Status S = BC.finish(); !S.ok())
    return S;
  if (Status S = Bank->loadFrom(R); !S.ok())
    return S;
  Run.Bank = std::move(Bank);
  return Run;
}
