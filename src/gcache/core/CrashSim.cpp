//===- CrashSim.cpp - Power-loss crash-point sweep --------------------------===//

#include "gcache/core/CrashSim.h"

#include "gcache/core/Checkpoint.h"
#include "gcache/core/Experiment.h"
#include "gcache/memsys/CacheBank.h"
#include "gcache/support/Snapshot.h"
#include "gcache/support/Vfs.h"
#include "gcache/trace/Sinks.h"
#include "gcache/trace/TraceFile.h"
#include "gcache/workloads/Workload.h"

#include <string>

using namespace gcache;

namespace {

/// Every sweep file lives under one FaultVfs directory so the stale-tmp
/// sweep and the A/B slots share the namespace a real deployment would.
const char *const Dir = "crash-sweep";

std::string tracePath() { return std::string(Dir) + "/trace.gct"; }
std::string snapshotPath() { return std::string(Dir) + "/replay.ckpt"; }

/// The two-configuration bank every run simulates (small + default cache;
/// per-block stats on so the digest covers the per-block arrays too).
void buildBank(CacheBank &Bank, const CrashSweepOptions &Opts) {
  CacheConfig A;
  A.SizeBytes = 16 << 10;
  A.BlockBytes = 32;
  A.TrackPerBlockStats = true;
  Bank.addConfig(A);
  CacheConfig B; // Defaults: 64K / 64B.
  Bank.addConfig(B);
  if (Opts.CrossCheck)
    Bank.enableCrossCheck();
  Bank.setThreads(Opts.Threads);
}

/// CRC-32 of the full serialized final state (bank counters, per-block
/// arrays, sink totals) — the bit-identity witness the sweep compares.
uint32_t digestOf(CacheBank &Bank, const CountingSink &Counts) {
  SnapshotWriter W;
  Bank.saveTo(W);
  W.beginSection("counting-sink");
  Counts.save(W);
  return W.contentCrc();
}

struct RunOutput {
  uint32_t Digest = 0;
  bool Resumed = false;
  bool FellBack = false;
  bool Scrubbed = false;
};

/// One checkpointed replay from whatever state the Vfs currently holds.
Expected<RunOutput> runOnce(const CrashSweepOptions &Opts) {
  CacheBank Bank;
  buildBank(Bank, Opts);
  CountingSink Counts;
  ReplayCheckpointOptions R;
  R.SnapshotPath = snapshotPath();
  R.EveryRefs = Opts.EveryRefs;
  R.Resume = true; // Resume-if-present: the cold start has no snapshot.
  R.Audit = Opts.Audit;
  Expected<ReplayCheckpointResult> Res =
      replayTraceCheckpointed(tracePath(), Bank, Counts, R);
  if (!Res)
    return Res.status();
  RunOutput Out;
  Out.Digest = digestOf(Bank, Counts);
  Out.Resumed = Res->Resumed;
  Out.FellBack = Res->SlotFellBack;
  Out.Scrubbed = Res->SlotScrubbed;
  return Out;
}

} // namespace

Expected<CrashSweepResult>
gcache::runCrashSweep(const CrashSweepOptions &Opts) {
  FaultVfs Fv;
  ScopedVfs Guard(Fv);
  CrashSweepResult Result;

  // Setup: record a real collector trace into the in-memory filesystem
  // and make it (and nothing else) the durable base image every crash
  // point restarts from.
  if (Status S = Fv.mkdir(Dir); !S.ok())
    return S;
  const std::string FullPath = std::string(Dir) + "/full.gct";
  {
    TraceWriter W;
    if (Status S = W.open(FullPath); !S.ok())
      return S;
    ExperimentOptions O;
    O.Scale = Opts.Scale;
    O.Gc = Opts.Gc;
    O.SemispaceBytes = Opts.SemispaceBytes;
    // Size the nursery with the heap: the default 512 KiB nursery pushes
    // the first minor collection past a million records, far beyond any
    // trace prefix the sweep can afford to replay per crash point.
    O.Generational.NurseryBytes = Opts.SemispaceBytes;
    O.Grid = CacheGridKind::None;
    O.ExtraSinks = {&W};
    ProgramRun Run = runProgram(nbodyWorkload(), O);
    if (Run.Collections == 0)
      return Status::failf(StatusCode::InvalidArgument,
                           "crash sweep needs GC cycles in the trace; "
                           "scale %.3f produced none",
                           Opts.Scale);
    if (Status S = W.close(); !S.ok())
      return S;
  }
  // Trim to the longest <= MaxTraceRecords prefix ending at a GC boundary:
  // the sweep replays the trace twice per crash point, so its length sets
  // the sweep's cost, and ending at GcEnd keeps every cycle complete.
  {
    TraceStream Full;
    if (Status S = Full.open(FullPath); !S.ok())
      return S;
    uint64_t Keep = 0; // Last GcEnd position within the cap (1-based).
    if (Opts.MaxTraceRecords && Full.recordCount() > Opts.MaxTraceRecords) {
      TraceRecord Rec;
      uint64_t At = 0;
      while (At < Opts.MaxTraceRecords && Full.next(Rec)) {
        ++At;
        if (Rec.Op == TraceRecord::Kind::GcEnd)
          Keep = At;
      }
      if (Keep == 0)
        return Status::failf(StatusCode::InvalidArgument,
                             "no GC boundary within the first %llu of %llu "
                             "trace records; raise MaxTraceRecords or "
                             "shrink the heap",
                             static_cast<unsigned long long>(
                                 Opts.MaxTraceRecords),
                             static_cast<unsigned long long>(
                                 Full.recordCount()));
      TraceStream Again; // No rewind API; the stream is an in-memory buffer.
      if (Status S = Again.open(FullPath); !S.ok())
        return S;
      TraceWriter Trim;
      if (Status S = Trim.open(tracePath()); !S.ok())
        return S;
      for (uint64_t I = 0; I != Keep && Again.next(Rec); ++I)
        Rec.dispatch(Trim);
      if (Status S = Trim.close(); !S.ok())
        return S;
      Result.TraceRecords = Trim.recordCount();
      if (Status S = Fv.unlink(FullPath); !S.ok())
        return S;
    } else {
      Result.TraceRecords = Full.recordCount();
      if (Status S = Fv.rename(FullPath, tracePath()); !S.ok())
        return S;
    }
  }
  Fv.syncAll();
  FaultVfs::Image Base = Fv.durableImage();

  // Reference run: fixes the digest and counts the durable-state
  // transitions the cut sweep will iterate.
  Fv.restoreImage(Base);
  Expected<RunOutput> Clean = runOnce(Opts);
  if (!Clean)
    return Clean.status();
  Result.ReferenceDigest = Clean->Digest;
  Result.MutatingOps = Fv.mutatingOps();
  if (Result.MutatingOps == 0)
    return Status::failf(StatusCode::InvalidArgument,
                         "reference replay performed no durable-state "
                         "transitions; nothing to sweep");

  // Which operation indices to cut at: all of them, or MaxCuts evenly
  // spread (endpoints included) when the caller capped the sweep.
  const uint64_t N = Result.MutatingOps;
  const uint64_t Cuts = Opts.MaxCuts && Opts.MaxCuts < N ? Opts.MaxCuts : N;
  for (uint64_t I = 0; I != Cuts; ++I) {
    uint64_t K = Cuts == N ? I + 1 : 1 + (I * (N - 1)) / (Cuts - 1);

    // Crash: run with the power cut armed at operation K. The run must
    // fail (K is within the reference run's operation count); a success
    // can only mean this run legitimately needed fewer operations, which
    // still must reproduce the reference digest.
    Fv.restoreImage(Base);
    Fv.armPowerCut(K);
    Expected<RunOutput> Crashed = runOnce(Opts);
    ++Result.CutsTested;
    if (Crashed) {
      if (Crashed->Digest != Result.ReferenceDigest)
        return Status::failf(StatusCode::Divergence,
                             "uncut run at op %llu diverged: digest %u, "
                             "reference %u",
                             static_cast<unsigned long long>(K),
                             Crashed->Digest, Result.ReferenceDigest);
      continue;
    }
    ++Result.CutsFired;

    // Reboot: un-synced bytes are gone; then the production startup
    // sequence — sweep stale tmp files, replay with resume.
    Fv.reboot();
    Result.TmpSwept += sweepStaleTmpFiles(Dir);
    Expected<RunOutput> Recovered = runOnce(Opts);
    if (!Recovered)
      return Status::failf(StatusCode::IoError,
                           "power cut at op %llu of %llu is unrecoverable: %s",
                           static_cast<unsigned long long>(K),
                           static_cast<unsigned long long>(N),
                           Recovered.status().message().c_str());
    if (Recovered->Digest != Result.ReferenceDigest)
      return Status::failf(StatusCode::Divergence,
                           "power cut at op %llu of %llu recovered to the "
                           "wrong state: digest %u, reference %u",
                           static_cast<unsigned long long>(K),
                           static_cast<unsigned long long>(N),
                           Recovered->Digest, Result.ReferenceDigest);
    Result.Resumes += Recovered->Resumed;
    Result.SlotFallbacks += Recovered->FellBack;
    Result.SlotScrubs += Recovered->Scrubbed;
  }
  return Result;
}
