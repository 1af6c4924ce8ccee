//===- test_checkpoint.cpp - Crash-safe checkpoint/resume tests -----------===//
//
// The correctness harness for the checkpoint layer: a replay killed at any
// record — including exactly at every GC boundary — and resumed from its
// last snapshot must finish with counters bit-identical to an
// uninterrupted replay, serially and threaded. Unit snapshots must
// round-trip a completed ProgramRun exactly, and damaged snapshots
// (corrupted, truncated, or belonging to a different unit/trace) must be
// rejected with the right status, never silently loaded. The supervisor's
// retry/deny/timeout protocol is driven end-to-end through real forks.
//
//===----------------------------------------------------------------------===//

#include "gcache/core/Checkpoint.h"
#include "gcache/core/Experiment.h"
#include "gcache/core/Supervisor.h"
#include "gcache/memsys/CacheBank.h"
#include "gcache/support/Snapshot.h"
#include "gcache/trace/TraceFile.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace gcache;

namespace {

/// Records one small nbody run (Cheney, small semispaces so the trace
/// contains collector phases) once, shared by every test in this binary.
const std::string &recordedTracePath() {
  static const std::string Path = [] {
    std::string P = std::string(::testing::TempDir()) + "/checkpoint_nbody.gct";
    TraceWriter W;
    EXPECT_TRUE(W.open(P).ok());
    ExperimentOptions O;
    O.Scale = 0.05;
    O.Gc = GcKind::Cheney;
    O.SemispaceBytes = 512 << 10;
    O.Grid = CacheGridKind::None;
    O.ExtraSinks = {&W};
    ProgramRun Run = runProgram(nbodyWorkload(), O);
    EXPECT_GT(Run.Collections, 0u) << "trace must contain GC phases";
    EXPECT_TRUE(W.close().ok());
    return P;
  }();
  return Path;
}

/// 1-based record positions of every GC-end record in the recorded trace —
/// the paper pipeline's natural checkpoint cut points, and the positions
/// the kill sweep targets.
const std::vector<uint64_t> &gcBoundaryPositions() {
  static const std::vector<uint64_t> Positions = [] {
    std::vector<uint64_t> P;
    TraceStream S;
    EXPECT_TRUE(S.open(recordedTracePath()).ok());
    TraceRecord Rec;
    uint64_t N = 0;
    while (S.next(Rec)) {
      ++N;
      if (Rec.Op == TraceRecord::Kind::GcEnd)
        P.push_back(N);
    }
    EXPECT_FALSE(P.empty());
    return P;
  }();
  return Positions;
}

void addSmallBank(CacheBank &Bank) {
  CacheConfig A;
  A.SizeBytes = 16 << 10;
  A.BlockBytes = 32;
  A.TrackPerBlockStats = true;
  Bank.addConfig(A);
  CacheConfig B; // defaults: 64K / 64B
  Bank.addConfig(B);
}

void expectCountersEqual(const CacheCounters &S, const CacheCounters &P,
                         const std::string &Where) {
  EXPECT_EQ(S.Loads, P.Loads) << Where;
  EXPECT_EQ(S.Stores, P.Stores) << Where;
  EXPECT_EQ(S.FetchMisses, P.FetchMisses) << Where;
  EXPECT_EQ(S.NoFetchMisses, P.NoFetchMisses) << Where;
  EXPECT_EQ(S.Writebacks, P.Writebacks) << Where;
  EXPECT_EQ(S.WriteThroughs, P.WriteThroughs) << Where;
}

void expectBanksEqual(const CacheBank &Want, const CacheBank &Got) {
  ASSERT_EQ(Want.size(), Got.size());
  for (size_t I = 0; I != Want.size(); ++I) {
    const Cache &S = Want.cache(I);
    const Cache &P = Got.cache(I);
    std::string Where = S.config().label();
    expectCountersEqual(S.counters(Phase::Mutator), P.counters(Phase::Mutator),
                        Where + " (mutator)");
    expectCountersEqual(S.counters(Phase::Collector),
                        P.counters(Phase::Collector), Where + " (collector)");
    EXPECT_EQ(S.perBlockRefs(), P.perBlockRefs()) << Where;
    EXPECT_EQ(S.perBlockMisses(), P.perBlockMisses()) << Where;
    EXPECT_EQ(S.perBlockFetchMisses(), P.perBlockFetchMisses()) << Where;
  }
}

void expectSinksEqual(const CountingSink &Want, const CountingSink &Got) {
  EXPECT_EQ(Want.totalRefs(), Got.totalRefs());
  EXPECT_EQ(Want.mutatorRefs(), Got.mutatorRefs());
  EXPECT_EQ(Want.allocatedBytes(), Got.allocatedBytes());
  EXPECT_EQ(Want.collections(), Got.collections());
}

/// Kills a checkpointed replay after \p KillAfter records, then resumes it
/// in fresh objects (as a restarted process would) and checks the final
/// state against \p CleanBank / \p CleanCounts.
void killAndResume(uint64_t KillAfter, unsigned Threads,
                   const CacheBank &CleanBank,
                   const CountingSink &CleanCounts) {
  std::string Snap = std::string(::testing::TempDir()) + "/replay_kill.snap";
  std::remove(Snap.c_str());
  SCOPED_TRACE("kill after record " + std::to_string(KillAfter) +
               (Threads ? ", threads=" + std::to_string(Threads) : ""));

  ReplayCheckpointOptions Opts;
  Opts.SnapshotPath = Snap;
  Opts.EveryRefs = 50000;
  Opts.StopAfterRecords = KillAfter;
  {
    CacheBank Bank;
    addSmallBank(Bank);
    if (Threads)
      Bank.setThreads(Threads, /*BatchRefs=*/1024);
    CountingSink Counts;
    Expected<ReplayCheckpointResult> R =
        replayTraceCheckpointed(recordedTracePath(), Bank, Counts, Opts);
    ASSERT_FALSE(R.ok());
    EXPECT_EQ(R.status().code(), StatusCode::Aborted);
  }

  // The "restarted process": fresh bank and sink, resume from the snapshot
  // (or from the start when the kill happened before the first cut).
  CacheBank Bank;
  addSmallBank(Bank);
  if (Threads)
    Bank.setThreads(Threads, /*BatchRefs=*/1024);
  CountingSink Counts;
  ReplayCheckpointOptions ResumeOpts;
  ResumeOpts.SnapshotPath = Snap;
  ResumeOpts.EveryRefs = 50000;
  ResumeOpts.Resume = true;
  Expected<ReplayCheckpointResult> R =
      replayTraceCheckpointed(recordedTracePath(), Bank, Counts, ResumeOpts);
  ASSERT_TRUE(R.ok()) << R.status().message();
  expectBanksEqual(CleanBank, Bank);
  expectSinksEqual(CleanCounts, Counts);
  std::remove(Snap.c_str());
}

/// Runs the uninterrupted reference replay once.
void cleanReplay(CacheBank &Bank, CountingSink &Counts) {
  addSmallBank(Bank);
  Expected<ReplayCheckpointResult> R =
      replayTraceCheckpointed(recordedTracePath(), Bank, Counts, {});
  ASSERT_TRUE(R.ok()) << R.status().message();
  ASSERT_GT(R->RecordsReplayed, 0u);
}

std::string readWholeFile(const std::string &Path) {
  FILE *F = std::fopen(Path.c_str(), "rb");
  EXPECT_NE(F, nullptr) << Path;
  if (!F)
    return std::string();
  std::string Data;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Data.append(Buf, N);
  std::fclose(F);
  return Data;
}

void writeWholeFile(const std::string &Path, const std::string &Data) {
  FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr) << Path;
  ASSERT_EQ(std::fwrite(Data.data(), 1, Data.size(), F), Data.size());
  std::fclose(F);
}

/// Simple cross-fork attempt counter for the supervisor tests.
int bumpCounter(const std::string &Path) {
  int N = 0;
  if (FILE *F = std::fopen(Path.c_str(), "rb")) {
    std::fscanf(F, "%d", &N);
    std::fclose(F);
  }
  ++N;
  if (FILE *F = std::fopen(Path.c_str(), "wb")) {
    std::fprintf(F, "%d", N);
    std::fclose(F);
  }
  return N;
}

std::string freshSupervisorDir(const char *Name) {
  std::string Dir = std::string(::testing::TempDir()) + "/" + Name;
  mkdir(Dir.c_str(), 0755);
  std::remove((Dir + "/attempts").c_str());
  std::remove((Dir + "/manifest.json").c_str());
  return Dir;
}

} // namespace

//===----------------------------------------------------------------------===//
// Kill-and-resume equivalence
//===----------------------------------------------------------------------===//

// The headline guarantee: killing the replay at EVERY GC boundary (the
// moment before that boundary's own checkpoint is cut — the worst case)
// and at the record right after it, then resuming, reproduces the clean
// run's counters exactly.
TEST(CheckpointReplay, KillAtEveryGcBoundaryResumesBitIdentical) {
  CacheBank CleanBank;
  CountingSink CleanCounts;
  cleanReplay(CleanBank, CleanCounts);

  for (uint64_t Boundary : gcBoundaryPositions()) {
    killAndResume(Boundary, /*Threads=*/0, CleanBank, CleanCounts);
    killAndResume(Boundary + 1, /*Threads=*/0, CleanBank, CleanCounts);
  }
}

// Arbitrary mid-trace kill points, including before the first checkpoint
// (resume then starts over from record zero).
TEST(CheckpointReplay, KillAtArbitraryRecordsResumesBitIdentical) {
  CacheBank CleanBank;
  CountingSink CleanCounts;
  cleanReplay(CleanBank, CleanCounts);

  uint64_t First = gcBoundaryPositions().front();
  for (uint64_t KillAfter : {uint64_t(1), First / 2, First + 12345})
    killAndResume(KillAfter, /*Threads=*/0, CleanBank, CleanCounts);
}

// The same sweep with a threaded bank: checkpoints are cut at drained
// batch boundaries, so resume equivalence must hold at --threads=4 too —
// and a serial clean run is the reference, so this also re-proves
// serial/parallel equivalence through a kill/resume cycle.
TEST(CheckpointReplay, KillAndResumeWithThreadsMatchesSerialClean) {
  CacheBank CleanBank;
  CountingSink CleanCounts;
  cleanReplay(CleanBank, CleanCounts);

  for (uint64_t Boundary : gcBoundaryPositions())
    killAndResume(Boundary, /*Threads=*/4, CleanBank, CleanCounts);
}

// A checkpoint cut against one trace must refuse to resume a different
// trace.
TEST(CheckpointReplay, RefusesToResumeDifferentTrace) {
  std::string Snap = std::string(::testing::TempDir()) + "/wrong_trace.snap";
  std::remove(Snap.c_str());

  ReplayCheckpointOptions Opts;
  Opts.SnapshotPath = Snap;
  Opts.EveryRefs = 1000;
  Opts.StopAfterRecords = 5000;
  CacheBank Bank;
  addSmallBank(Bank);
  CountingSink Counts;
  Expected<ReplayCheckpointResult> Killed =
      replayTraceCheckpointed(recordedTracePath(), Bank, Counts, Opts);
  ASSERT_EQ(Killed.status().code(), StatusCode::Aborted);

  // A different (tiny, synthetic) trace with the same snapshot path.
  std::string Other = std::string(::testing::TempDir()) + "/other_trace.gct";
  TraceWriter W;
  ASSERT_TRUE(W.open(Other).ok());
  for (Address A = 0; A != 64; A += 4)
    W.onRef({0x1000 + A, AccessKind::Load, Phase::Mutator});
  ASSERT_TRUE(W.close().ok());

  CacheBank Bank2;
  addSmallBank(Bank2);
  CountingSink Counts2;
  ReplayCheckpointOptions Resume;
  Resume.SnapshotPath = Snap;
  Resume.Resume = true;
  Expected<ReplayCheckpointResult> R =
      replayTraceCheckpointed(Other, Bank2, Counts2, Resume);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.status().code(), StatusCode::Corrupt);
  std::remove(Snap.c_str());
}

//===----------------------------------------------------------------------===//
// Unit snapshots
//===----------------------------------------------------------------------===//

namespace {

/// Runs nbody under \p Opts, round-trips the finished run through a unit
/// snapshot, and checks every persisted field.
void roundTripUnit(const char *SnapName, const ExperimentOptions &Opts,
                   const std::string &UnitName) {
  std::string Path = std::string(::testing::TempDir()) + "/" + SnapName;
  ProgramRun Run = runProgram(nbodyWorkload(), Opts);
  ASSERT_TRUE(Run.Bank);
  ASSERT_TRUE(saveUnitSnapshot(Path, Run, Opts.Scale).ok());

  Expected<ProgramRun> Loaded = loadUnitSnapshot(Path, UnitName, Opts.Scale);
  ASSERT_TRUE(Loaded.ok()) << Loaded.status().message();
  EXPECT_EQ(Loaded->Name, Run.Name);
  EXPECT_EQ(Loaded->TotalRefs, Run.TotalRefs);
  EXPECT_EQ(Loaded->MutatorRefs, Run.MutatorRefs);
  EXPECT_EQ(Loaded->AllocBytes, Run.AllocBytes);
  EXPECT_EQ(Loaded->Collections, Run.Collections);
  EXPECT_EQ(Loaded->Output, Run.Output);
  EXPECT_EQ(Loaded->RuntimeVectorAddr, Run.RuntimeVectorAddr);
  EXPECT_EQ(Loaded->StaticBytes, Run.StaticBytes);
  EXPECT_EQ(Loaded->Stats.Instructions, Run.Stats.Instructions);
  EXPECT_EQ(Loaded->Stats.ExtraInstructions, Run.Stats.ExtraInstructions);
  EXPECT_EQ(Loaded->Stats.DynamicBytes, Run.Stats.DynamicBytes);
  EXPECT_EQ(Loaded->Stats.Gc.Collections, Run.Stats.Gc.Collections);
  EXPECT_EQ(Loaded->Stats.Gc.ObjectsCopied, Run.Stats.Gc.ObjectsCopied);
  EXPECT_EQ(Loaded->Stats.Gc.WordsCopied, Run.Stats.Gc.WordsCopied);
  EXPECT_EQ(Loaded->Stats.Gc.Instructions, Run.Stats.Gc.Instructions);
  ASSERT_TRUE(Loaded->Bank);
  expectBanksEqual(*Run.Bank, *Loaded->Bank);
  std::remove(Path.c_str());
}

ExperimentOptions smallControlOptions() {
  ExperimentOptions O;
  O.Scale = 0.05;
  O.Grid = CacheGridKind::SizeSweep;
  return O;
}

} // namespace

TEST(UnitSnapshot, RoundTripsControlRun) {
  ExperimentOptions O = smallControlOptions();
  ProgramRun Probe = runProgram(nbodyWorkload(), O);
  roundTripUnit("unit_control.snap", O, Probe.Name);
}

TEST(UnitSnapshot, RoundTripsCollectedRun) {
  ExperimentOptions O = smallControlOptions();
  O.Gc = GcKind::Cheney;
  O.SemispaceBytes = 512 << 10;
  ProgramRun Probe = runProgram(nbodyWorkload(), O);
  ASSERT_GT(Probe.Collections, 0u);
  roundTripUnit("unit_cheney.snap", O, Probe.Name);
}

TEST(UnitSnapshot, RejectsWrongUnitNameAndScale) {
  std::string Path = std::string(::testing::TempDir()) + "/unit_mismatch.snap";
  ExperimentOptions O = smallControlOptions();
  ProgramRun Run = runProgram(nbodyWorkload(), O);
  ASSERT_TRUE(saveUnitSnapshot(Path, Run, O.Scale).ok());

  Expected<ProgramRun> WrongName =
      loadUnitSnapshot(Path, Run.Name + " (other)", O.Scale);
  ASSERT_FALSE(WrongName.ok());
  EXPECT_EQ(WrongName.status().code(), StatusCode::Corrupt);

  Expected<ProgramRun> WrongScale = loadUnitSnapshot(Path, Run.Name, 0.25);
  ASSERT_FALSE(WrongScale.ok());
  EXPECT_EQ(WrongScale.status().code(), StatusCode::Corrupt);
  std::remove(Path.c_str());
}

TEST(UnitSnapshot, RejectsCorruptedAndTruncatedFiles) {
  std::string Path = std::string(::testing::TempDir()) + "/unit_damage.snap";
  ExperimentOptions O = smallControlOptions();
  ProgramRun Run = runProgram(nbodyWorkload(), O);
  ASSERT_TRUE(saveUnitSnapshot(Path, Run, O.Scale).ok());
  std::string Good = readWholeFile(Path);
  ASSERT_GT(Good.size(), 64u);

  // Flip one payload byte: the section CRC must catch it.
  std::string Flipped = Good;
  Flipped[Flipped.size() - 9] ^= 0x40;
  writeWholeFile(Path, Flipped);
  Expected<ProgramRun> Corrupted = loadUnitSnapshot(Path, Run.Name, O.Scale);
  ASSERT_FALSE(Corrupted.ok());
  EXPECT_EQ(Corrupted.status().code(), StatusCode::Corrupt);

  // A torn write (every proper prefix) must read as Truncated, not load.
  for (size_t Cut : {Good.size() - 1, Good.size() / 2, size_t(20), size_t(3)}) {
    writeWholeFile(Path, Good.substr(0, Cut));
    Expected<ProgramRun> Torn = loadUnitSnapshot(Path, Run.Name, O.Scale);
    ASSERT_FALSE(Torn.ok()) << "cut at " << Cut;
    EXPECT_EQ(Torn.status().code(), StatusCode::Truncated) << "cut at " << Cut;
  }

  // And the intact bytes still load after the damage sweep.
  writeWholeFile(Path, Good);
  EXPECT_TRUE(loadUnitSnapshot(Path, Run.Name, O.Scale).ok());
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Supervisor protocol
//===----------------------------------------------------------------------===//

TEST(Supervisor, RestartsFastAbortingChildUntilItSucceeds) {
  std::string Dir = freshSupervisorDir("sup_retry");
  std::string Counter = Dir + "/attempts";
  SupervisorOptions Opts;
  Opts.CheckpointDir = Dir;
  Opts.MaxRetries = 3;
  Opts.BackoffMs = 1;

  int Exit = runSupervised(Opts, [&] {
    CheckpointContext Ctx;
    Ctx.Dir = Dir;
    if (bumpCounter(Counter) <= 2) {
      markUnitInProgress(Ctx, "unit-a");
      return SupervisedAbortExit;
    }
    return 0;
  });
  EXPECT_EQ(Exit, 0);

  std::string Manifest = readWholeFile(Dir + "/manifest.json");
  EXPECT_NE(Manifest.find("\"result\": \"completed\""), std::string::npos);
  EXPECT_NE(Manifest.find("\"launches\": 3"), std::string::npos);
  EXPECT_NE(Manifest.find("\"unit\": \"unit-a\""), std::string::npos);
}

TEST(Supervisor, DeniesUnitAfterRetriesAndDegradesGracefully) {
  std::string Dir = freshSupervisorDir("sup_deny");
  SupervisorOptions Opts;
  Opts.CheckpointDir = Dir;
  Opts.MaxRetries = 2;
  Opts.BackoffMs = 1;

  int Exit = runSupervised(Opts, [&] {
    CheckpointContext Ctx;
    Ctx.Dir = Dir;
    if (isUnitDenied(Ctx, "bad-unit"))
      return 1; // degrade: mark the unit failed, finish the sweep
    markUnitInProgress(Ctx, "bad-unit");
    return SupervisedAbortExit;
  });
  EXPECT_EQ(Exit, 1);

  std::string Manifest = readWholeFile(Dir + "/manifest.json");
  EXPECT_NE(Manifest.find("\"denied_units\": [\"bad-unit\"]"),
            std::string::npos);
  EXPECT_NE(Manifest.find("\"result\": \"completed\""), std::string::npos);
}

TEST(Supervisor, RestartsCrashedChildAndAttributesTheSignal) {
  std::string Dir = freshSupervisorDir("sup_crash");
  std::string Counter = Dir + "/attempts";
  SupervisorOptions Opts;
  Opts.CheckpointDir = Dir;
  Opts.MaxRetries = 2;
  Opts.BackoffMs = 1;

  int Exit = runSupervised(Opts, [&] {
    CheckpointContext Ctx;
    Ctx.Dir = Dir;
    if (bumpCounter(Counter) == 1) {
      markUnitInProgress(Ctx, "crashy");
      std::abort();
    }
    return 0;
  });
  EXPECT_EQ(Exit, 0);

  std::string Manifest = readWholeFile(Dir + "/manifest.json");
  EXPECT_NE(Manifest.find("\"cause\": \"signal"), std::string::npos);
  EXPECT_NE(Manifest.find("\"unit\": \"crashy\""), std::string::npos);
}

TEST(Supervisor, KillsTimedOutChildAndRestarts) {
  std::string Dir = freshSupervisorDir("sup_timeout");
  std::string Counter = Dir + "/attempts";
  SupervisorOptions Opts;
  Opts.CheckpointDir = Dir;
  Opts.MaxRetries = 2;
  Opts.TimeoutSec = 1;
  Opts.BackoffMs = 1;

  int Exit = runSupervised(Opts, [&] {
    CheckpointContext Ctx;
    Ctx.Dir = Dir;
    if (bumpCounter(Counter) == 1) {
      markUnitInProgress(Ctx, "slow-unit");
      std::this_thread::sleep_for(std::chrono::seconds(30));
    }
    return 0;
  });
  EXPECT_EQ(Exit, 0);

  std::string Manifest = readWholeFile(Dir + "/manifest.json");
  EXPECT_NE(Manifest.find("\"cause\": \"timeout\""), std::string::npos);
  EXPECT_NE(Manifest.find("\"unit\": \"slow-unit\""), std::string::npos);
}

TEST(Supervisor, DoesNotRetryBadFlags) {
  std::string Dir = freshSupervisorDir("sup_badflags");
  std::string Counter = Dir + "/attempts";
  SupervisorOptions Opts;
  Opts.CheckpointDir = Dir;
  Opts.BackoffMs = 1;

  int Exit = runSupervised(Opts, [&] {
    bumpCounter(Counter);
    return 2;
  });
  EXPECT_EQ(Exit, 2);
  EXPECT_EQ(readWholeFile(Counter), "1");
  std::string Manifest = readWholeFile(Dir + "/manifest.json");
  EXPECT_NE(Manifest.find("\"result\": \"bad-flags\""), std::string::npos);
}

TEST(Supervisor, CrashLoopWithoutAttributionHitsLaunchCap) {
  std::string Dir = freshSupervisorDir("sup_loop");
  SupervisorOptions Opts;
  Opts.CheckpointDir = Dir;
  Opts.MaxRetries = 1;
  Opts.MaxLaunches = 3;
  Opts.BackoffMs = 1;

  // No in-progress marker is ever written, so the supervisor cannot deny a
  // unit; the launch cap must stop the loop.
  int Exit = runSupervised(Opts, [] { return SupervisedAbortExit; });
  EXPECT_EQ(Exit, 70);
  std::string Manifest = readWholeFile(Dir + "/manifest.json");
  EXPECT_NE(Manifest.find("\"result\": \"crash-loop\""), std::string::npos);
}
