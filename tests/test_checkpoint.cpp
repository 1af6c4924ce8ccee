//===- test_checkpoint.cpp - Crash-safe replay checkpoint tests -----------===//
//
// The correctness harness for replay checkpoints: a replay killed at any
// record — including exactly at every GC boundary — and resumed from its
// last snapshot must finish with counters bit-identical to an
// uninterrupted replay, serially and threaded, and a checkpoint cut
// against one trace must refuse to resume another.
//
//===----------------------------------------------------------------------===//

#include "gcache/core/Checkpoint.h"
#include "gcache/core/Experiment.h"
#include "gcache/memsys/CacheBank.h"
#include "gcache/trace/TraceFile.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
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
