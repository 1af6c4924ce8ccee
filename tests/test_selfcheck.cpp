//===- test_selfcheck.cpp - Shadow oracle and conservation-audit tests ----===//
//
// The correctness harness for the self-validation layer itself:
//
//  - the oracle must agree with the production cache on long random
//    reference streams across the policy matrix (if these two independent
//    implementations ever disagree, one of them is wrong);
//  - the oracle and the auditor must each *catch* deliberately corrupted
//    state — a validator that never fires proves nothing;
//  - cross-checked runs must stay bit-clean serial vs. threaded and
//    across a kill/resume checkpoint cycle;
//  - the 64-bit LRU stamps must keep correct recency order across the
//    2^32 boundary where the old 32-bit stamps wrapped;
//  - hostile container inputs (unknown snapshot sections, absurd trace
//    record counts) must be handled per contract.
//
//===----------------------------------------------------------------------===//

#include "CacheTestPeer.h"

#include "gcache/core/Audit.h"
#include "gcache/core/Checkpoint.h"
#include "gcache/memsys/CacheBank.h"
#include "gcache/memsys/MultiLevelCache.h"
#include "gcache/memsys/OracleCache.h"
#include "gcache/support/Snapshot.h"
#include "gcache/trace/Sinks.h"
#include "gcache/trace/TraceFile.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

using namespace gcache;

namespace {

/// xorshift64* — a deterministic reference stream without <random>.
struct Rng {
  uint64_t S = 0x9e3779b97f4a7c15ull;
  uint64_t next() {
    S ^= S >> 12;
    S ^= S << 25;
    S ^= S >> 27;
    return S * 0x2545f4914f6cdd1dull;
  }
};

/// A mixed-phase reference: clustered addresses (so sets conflict and
/// evict), both kinds, occasional collector phases.
Ref randomRef(Rng &R) {
  uint64_t V = R.next();
  Ref Out;
  Out.Addr = static_cast<Address>((V % 8192) * 4 + (V >> 40) % 4 * 0x10000);
  Out.Kind = (V >> 13) & 1 ? AccessKind::Store : AccessKind::Load;
  Out.ExecPhase = (V >> 17) % 5 == 0 ? Phase::Collector : Phase::Mutator;
  return Out;
}

std::string tempPath(const char *Name) {
  return std::string(::testing::TempDir()) + "/" + Name;
}

//===----------------------------------------------------------------------===//
// Oracle equivalence across the policy matrix
//===----------------------------------------------------------------------===//

class SelfCheckMatrix : public ::testing::TestWithParam<CacheConfig> {};

TEST_P(SelfCheckMatrix, OracleAgreesOnRandomStream) {
  Cache C(GetParam());
  C.enableCrossCheck(1); // compare the hit class of every single ref
  Rng R;
  for (int I = 0; I != 60000; ++I)
    C.onRef(randomRef(R)); // a divergence throws StatusError here
  EXPECT_TRUE(C.crossCheckNow().ok());
  EXPECT_TRUE(C.auditState().ok());
}

INSTANTIATE_TEST_SUITE_P(
    Policies, SelfCheckMatrix,
    ::testing::Values(
        CacheConfig{.SizeBytes = 4 << 10, .BlockBytes = 16},
        CacheConfig{.SizeBytes = 4 << 10, .BlockBytes = 64, .Ways = 4},
        CacheConfig{.SizeBytes = 2 << 10,
                    .BlockBytes = 32,
                    .Ways = 2,
                    .WriteMiss = WriteMissPolicy::FetchOnWrite},
        CacheConfig{.SizeBytes = 2 << 10, .BlockBytes = 32},
        CacheConfig{.SizeBytes = 4 << 10,
                    .BlockBytes = 32,
                    .Ways = 2,
                    .TrackPerBlockStats = true},
        // Direct-mapped without per-block statistics under fetch-on-write,
        // and with them under both write-miss policies.
        CacheConfig{.SizeBytes = 2 << 10,
                    .BlockBytes = 64,
                    .WriteMiss = WriteMissPolicy::FetchOnWrite},
        CacheConfig{.SizeBytes = 2 << 10,
                    .BlockBytes = 32,
                    .TrackPerBlockStats = true},
        CacheConfig{.SizeBytes = 4 << 10,
                    .BlockBytes = 16,
                    .WriteMiss = WriteMissPolicy::FetchOnWrite,
                    .TrackPerBlockStats = true}));

TEST(SelfCheck, SampledCrossCheckOnWarmCache) {
  Cache C({.SizeBytes = 2 << 10, .BlockBytes = 32, .Ways = 2});
  Rng R;
  for (int I = 0; I != 5000; ++I)
    C.onRef(randomRef(R));
  // Attaching to a warm cache resyncs the oracle to current contents.
  C.enableCrossCheck(64);
  for (int I = 0; I != 20000; ++I)
    C.onRef(randomRef(R));
  EXPECT_TRUE(C.crossCheckNow().ok());
}

//===----------------------------------------------------------------------===//
// Mutation tests: the validators must fire on corrupted state
//===----------------------------------------------------------------------===//

TEST(SelfCheckMutation, OracleCatchesCorruptedLineTag) {
  Cache C({.SizeBytes = 1 << 10, .BlockBytes = 32});
  C.enableCrossCheck(1);
  Rng R;
  for (int I = 0; I != 2000; ++I)
    C.onRef(randomRef(R));
  // Flip the tag of some resident line: the set contents no longer match
  // the oracle's view of the same history.
  bool Corrupted = false;
  for (size_t I = 0; I != CacheTestPeer::numLines(C) && !Corrupted; ++I)
    if (CacheTestPeer::line(C, I).ValidMask != 0) {
      CacheTestPeer::line(C, I).Tag ^= 0x5a;
      Corrupted = true;
    }
  ASSERT_TRUE(Corrupted);
  Status S = C.crossCheckNow();
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.code(), StatusCode::Divergence) << S.message();
}

TEST(SelfCheckMutation, OracleCatchesCorruptedCounter) {
  Cache C({.SizeBytes = 1 << 10, .BlockBytes = 32});
  C.enableCrossCheck(1);
  Rng R;
  for (int I = 0; I != 2000; ++I)
    C.onRef(randomRef(R));
  ++CacheTestPeer::counters(C, Phase::Mutator).FetchMisses;
  Status S = C.crossCheckNow();
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.code(), StatusCode::Divergence) << S.message();
}

TEST(SelfCheckMutation, AuditCatchesCounterImbalance) {
  Cache C({.SizeBytes = 1 << 10, .BlockBytes = 32});
  Rng R;
  for (int I = 0; I != 2000; ++I)
    C.onRef(randomRef(R));
  ASSERT_TRUE(C.auditState().ok());
  // More misses than references is impossible in any real run.
  CacheTestPeer::counters(C, Phase::Mutator).FetchMisses += 1u << 20;
  Status S = C.auditState();
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.code(), StatusCode::AuditFailure) << S.message();
}

TEST(SelfCheckMutation, AuditCatchesPerBlockDrift) {
  Cache C({.SizeBytes = 1 << 10, .BlockBytes = 32,
           .TrackPerBlockStats = true});
  Rng R;
  for (int I = 0; I != 2000; ++I)
    C.onRef(randomRef(R));
  ASSERT_TRUE(C.auditState().ok());
  ++CacheTestPeer::blockMisses(C)[0];
  Status S = C.auditState();
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.code(), StatusCode::AuditFailure) << S.message();
}

TEST(SelfCheckMutation, AuditCatchesStampAheadOfClock) {
  Cache C({.SizeBytes = 1 << 10, .BlockBytes = 32, .Ways = 2});
  Rng R;
  for (int I = 0; I != 2000; ++I)
    C.onRef(randomRef(R));
  ASSERT_TRUE(C.auditState().ok());
  for (size_t I = 0; I != CacheTestPeer::numLines(C); ++I)
    if (CacheTestPeer::line(C, I).ValidMask != 0) {
      CacheTestPeer::line(C, I).LruStamp =
          CacheTestPeer::lruClock(C) + 1000;
      break;
    }
  EXPECT_FALSE(C.auditState().ok());
}

// A chain skips a run in its larger links when a smaller link proves it a
// no-op, which is sound only while each block resident in a link is
// resident in the next larger one with at least the same stored words.
// A larger link that lost a stored word must fail the bank's audit, and a
// checkpoint holding that state must be refused as Corrupt.
TEST(SelfCheckMutation, ChainInclusionBreakIsCaughtByAuditAndLoad) {
  CacheConfig Proto{.SizeBytes = 1 << 10, .BlockBytes = 32};
  auto Build = [&](CacheBank &Bank) {
    Bank.addConfig(Proto);
    Bank.addConfig({.SizeBytes = 4 << 10, .BlockBytes = 32});
  };
  CacheBank Bank;
  Build(Bank);
  Rng R;
  for (int I = 0; I != 4000; ++I)
    Bank.onRef(randomRef(R));
  ASSERT_TRUE(Bank.auditAll().ok());

  Cache &Small = Bank.cache(0);
  Cache &Large = Bank.cache(1);
  bool Mutated = false;
  for (size_t I = 0; I != CacheTestPeer::numLines(Small) && !Mutated; ++I) {
    const CacheTestPeer::Line &L = CacheTestPeer::line(Small, I);
    if (L.StoreMask == 0)
      continue;
    const size_t Block = size_t(L.Tag) * CacheTestPeer::numLines(Small) + I;
    CacheTestPeer::Line &M = CacheTestPeer::line(
        Large, Block % CacheTestPeer::numLines(Large));
    M.StoreMask &= ~(L.StoreMask & -L.StoreMask); // its lowest stored word
    Mutated = true;
  }
  ASSERT_TRUE(Mutated);
  ASSERT_TRUE(Large.auditState().ok()) << "each cache alone is consistent";
  Status S = Bank.auditAll();
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.code(), StatusCode::AuditFailure) << S.message();

  SnapshotWriter W;
  Bank.saveTo(W);
  std::string Path = tempPath("broken_chain.gcsnap");
  ASSERT_TRUE(W.writeFile(Path).ok());
  SnapshotReader Rd;
  ASSERT_TRUE(Rd.open(Path).ok()) << "the file itself is CRC-valid";
  CacheBank Fresh;
  Build(Fresh);
  Status L = Fresh.loadFrom(Rd);
  ASSERT_FALSE(L.ok());
  EXPECT_EQ(L.code(), StatusCode::Corrupt) << L.message();
  EXPECT_NE(L.message().find("inclusion"), std::string::npos) << L.message();
}

TEST(SelfCheckMutation, AuditSinkCatchesDriftedBankCounters) {
  CacheBank Bank;
  Bank.addConfig({.SizeBytes = 1 << 10, .BlockBytes = 32});
  CountingSink Counts;
  AuditSink Auditor(&Bank, &Counts);
  TraceBus Bus;
  Bus.addSink(&Counts);
  Bus.addSink(&Bank);
  Bus.addSink(&Auditor); // last, per the runProgram wiring

  Rng R;
  for (int I = 0; I != 1000; ++I)
    Bus.onRef(randomRef(R));
  Bus.onGcBegin(); // audits fire at GC boundaries (no throw = pass)
  Bus.onGcEnd();
  EXPECT_GE(Auditor.auditsRun(), 2u);
  Bank.flush();
  ASSERT_TRUE(Auditor.finalCheck().ok());

  // A cache whose counters drift from the witnessed stream must be
  // caught at the next boundary.
  ++CacheTestPeer::counters(Bank.cache(0), Phase::Mutator).Loads;
  Status S = Auditor.finalCheck();
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.code(), StatusCode::AuditFailure) << S.message();
}

//===----------------------------------------------------------------------===//
// 64-bit LRU stamps across the 2^32 boundary
//===----------------------------------------------------------------------===//

TEST(SelfCheck, LruRecencySurvivesThe32BitBoundary) {
  // 1 KB / 32 B / 2-way: 16 sets; addresses 0, 512, 1024 all map to set 0
  // with tags 0, 1, 2.
  Cache C({.SizeBytes = 1 << 10, .BlockBytes = 32, .Ways = 2});
  C.enableCrossCheck(1);
  // Park the recency clock just below 2^32, where a 32-bit stamp would
  // wrap to 0 and make the most recently touched line look oldest.
  CacheTestPeer::lruClock(C) = (1ull << 32) - 2;

  auto Load = [&](Address A) {
    C.onRef(Ref{A, AccessKind::Load, Phase::Mutator});
  };
  Load(0);    // way 0, stamp below 2^32
  Load(512);  // way 1
  Load(0);    // re-touch: stamp crosses 2^32 — with u32 this wrapped to ~0
  Load(1024); // fill: must evict the true LRU, tag 1 (512)

  bool Tag0Resident = false, Tag1Resident = false, Tag2Resident = false;
  for (uint32_t W = 0; W != 2; ++W) {
    const auto &L = CacheTestPeer::setBase(C, 0)[W];
    if (L.ValidMask == 0)
      continue;
    Tag0Resident |= L.Tag == 0;
    Tag1Resident |= L.Tag == 1;
    Tag2Resident |= L.Tag == 2;
  }
  EXPECT_TRUE(Tag0Resident) << "recently re-touched line was evicted";
  EXPECT_FALSE(Tag1Resident) << "true LRU line survived";
  EXPECT_TRUE(Tag2Resident);
  EXPECT_TRUE(C.crossCheckNow().ok());
  EXPECT_TRUE(C.auditState().ok());
  EXPECT_GT(CacheTestPeer::lruClock(C), 1ull << 32);
}

TEST(SelfCheck, CacheStateSnapshotRoundTripsAcrossTheBoundary) {
  CacheConfig Cfg{.SizeBytes = 1 << 10, .BlockBytes = 32, .Ways = 2};
  Cache C(Cfg);
  CacheTestPeer::lruClock(C) = (1ull << 32) + 17;
  Rng R;
  for (int I = 0; I != 500; ++I)
    C.onRef(randomRef(R));

  SnapshotWriter W;
  W.beginSection("cache-state");
  C.saveState(W);
  std::string Path = tempPath("lru64.gcsnap");
  ASSERT_TRUE(W.writeFile(Path).ok());

  SnapshotReader Rd;
  ASSERT_TRUE(Rd.open(Path).ok());
  Cache C2(Cfg);
  SnapshotCursor Cur = Rd.section("cache-state");
  C2.loadState(Cur);
  ASSERT_TRUE(Cur.finish().ok());
  EXPECT_GT(CacheTestPeer::lruClock(C2), 1ull << 32);
  // The restored cache must behave identically, stamps included.
  C2.enableCrossCheck(1);
  for (int I = 0; I != 500; ++I)
    C2.onRef(randomRef(R));
  EXPECT_TRUE(C2.crossCheckNow().ok());
}

TEST(SelfCheck, PreV2CacheStateIsRejected) {
  CacheConfig Cfg{.SizeBytes = 1 << 10, .BlockBytes = 32};
  // A version-1 image began directly with the geometry (SizeBytes,
  // always a power of two) where v2 has the version sentinel.
  SnapshotWriter W2;
  W2.beginSection("cache-state");
  W2.putU32(Cfg.SizeBytes); // v1 streams started with the geometry
  W2.putU32(Cfg.BlockBytes);
  W2.putU32(Cfg.Ways);
  std::string V1Path = tempPath("prev2_crafted.gcsnap");
  ASSERT_TRUE(W2.writeFile(V1Path).ok());
  SnapshotReader Rd;
  ASSERT_TRUE(Rd.open(V1Path).ok());
  Cache C2(Cfg);
  SnapshotCursor Cur = Rd.section("cache-state");
  C2.loadState(Cur);
  Status S = Cur.finish();
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.code(), StatusCode::Corrupt);
  EXPECT_NE(S.message().find("state version"), std::string::npos)
      << S.message();
}

// Version 2 kept a dirty flag where version 3 keeps the store mask the
// chains filter on; a v2 image cannot say which words were stored.
TEST(SelfCheck, V2CacheStateIsRejected) {
  CacheConfig Cfg{.SizeBytes = 1 << 10, .BlockBytes = 32};
  SnapshotWriter W;
  W.beginSection("cache-state");
  W.putU32(0x65766132); // the v2 sentinel
  W.putU32(Cfg.SizeBytes);
  W.putU32(Cfg.BlockBytes);
  W.putU32(Cfg.Ways);
  std::string Path = tempPath("v2_crafted.gcsnap");
  ASSERT_TRUE(W.writeFile(Path).ok());
  SnapshotReader Rd;
  ASSERT_TRUE(Rd.open(Path).ok());
  Cache C(Cfg);
  SnapshotCursor Cur = Rd.section("cache-state");
  C.loadState(Cur);
  Status S = Cur.finish();
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.code(), StatusCode::Corrupt);
  EXPECT_NE(S.message().find("pre-v3"), std::string::npos) << S.message();
}

// Every cache is write-back and fetches on a collector write miss, so an
// image's write-hit and collector-policy bytes are the constants 0 and 1;
// an image holding any other value is refused.
TEST(SelfCheck, CacheStateWithOtherPolicyBytesIsRejected) {
  CacheConfig Cfg{.SizeBytes = 1 << 10, .BlockBytes = 32};
  Cache C(Cfg);
  Rng R;
  for (int I = 0; I != 500; ++I)
    C.onRef(randomRef(R));
  SnapshotWriter W;
  W.beginSection("cache-state");
  C.saveState(W);
  // The image's one section ends it and begins with the v3 sentinel.
  const std::vector<uint8_t> &Image = W.image();
  const uint8_t Sentinel[] = {0x33, 0x61, 0x76, 0x65};
  auto At = std::search(Image.begin(), Image.end(), std::begin(Sentinel),
                        std::end(Sentinel));
  ASSERT_NE(At, Image.end());
  const std::vector<uint8_t> Payload(At, Image.end());
  // The sentinel and the three u32 geometry fields, then the write-miss,
  // write-hit, collector and per-block bytes.
  constexpr size_t WriteHitAt = 17, CollectorAt = 18;
  ASSERT_EQ(Payload[WriteHitAt], 0);
  ASSERT_EQ(Payload[CollectorAt], 1);
  auto Load = [&](size_t Offset, uint8_t Value) {
    std::vector<uint8_t> Bytes = Payload;
    Bytes[Offset] = Value;
    SnapshotCursor Cur("cache-state", Bytes.data(), Bytes.size());
    Cache C2(Cfg);
    C2.loadState(Cur);
    return Cur.finish();
  };
  EXPECT_TRUE(Load(WriteHitAt, 0).ok());
  for (auto [Offset, Value] : {std::pair<size_t, uint8_t>{WriteHitAt, 1},
                               std::pair<size_t, uint8_t>{CollectorAt, 0}}) {
    Status S = Load(Offset, Value);
    EXPECT_EQ(S.code(), StatusCode::Corrupt) << S.message();
    EXPECT_NE(S.message().find("policy byte"), std::string::npos)
        << S.message();
  }
}

//===----------------------------------------------------------------------===//
// Serial vs. threaded banks under cross-check
//===----------------------------------------------------------------------===//

TEST(SelfCheck, ThreadedBankMatchesSerialUnderCrossCheck) {
  auto Run = [](unsigned Threads) {
    CacheBank Bank;
    Bank.enableCrossCheck(1);
    Bank.addConfig({.SizeBytes = 1 << 10, .BlockBytes = 32});
    Bank.addConfig({.SizeBytes = 4 << 10, .BlockBytes = 64, .Ways = 2});
    if (Threads)
      Bank.setThreads(Threads);
    Rng R;
    for (int I = 0; I != 30000; ++I)
      Bank.onRef(randomRef(R));
    Bank.flush(); // deep-compares every cache against its oracle
    EXPECT_TRUE(Bank.auditAll().ok());
    std::vector<CacheCounters> Out;
    for (size_t I = 0; I != Bank.size(); ++I)
      Out.push_back(Bank.cache(I).totalCounters());
    Bank.setThreads(0);
    return Out;
  };
  std::vector<CacheCounters> Serial = Run(0), Threaded = Run(4);
  ASSERT_EQ(Serial.size(), Threaded.size());
  for (size_t I = 0; I != Serial.size(); ++I) {
    EXPECT_EQ(Serial[I].Loads, Threaded[I].Loads);
    EXPECT_EQ(Serial[I].Stores, Threaded[I].Stores);
    EXPECT_EQ(Serial[I].FetchMisses, Threaded[I].FetchMisses);
    EXPECT_EQ(Serial[I].NoFetchMisses, Threaded[I].NoFetchMisses);
    EXPECT_EQ(Serial[I].Writebacks, Threaded[I].Writebacks);
    EXPECT_EQ(Serial[I].WriteThroughs, Threaded[I].WriteThroughs);
  }
}

//===----------------------------------------------------------------------===//
// Multi-level hierarchy validation
//===----------------------------------------------------------------------===//

TEST(SelfCheck, MultiLevelCrossCheckAndFillConservation) {
  CacheConfig L1{.SizeBytes = 1 << 10, .BlockBytes = 32};
  CacheConfig L2{.SizeBytes = 8 << 10, .BlockBytes = 64};
  MultiLevelCache M(L1, L2);
  M.enableCrossCheck(1);
  Rng R;
  for (int I = 0; I != 30000; ++I)
    M.onRef(randomRef(R));
  EXPECT_TRUE(M.crossCheckNow().ok());
  EXPECT_TRUE(M.auditState().ok());
}

//===----------------------------------------------------------------------===//
// Kill/resume cycle stays audited and bit-clean
//===----------------------------------------------------------------------===//

/// Writes a deterministic trace with three GC cycles.
std::string writeSyntheticTrace() {
  std::string Path = tempPath("selfcheck_synth.gct");
  TraceWriter W;
  EXPECT_TRUE(W.open(Path).ok());
  Rng R;
  for (int Cycle = 0; Cycle != 3; ++Cycle) {
    for (int I = 0; I != 700; ++I) {
      Ref Rf = randomRef(R);
      Rf.ExecPhase = Phase::Mutator;
      W.onRef(Rf);
      if (I % 50 == 0)
        W.onAlloc(Rf.Addr, 16);
    }
    W.onGcBegin();
    for (int I = 0; I != 150; ++I) {
      Ref Rf = randomRef(R);
      Rf.ExecPhase = Phase::Collector;
      W.onRef(Rf);
    }
    W.onGcEnd();
  }
  EXPECT_TRUE(W.close().ok());
  return Path;
}

void addSelfCheckBank(CacheBank &Bank, unsigned Threads) {
  Bank.enableCrossCheck(1);
  Bank.addConfig({.SizeBytes = 1 << 10, .BlockBytes = 32});
  Bank.addConfig({.SizeBytes = 2 << 10, .BlockBytes = 64, .Ways = 2,
                  .TrackPerBlockStats = true});
  if (Threads)
    Bank.setThreads(Threads);
}

class SelfCheckResume : public ::testing::TestWithParam<unsigned> {};

TEST_P(SelfCheckResume, KillResumeStaysAuditedAndBitClean) {
  std::string Trace = writeSyntheticTrace();

  // Uninterrupted baseline, fully audited and cross-checked.
  CacheBank Base;
  CountingSink BaseCounts;
  addSelfCheckBank(Base, GetParam());
  ReplayCheckpointOptions Opts;
  Opts.SnapshotPath = tempPath("selfcheck_base.gcsnap");
  Opts.EveryRefs = 256;
  Opts.Audit = true;
  Expected<ReplayCheckpointResult> Full =
      replayTraceCheckpointed(Trace, Base, BaseCounts, Opts);
  ASSERT_TRUE(Full.ok()) << Full.status().message();
  Base.setThreads(0);

  // Kill mid-replay, then resume from the checkpoint.
  CacheBank Bank;
  CountingSink Counts;
  addSelfCheckBank(Bank, GetParam());
  ReplayCheckpointOptions Kill = Opts;
  Kill.SnapshotPath = tempPath("selfcheck_kill.gcsnap");
  Kill.StopAfterRecords = 1234;
  Expected<ReplayCheckpointResult> Dead =
      replayTraceCheckpointed(Trace, Bank, Counts, Kill);
  ASSERT_FALSE(Dead.ok());
  EXPECT_EQ(Dead.status().code(), StatusCode::Aborted);
  Bank.setThreads(0);

  CacheBank Resumed;
  CountingSink ResumedCounts;
  addSelfCheckBank(Resumed, GetParam());
  ReplayCheckpointOptions Resume = Kill;
  Resume.StopAfterRecords = 0;
  Resume.Resume = true;
  Expected<ReplayCheckpointResult> Done =
      replayTraceCheckpointed(Trace, Resumed, ResumedCounts, Resume);
  ASSERT_TRUE(Done.ok()) << Done.status().message();
  EXPECT_TRUE((*Done).Resumed);
  Resumed.setThreads(0);

  // Restored state must re-audit clean and match the baseline exactly.
  EXPECT_TRUE(Resumed.crossCheckNow().ok());
  EXPECT_TRUE(Resumed.auditAll().ok());
  ASSERT_EQ(Base.size(), Resumed.size());
  for (size_t I = 0; I != Base.size(); ++I) {
    const Cache &B = Base.cache(I);
    const Cache &G = Resumed.cache(I);
    for (Phase P : {Phase::Mutator, Phase::Collector}) {
      EXPECT_EQ(B.counters(P).Loads, G.counters(P).Loads);
      EXPECT_EQ(B.counters(P).Stores, G.counters(P).Stores);
      EXPECT_EQ(B.counters(P).FetchMisses, G.counters(P).FetchMisses);
      EXPECT_EQ(B.counters(P).NoFetchMisses, G.counters(P).NoFetchMisses);
      EXPECT_EQ(B.counters(P).Writebacks, G.counters(P).Writebacks);
      EXPECT_EQ(B.counters(P).WriteThroughs, G.counters(P).WriteThroughs);
    }
    EXPECT_EQ(B.perBlockRefs(), G.perBlockRefs());
    EXPECT_EQ(B.perBlockMisses(), G.perBlockMisses());
  }
  EXPECT_EQ(BaseCounts.totalRefs(), ResumedCounts.totalRefs());
}

INSTANTIATE_TEST_SUITE_P(SerialAndThreaded, SelfCheckResume,
                         ::testing::Values(0u, 4u));

//===----------------------------------------------------------------------===//
// Hostile containers: unknown sections and impossible record counts
//===----------------------------------------------------------------------===//

TEST(SelfCheck, SnapshotWithUnknownSectionStillLoads) {
  CacheConfig Cfg{.SizeBytes = 1 << 10, .BlockBytes = 32};
  Cache C(Cfg);
  Rng R;
  for (int I = 0; I != 1000; ++I)
    C.onRef(randomRef(R));

  SnapshotWriter W;
  W.beginSection("experimental-telemetry"); // from a future version
  W.putU32(7);
  W.putString("sections a reader does not know must not break it");
  W.beginSection("cache-state");
  C.saveState(W);
  std::string Path = tempPath("unknown_section.gcsnap");
  ASSERT_TRUE(W.writeFile(Path).ok());

  SnapshotReader Rd;
  ASSERT_TRUE(Rd.open(Path).ok());
  EXPECT_EQ(Rd.sectionCount(), 2u);
  EXPECT_TRUE(Rd.hasSection("experimental-telemetry"));
  Cache C2(Cfg);
  SnapshotCursor Cur = Rd.section("cache-state");
  C2.loadState(Cur);
  ASSERT_TRUE(Cur.finish().ok());
  EXPECT_EQ(C2.totalCounters().refs(), C.totalCounters().refs());
  EXPECT_TRUE(C2.auditState().ok());
}

TEST(SelfCheck, TraceWithImpossibleRecordCountIsRejected) {
  std::string Path = writeSyntheticTrace();
  std::vector<uint8_t> Bytes;
  {
    FILE *F = std::fopen(Path.c_str(), "rb");
    ASSERT_NE(F, nullptr);
    uint8_t Buf[1 << 12];
    size_t N;
    while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
      Bytes.insert(Bytes.end(), Buf, Buf + N);
    std::fclose(F);
  }
  ASSERT_GT(Bytes.size(), 16u);
  // The header's u64 record count (bytes 8..15) is *not* covered by the
  // footer CRC, which protects record bytes only — so a corrupted count
  // with a valid checksum is a reachable state and must still be caught.
  for (int I = 0; I != 8; ++I)
    Bytes[8 + I] = 0xff;

  TraceStream Strict;
  Status S = Strict.openBuffer(Bytes, /*Salvage=*/false);
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.code(), StatusCode::Corrupt) << S.message();

  // Salvage still recovers the actual records and accounts for the gap
  // between the promise and reality.
  TraceStream Salvaged;
  ASSERT_TRUE(Salvaged.openBuffer(Bytes, /*Salvage=*/true).ok());
  EXPECT_FALSE(Salvaged.damage().ok());
  EXPECT_GT(Salvaged.recordCount(), 0u);
  EXPECT_GT(Salvaged.droppedRecords(), 0u);
  EXPECT_EQ(Salvaged.declaredRecordCount(), ~0ull);
}

} // namespace
