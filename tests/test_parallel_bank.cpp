//===- test_parallel_bank.cpp - Serial/parallel bank equivalence --------------===//
//
// The correctness harness for CacheBank's threaded mode: record a real
// workload's reference trace once, then replay it into a serial bank and
// into parallel banks at several thread counts, and require every
// counter — per phase, per cache, per block — to be identical
// field-for-field. Threading must be a pure wall-clock optimization with
// no observable effect on any simulated number.
//
//===----------------------------------------------------------------------===//

#include "CacheTestPeer.h"

#include "gcache/core/Experiment.h"
#include "gcache/memsys/CacheBank.h"
#include "gcache/memsys/ShardPool.h"
#include "gcache/support/Random.h"
#include "gcache/trace/TraceFile.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

using namespace gcache;

namespace {

/// Records one small nbody run (Cheney, small semispaces so the trace
/// contains collector phases) and returns the trace path. Recorded once
/// and shared by every test in this binary.
const std::string &recordedTracePath() {
  static const std::string Path = [] {
    std::string P =
        std::string(::testing::TempDir()) + "/parallel_bank_nbody.gct";
    TraceWriter W;
    EXPECT_TRUE(W.open(P).ok());
    ExperimentOptions O;
    O.Scale = 0.05;
    O.Gc = GcKind::Cheney;
    O.SemispaceBytes = 512 << 10;
    O.Grid = CacheGridKind::None; // the banks under test get the refs
    O.ExtraSinks = {&W};
    ProgramRun Run = runProgram(nbodyWorkload(), O);
    EXPECT_GT(Run.Collections, 0u) << "trace must contain GC phases";
    EXPECT_TRUE(W.close().ok());
    EXPECT_GT(W.recordCount(), 0u);
    return P;
  }();
  return Path;
}

void addPaperGridWithBlockStats(CacheBank &Bank) {
  CacheConfig Prototype;
  Prototype.TrackPerBlockStats = true;
  Bank.addPaperGrid(Prototype);
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

void expectBanksEqual(const CacheBank &Serial, const CacheBank &Parallel) {
  ASSERT_EQ(Serial.size(), Parallel.size());
  for (size_t I = 0; I != Serial.size(); ++I) {
    const Cache &S = Serial.cache(I);
    const Cache &P = Parallel.cache(I);
    std::string Where = S.config().label();
    ASSERT_EQ(S.config().SizeBytes, P.config().SizeBytes) << Where;
    ASSERT_EQ(S.config().BlockBytes, P.config().BlockBytes) << Where;
    expectCountersEqual(S.counters(Phase::Mutator), P.counters(Phase::Mutator),
                        Where + " (mutator)");
    expectCountersEqual(S.counters(Phase::Collector),
                        P.counters(Phase::Collector), Where + " (collector)");
    EXPECT_EQ(S.perBlockRefs(), P.perBlockRefs()) << Where;
    EXPECT_EQ(S.perBlockMisses(), P.perBlockMisses()) << Where;
    EXPECT_EQ(S.perBlockFetchMisses(), P.perBlockFetchMisses()) << Where;
  }
}

/// A mixed synthetic stream: allocation-style sequential stores, random
/// loads, and collector-phase traffic.
std::vector<Ref> syntheticStream(size_t N) {
  std::vector<Ref> Stream;
  Stream.reserve(N);
  Rng R(99);
  Address Frontier = 0x10000000;
  for (size_t I = 0; I != N; ++I) {
    switch (I % 5) {
    case 0:
    case 1:
      Stream.push_back({Frontier, AccessKind::Store, Phase::Mutator});
      Frontier += 4;
      break;
    case 2:
      Stream.push_back({0x10000000 + (static_cast<Address>(R.below(1u << 22)) &
                                      ~3u),
                        AccessKind::Load, Phase::Mutator});
      break;
    case 3:
      Stream.push_back({0x20000000 + (static_cast<Address>(R.below(1u << 20)) &
                                      ~3u),
                        AccessKind::Load, Phase::Collector});
      break;
    default:
      Stream.push_back({0x20000000 + (static_cast<Address>(R.below(1u << 20)) &
                                      ~3u),
                        AccessKind::Store, Phase::Collector});
      break;
    }
  }
  return Stream;
}

} // namespace

// The headline test: replaying the recorded workload trace through the
// full paper grid gives bit-identical results at 1, 2, and 4 threads.
TEST(ParallelBank, MatchesSerialOnRecordedTrace) {
  const std::string &Path = recordedTracePath();

  CacheBank Serial;
  addPaperGridWithBlockStats(Serial);
  Expected<uint64_t> SerialRecords = TraceReader::replayEx(Path, Serial);
  ASSERT_TRUE(SerialRecords.ok()) << SerialRecords.status().message();
  ASSERT_GT(*SerialRecords, 0u);

  for (unsigned Threads : {1u, 2u, 4u}) {
    CacheBank Parallel;
    addPaperGridWithBlockStats(Parallel);
    // Small batches force many in-flight batches per worker queue.
    Parallel.setThreads(Threads, /*BatchRefs=*/4096);
    EXPECT_EQ(Parallel.threads(), Threads);
    Expected<uint64_t> Records = TraceReader::replayEx(Path, Parallel);
    ASSERT_TRUE(Records.ok()) << Records.status().message();
    EXPECT_EQ(*Records, *SerialRecords);
    Parallel.flush();
    expectBanksEqual(Serial, Parallel);
  }
}

// More workers than lanes split the longest chain at its midpoint, each
// half a chain of its own. A 64 B size sweep under both write-miss
// policies is one lane of two eight-link chains: 2 workers split it into
// two lanes and 4 workers into four. The recorded trace (collector
// phases, so the collector's fetch-on-write too) must leave every cache
// bit-identical to the serial bank, line for line.
TEST(ParallelBank, SplitChainsMatchSerial) {
  const std::string &Path = recordedTracePath();
  auto AddSweeps = [](CacheBank &Bank) {
    Bank.addSizeSweep(CacheConfig{}, 64);
    Bank.addSizeSweep(
        CacheConfig{.WriteMiss = WriteMissPolicy::FetchOnWrite}, 64);
  };
  CacheBank Serial;
  AddSweeps(Serial);
  ASSERT_TRUE(TraceReader::replayEx(Path, Serial).ok());
  Serial.flush();

  for (unsigned Threads : {2u, 4u}) {
    CacheBank Parallel;
    AddSweeps(Parallel);
    Parallel.setThreads(Threads, /*BatchRefs=*/4096);
    EXPECT_EQ(Parallel.threads(), Threads);
    ASSERT_TRUE(TraceReader::replayEx(Path, Parallel).ok());
    Parallel.flush();
    expectBanksEqual(Serial, Parallel);
    for (size_t I = 0; I != Serial.size(); ++I) {
      const auto &Want = CacheTestPeer::lines(Serial.cache(I));
      const auto &Got = CacheTestPeer::lines(Parallel.cache(I));
      ASSERT_EQ(Want.size(), Got.size());
      for (size_t L = 0; L != Want.size(); ++L)
        ASSERT_TRUE(CacheTestPeer::sameLine(Want[L], Got[L]))
            << Serial.cache(I).config().label() << " line " << L << " at "
            << Threads << " threads";
    }
    EXPECT_TRUE(Parallel.auditAll().ok());
  }
}

// While a bank has fewer lanes than workers, buildLanes halves whichever
// holds more caches, the longest chain or the biggest group of solo
// caches, and the solos on a tie. abl2's bank is one 64 B lane: an 8-link
// chain beside 16 two- and four-way caches, which must not stay in one
// lane while the chain is cut up.
TEST(BuildLanes, HalvesTheLargerOfChainAndSoloGroup) {
  std::vector<std::unique_ptr<Cache>> Caches;
  std::vector<Cache *> Direct, Assoc;
  for (uint32_t Size : paperCacheSizes())
    for (uint32_t Ways : {1u, 2u, 4u}) {
      Caches.push_back(std::make_unique<Cache>(
          CacheConfig{.SizeBytes = Size, .BlockBytes = 64, .Ways = Ways}));
      (Ways == 1 ? Direct : Assoc).push_back(Caches.back().get());
    }
  auto SolosFrom = [&](size_t Begin, size_t End) {
    return std::vector<Cache *>(Assoc.begin() + Begin, Assoc.begin() + End);
  };

  // 2 workers: the chain with 8 solos, and the other 8 solos.
  std::vector<Lane> Two = buildLanes(Caches, 2);
  ASSERT_EQ(Two.size(), 2u);
  ASSERT_EQ(Two[0].Chains.size(), 1u);
  EXPECT_EQ(Two[0].Chains[0], Direct);
  EXPECT_EQ(Two[0].Solos, SolosFrom(0, 8));
  EXPECT_TRUE(Two[1].Chains.empty());
  EXPECT_EQ(Two[1].Solos, SolosFrom(8, 16));

  // 4 workers: the chain stays whole, and each lane holds 4 solos.
  std::vector<Lane> Four = buildLanes(Caches, 4);
  ASSERT_EQ(Four.size(), 4u);
  ASSERT_EQ(Four[0].Chains.size(), 1u);
  EXPECT_EQ(Four[0].Chains[0], Direct);
  for (size_t I = 0; I != Four.size(); ++I) {
    EXPECT_EQ(Four[I].Solos, SolosFrom(4 * I, 4 * I + 4)) << "lane " << I;
    if (I != 0) {
      EXPECT_TRUE(Four[I].Chains.empty()) << "lane " << I;
    }
  }
}

// A cross-checked cache keeps its place in the lanes: its shadow oracle
// checks it where the chain or the walker returns. A cross-checked 64 B
// size sweep beside a 2-way cache is still one 8-link chain and one solo.
TEST(BuildLanes, CrossCheckedCachesKeepTheirLanes) {
  std::vector<std::unique_ptr<Cache>> Caches;
  std::vector<Cache *> Direct;
  for (uint32_t Size : paperCacheSizes()) {
    Caches.push_back(std::make_unique<Cache>(
        CacheConfig{.SizeBytes = Size, .BlockBytes = 64}));
    Direct.push_back(Caches.back().get());
  }
  Caches.push_back(std::make_unique<Cache>(
      CacheConfig{.SizeBytes = 64 << 10, .BlockBytes = 64, .Ways = 2}));
  for (const std::unique_ptr<Cache> &C : Caches)
    C->enableCrossCheck();

  std::vector<Lane> Lanes = buildLanes(Caches, 0);
  ASSERT_EQ(Lanes.size(), 1u);
  ASSERT_EQ(Lanes[0].Chains.size(), 1u);
  EXPECT_EQ(Lanes[0].Chains[0], Direct);
  EXPECT_EQ(Lanes[0].Solos, std::vector<Cache *>{Caches.back().get()});
}

// Feeding the banks directly (no trace file) with flushes at arbitrary
// offsets — including mid-batch — must also be equivalent: flush() only
// synchronizes, it never drops or duplicates work.
TEST(ParallelBank, MatchesSerialOnSyntheticStreamWithArbitraryFlushes) {
  std::vector<Ref> Stream = syntheticStream(120000);

  CacheBank Serial;
  addPaperGridWithBlockStats(Serial);
  for (const Ref &R : Stream)
    Serial.onRef(R);

  for (unsigned Threads : {2u, 4u}) {
    CacheBank Parallel;
    addPaperGridWithBlockStats(Parallel);
    Parallel.setThreads(Threads, /*BatchRefs=*/1024);
    for (size_t I = 0; I != Stream.size(); ++I) {
      Parallel.onRef(Stream[I]);
      if (I == 777 || I == 54321) // odd, non-batch-aligned boundaries
        Parallel.flush();
    }
    Parallel.flush();
    expectBanksEqual(Serial, Parallel);
  }
}

// Re-sharding mid-stream (setThreads between halves, including back to
// serial) drains correctly and preserves equivalence.
TEST(ParallelBank, ReshardingMidStreamPreservesCounters) {
  std::vector<Ref> Stream = syntheticStream(60000);

  CacheBank Serial;
  addPaperGridWithBlockStats(Serial);
  for (const Ref &R : Stream)
    Serial.onRef(R);

  CacheBank Mixed;
  addPaperGridWithBlockStats(Mixed);
  Mixed.setThreads(2, 512);
  for (size_t I = 0; I != 20000; ++I)
    Mixed.onRef(Stream[I]);
  Mixed.setThreads(4, 2048);
  for (size_t I = 20000; I != 40000; ++I)
    Mixed.onRef(Stream[I]);
  Mixed.setThreads(0); // back to serial for the tail
  EXPECT_EQ(Mixed.threads(), 0u);
  for (size_t I = 40000; I != Stream.size(); ++I)
    Mixed.onRef(Stream[I]);
  expectBanksEqual(Serial, Mixed);
}

// End-to-end through ExperimentOptions::Threads: a live collected run with
// a threaded bank reports exactly the same numbers as the serial run,
// including the §6 GC accounting split (flush at phase boundaries).
TEST(ParallelBank, LiveRunWithThreadsOptionMatchesSerial) {
  ExperimentOptions Base;
  Base.Scale = 0.05;
  Base.Gc = GcKind::Cheney;
  Base.SemispaceBytes = 512 << 10;
  Base.Grid = CacheGridKind::SizeSweep;

  ProgramRun SerialRun = runProgram(nbodyWorkload(), Base);
  ASSERT_GT(SerialRun.Collections, 0u);

  ExperimentOptions Threaded = Base;
  Threaded.Threads = 3; // deliberately does not divide the 8-cache sweep
  ProgramRun ThreadedRun = runProgram(nbodyWorkload(), Threaded);

  EXPECT_EQ(SerialRun.TotalRefs, ThreadedRun.TotalRefs);
  EXPECT_EQ(SerialRun.Collections, ThreadedRun.Collections);
  expectBanksEqual(*SerialRun.Bank, *ThreadedRun.Bank);
}

// resetAll in threaded mode drains in-flight batches before clearing, so a
// reset bank restarts from a truly clean state.
TEST(ParallelBank, ResetAllDrainsThenClears) {
  std::vector<Ref> Stream = syntheticStream(30000);

  CacheBank Bank;
  addPaperGridWithBlockStats(Bank);
  Bank.setThreads(2, 1024);
  for (const Ref &R : Stream)
    Bank.onRef(R);
  Bank.resetAll();
  Bank.flush();
  for (size_t I = 0; I != Bank.size(); ++I)
    EXPECT_EQ(Bank.cache(I).totalCounters().refs(), 0u);

  // And the bank is fully usable after the reset.
  CacheBank Serial;
  addPaperGridWithBlockStats(Serial);
  for (const Ref &R : Stream) {
    Serial.onRef(R);
    Bank.onRef(R);
  }
  Bank.flush();
  expectBanksEqual(Serial, Bank);
}

// Caches added, and cross-checking enabled, after setThreads() join the
// bank's lanes: call order does not matter.
TEST(ParallelBank, ConfigsAddedAfterSetThreadsAreSimulated) {
  std::vector<Ref> Stream = syntheticStream(1000);

  CacheBank Empty; // no caches, so no lanes and no workers yet
  Empty.setThreads(2);
  EXPECT_EQ(Empty.threads(), 0u);

  CacheBank Serial;
  Serial.addConfig(CacheConfig{.SizeBytes = 32 << 10, .BlockBytes = 32});
  Serial.addConfig(CacheConfig{.SizeBytes = 64 << 10});
  Serial.enableCrossCheck();
  for (const Ref &R : Stream)
    Serial.onRef(R);

  CacheBank Late;
  Late.addConfig(CacheConfig{.SizeBytes = 32 << 10, .BlockBytes = 32});
  Late.setThreads(2, /*BatchRefs=*/256);
  Late.addConfig(CacheConfig{.SizeBytes = 64 << 10});
  Late.enableCrossCheck();
  EXPECT_EQ(Late.threads(), 2u);
  EXPECT_TRUE(Late.cache(1).crossCheckEnabled());
  for (const Ref &R : Stream)
    Late.onRef(R);
  Late.flush();
  EXPECT_EQ(Late.cache(1).totalCounters().refs(), Stream.size());
  expectBanksEqual(Serial, Late);
}
