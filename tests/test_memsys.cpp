//===- test_memsys.cpp - Cache simulator and timing unit tests ----------------===//

#include "gcache/memsys/Cache.h"
#include "gcache/memsys/CacheBank.h"
#include "gcache/memsys/MemoryTiming.h"
#include "gcache/memsys/Overhead.h"
#include "gcache/support/Random.h"
#include "gcache/support/Table.h"

#include <gtest/gtest.h>

using namespace gcache;

namespace {
Ref load(Address A, Phase P = Phase::Mutator) {
  return {A, AccessKind::Load, P};
}
Ref store(Address A, Phase P = Phase::Mutator) {
  return {A, AccessKind::Store, P};
}
} // namespace

//===----------------------------------------------------------------------===//
// Timing model (§5): exact paper values.
//===----------------------------------------------------------------------===//

TEST(MemoryTiming, PaperPenaltiesNs) {
  MemoryTiming M;
  EXPECT_EQ(M.missPenaltyNs(16), 240u);
  EXPECT_EQ(M.missPenaltyNs(32), 270u);
  EXPECT_EQ(M.missPenaltyNs(64), 330u);
  EXPECT_EQ(M.missPenaltyNs(128), 450u);
  EXPECT_EQ(M.missPenaltyNs(256), 690u);
}

TEST(MemoryTiming, PaperPenaltyCyclesSlow) {
  MemoryTiming M;
  ProcessorModel Slow = ProcessorModel::slow();
  uint64_t Expected[] = {8, 9, 11, 15, 23};
  int I = 0;
  for (uint32_t B : paperBlockSizes())
    EXPECT_EQ(Slow.missPenaltyCycles(M, B), Expected[I++]) << B;
}

TEST(MemoryTiming, PaperPenaltyCyclesFast) {
  MemoryTiming M;
  ProcessorModel Fast = ProcessorModel::fast();
  uint64_t Expected[] = {120, 135, 165, 225, 345};
  int I = 0;
  for (uint32_t B : paperBlockSizes())
    EXPECT_EQ(Fast.missPenaltyCycles(M, B), Expected[I++]) << B;
}

//===----------------------------------------------------------------------===//
// Cache basics
//===----------------------------------------------------------------------===//

TEST(Cache, ColdLoadMissesThenHits) {
  Cache C({.SizeBytes = 1024, .BlockBytes = 64});
  EXPECT_EQ(C.access(load(0x1000)), AccessResult::FetchMiss);
  EXPECT_EQ(C.access(load(0x1000)), AccessResult::Hit);
  EXPECT_EQ(C.access(load(0x103c)), AccessResult::Hit) << "same block";
  EXPECT_EQ(C.access(load(0x1040)), AccessResult::FetchMiss) << "next block";
}

TEST(Cache, DirectMappedConflict) {
  Cache C({.SizeBytes = 1024, .BlockBytes = 64});
  // 0x1000 and 0x1400 differ by the cache size: same set, different tag.
  EXPECT_EQ(C.access(load(0x1000)), AccessResult::FetchMiss);
  EXPECT_EQ(C.access(load(0x1400)), AccessResult::FetchMiss);
  EXPECT_EQ(C.access(load(0x1000)), AccessResult::FetchMiss) << "evicted";
}

TEST(Cache, TwoWayAvoidsThatConflict) {
  Cache C({.SizeBytes = 1024, .BlockBytes = 64, .Ways = 2});
  EXPECT_EQ(C.access(load(0x1000)), AccessResult::FetchMiss);
  EXPECT_EQ(C.access(load(0x1400)), AccessResult::FetchMiss);
  EXPECT_EQ(C.access(load(0x1000)), AccessResult::Hit);
  EXPECT_EQ(C.access(load(0x1400)), AccessResult::Hit);
}

TEST(Cache, TwoWayLruEviction) {
  Cache C({.SizeBytes = 1024, .BlockBytes = 64, .Ways = 2});
  (void)C.access(load(0x1000)); // way A
  (void)C.access(load(0x1400)); // way B
  (void)C.access(load(0x1000)); // touch A; B is now LRU
  (void)C.access(load(0x1800)); // evicts B
  EXPECT_EQ(C.access(load(0x1000)), AccessResult::Hit);
  EXPECT_EQ(C.access(load(0x1400)), AccessResult::FetchMiss);
}

TEST(Cache, VirtualIndexUsesFullAddress) {
  Cache C({.SizeBytes = 64 * 1024, .BlockBytes = 64});
  // Two addresses 64 KB apart collide in a 64 KB cache.
  (void)C.access(load(0x10000000));
  (void)C.access(load(0x10010000));
  EXPECT_EQ(C.access(load(0x10000000)), AccessResult::FetchMiss);
}

//===----------------------------------------------------------------------===//
// Write-miss policies (§4)
//===----------------------------------------------------------------------===//

TEST(Cache, WriteValidateAllocatesWithoutFetch) {
  Cache C({.SizeBytes = 1024, .BlockBytes = 64});
  EXPECT_EQ(C.access(store(0x2000)), AccessResult::NoFetchWriteMiss);
  EXPECT_EQ(C.counters(Phase::Mutator).FetchMisses, 0u);
  EXPECT_EQ(C.counters(Phase::Mutator).NoFetchMisses, 1u);
  // The written word is readable without a fetch.
  EXPECT_EQ(C.access(load(0x2000)), AccessResult::Hit);
}

TEST(Cache, WriteValidateSubBlockReadMiss) {
  Cache C({.SizeBytes = 1024, .BlockBytes = 64});
  (void)C.access(store(0x2000));
  // A different word of the same block was never fetched: sub-block miss.
  EXPECT_EQ(C.access(load(0x2004)), AccessResult::FetchMiss);
  // The fetch validated the whole block.
  EXPECT_EQ(C.access(load(0x2038)), AccessResult::Hit);
}

TEST(Cache, WriteValidateFullyWrittenBlockNeverFetches) {
  Cache C({.SizeBytes = 1024, .BlockBytes = 16});
  for (Address A = 0x3000; A != 0x3010; A += 4)
    (void)C.access(store(A));
  for (Address A = 0x3000; A != 0x3010; A += 4)
    EXPECT_EQ(C.access(load(A)), AccessResult::Hit);
  EXPECT_EQ(C.totalCounters().FetchMisses, 0u);
}

TEST(Cache, FetchOnWriteFetchesOnWriteMiss) {
  CacheConfig Config{.SizeBytes = 1024, .BlockBytes = 64};
  Config.WriteMiss = WriteMissPolicy::FetchOnWrite;
  Cache C(Config);
  EXPECT_EQ(C.access(store(0x2000)), AccessResult::FetchMiss);
  // Whole block valid afterwards.
  EXPECT_EQ(C.access(load(0x203c)), AccessResult::Hit);
}

TEST(Cache, CollectorPhaseForcedFetchOnWrite) {
  // Paper §6 footnote: the simulator charges fetch-on-write while the
  // collector runs.
  Cache C({.SizeBytes = 1024, .BlockBytes = 64});
  EXPECT_EQ(C.access(store(0x2000, Phase::Collector)),
            AccessResult::FetchMiss);
}

//===----------------------------------------------------------------------===//
// Writebacks
//===----------------------------------------------------------------------===//

TEST(Cache, DirtyEvictionCountsWriteback) {
  Cache C({.SizeBytes = 1024, .BlockBytes = 64});
  (void)C.access(store(0x1000));
  (void)C.access(load(0x1400)); // evicts the dirty block
  EXPECT_EQ(C.totalCounters().Writebacks, 1u);
}

TEST(Cache, CleanEvictionNoWriteback) {
  Cache C({.SizeBytes = 1024, .BlockBytes = 64});
  (void)C.access(load(0x1000));
  (void)C.access(load(0x1400));
  EXPECT_EQ(C.totalCounters().Writebacks, 0u);
}

//===----------------------------------------------------------------------===//
// Phase accounting, stats, bank
//===----------------------------------------------------------------------===//

TEST(Cache, PhaseSeparation) {
  Cache C({.SizeBytes = 1024, .BlockBytes = 64});
  (void)C.access(load(0x1000, Phase::Mutator));
  (void)C.access(load(0x2000, Phase::Collector));
  EXPECT_EQ(C.counters(Phase::Mutator).Loads, 1u);
  EXPECT_EQ(C.counters(Phase::Collector).Loads, 1u);
  EXPECT_EQ(C.totalCounters().Loads, 2u);
}

TEST(Cache, PerBlockStats) {
  CacheConfig Config{.SizeBytes = 1024, .BlockBytes = 64};
  Config.TrackPerBlockStats = true;
  Cache C(Config);
  (void)C.access(load(0x1000));
  (void)C.access(load(0x1000));
  (void)C.access(load(0x1040));
  uint32_t S0 = C.setIndexOf(0x1000);
  uint32_t S1 = C.setIndexOf(0x1040);
  EXPECT_EQ(C.perBlockRefs()[S0], 2u);
  EXPECT_EQ(C.perBlockFetchMisses()[S0], 1u);
  EXPECT_EQ(C.perBlockRefs()[S1], 1u);
}

TEST(Cache, ResetClearsEverything) {
  Cache C({.SizeBytes = 1024, .BlockBytes = 64});
  (void)C.access(load(0x1000));
  C.reset();
  EXPECT_EQ(C.totalCounters().refs(), 0u);
  EXPECT_EQ(C.access(load(0x1000)), AccessResult::FetchMiss);
}

TEST(CacheBank, PaperGridHas40Configs) {
  CacheBank B;
  B.addPaperGrid(CacheConfig());
  EXPECT_EQ(B.size(), 40u);
  EXPECT_NE(B.find(32 << 10, 16), nullptr);
  EXPECT_NE(B.find(4 << 20, 256), nullptr);
  EXPECT_EQ(B.find(8 << 10, 16), nullptr);
}

TEST(CacheBank, DispatchesToAll) {
  CacheBank B;
  B.addSizeSweep(CacheConfig(), 64);
  B.onRef(load(0x1000));
  for (size_t I = 0; I != B.size(); ++I)
    EXPECT_EQ(B.cache(I).totalCounters().refs(), 1u);
}

//===----------------------------------------------------------------------===//
// Overhead metrics
//===----------------------------------------------------------------------===//

TEST(Overhead, CacheOverheadFormula) {
  // 1000 misses at 11 cycles over 110000 instructions = 10%.
  EXPECT_DOUBLE_EQ(cacheOverhead(1000, 11, 110000), 0.1);
}

TEST(Overhead, GcOverheadCanBeNegative) {
  GcOverheadInputs In;
  In.CollectorFetchMisses = 10;
  In.MutatorFetchMissesWithGc = 100;
  In.MutatorFetchMissesControl = 500; // collector improved locality
  In.CollectorInstructions = 100;
  In.MutatorInstructions = 10000;
  In.PenaltyCycles = 11;
  EXPECT_LT(gcOverhead(In), 0.0);
}

TEST(Overhead, GcOverheadAccountsAllTerms) {
  GcOverheadInputs In;
  In.CollectorFetchMisses = 100;
  In.MutatorFetchMissesWithGc = 200;
  In.MutatorFetchMissesControl = 150;
  In.CollectorInstructions = 1000;
  In.ExtraMutatorInstructions = 500;
  In.MutatorInstructions = 100000;
  In.PenaltyCycles = 10;
  // ((100 + 50) * 10 + 1000 + 500) / 100000 = 0.03
  EXPECT_DOUBLE_EQ(gcOverhead(In), 0.03);
}

TEST(Overhead, WriteOverhead) {
  // 100 writebacks x 150ns at 30ns/cycle over 1000 instructions:
  // 100 * 5 cycles / 1000 = 0.5
  EXPECT_DOUBLE_EQ(writeOverhead(100, 150, 30, 1000), 0.5);
}

//===----------------------------------------------------------------------===//
// Property-style sweeps across the paper grid
//===----------------------------------------------------------------------===//

class CacheConfigSweep
    : public ::testing::TestWithParam<std::pair<uint32_t, uint32_t>> {};

TEST_P(CacheConfigSweep, BookkeepingConsistent) {
  auto [Size, Block] = GetParam();
  Cache C({.SizeBytes = Size, .BlockBytes = Block});
  Rng R(Size + Block);
  uint64_t Refs = 20000;
  for (uint64_t I = 0; I != Refs; ++I) {
    Address A = 0x10000000 + (static_cast<Address>(R.below(1 << 22)) & ~3u);
    (void)C.access(R.below(2) ? load(A) : store(A));
  }
  CacheCounters T = C.totalCounters();
  EXPECT_EQ(T.refs(), Refs);
  EXPECT_LE(T.allMisses(), T.refs());
  EXPECT_LE(T.Writebacks, T.allMisses()) << "writebacks only on evictions";
}

TEST_P(CacheConfigSweep, DeterministicReplay) {
  auto [Size, Block] = GetParam();
  auto RunOnce = [&] {
    Cache C({.SizeBytes = Size, .BlockBytes = Block});
    Rng R(99);
    for (int I = 0; I != 5000; ++I) {
      Address A = 0x20000000 + (static_cast<Address>(R.below(1 << 20)) & ~3u);
      (void)C.access(R.below(3) == 0 ? store(A) : load(A));
    }
    return C.totalCounters().FetchMisses;
  };
  EXPECT_EQ(RunOnce(), RunOnce());
}

TEST_P(CacheConfigSweep, SequentialWriteSweepNeverFetches) {
  // Linear allocation's initializing stores under write-validate: one
  // no-fetch miss per block, zero fetches — the §7 allocation wave.
  auto [Size, Block] = GetParam();
  Cache C({.SizeBytes = Size, .BlockBytes = Block});
  uint32_t Blocks = 4 * C.config().numBlocks();
  for (Address A = 0; A != Blocks * Block; A += 4)
    (void)C.access(store(0x10000000 + A));
  EXPECT_EQ(C.totalCounters().FetchMisses, 0u);
  EXPECT_EQ(C.totalCounters().NoFetchMisses, Blocks);
}

INSTANTIATE_TEST_SUITE_P(
    PaperGrid, CacheConfigSweep,
    ::testing::Values(std::pair{32u << 10, 16u}, std::pair{32u << 10, 256u},
                      std::pair{64u << 10, 64u}, std::pair{256u << 10, 32u},
                      std::pair{1u << 20, 128u}, std::pair{4u << 20, 64u},
                      std::pair{4u << 20, 256u}),
    [](const auto &Info) {
      return fmtSize(Info.param.first) + "_" + fmtSize(Info.param.second);
    });
