//===- test_batch_kernel.cpp - Batch-kernel differential harness ----------===//
//
// The bit-identity proof for the columnar batch kernel
// (memsys/BatchKernel.h). The kernel's contract is that batch-mode
// simulation is *unobservable*: any stream, cut into batches any way,
// must leave a cache in exactly the state per-reference Cache::access
// leaves it in — same counters, same line array (tags, valid masks,
// store masks, LRU stamps), same clock, same per-block statistics.
//
// The harness replays randomized and recorded reference streams through
// three models simultaneously — scalar Cache::access, the batch kernel,
// and OracleCache — and asserts identical counters and LRU state at
// every flush boundary, across the write-miss x associativity x
// block-size matrix. On top of that:
//
//  - batch segmentation invariance (any cut of the same stream agrees);
//  - inclusion chains: every link of 8-size chains at each paper block
//    size, both write-miss policies, with and without per-block
//    statistics, mutator, collector and mixed-phase batches, against
//    Cache::access and OracleCache, including links that leave the chain
//    for a batch and rejoin it, and per-block reference counts of runs the
//    larger links never see;
//  - CacheBank equivalence with standalone caches fed one reference at
//    a time, inline and on lane workers (including more workers than
//    block sizes), with --crosscheck and --audit semantics, and with a
//    shadow oracle attached to one link of a chain mid-stream;
//  - mutated-batch properties: a corrupt columnar batch is rejected by
//    validate(), and any batch that validates processes identically to
//    the scalar path — never a silent divergence;
//  - checkpoint/resume kills at every batch flush boundary, resumed
//    inline or threaded, finishing bit-identical to a clean replay.
//
//===----------------------------------------------------------------------===//

#include "CacheTestPeer.h"

#include "gcache/core/Checkpoint.h"
#include "gcache/memsys/BatchKernel.h"
#include "gcache/memsys/CacheBank.h"
#include "gcache/memsys/OracleCache.h"
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

std::vector<Ref> randomStream(size_t N, uint64_t Seed = 0) {
  Rng R;
  R.S += Seed;
  std::vector<Ref> Out;
  Out.reserve(N);
  for (size_t I = 0; I != N; ++I)
    Out.push_back(randomRef(R));
  return Out;
}

/// Feeds [Begin, End) of \p Refs to \p C through the batch kernel in
/// batches of \p BatchRefs.
void runBatched(Cache &C, const std::vector<Ref> &Refs, size_t BatchRefs,
                size_t Begin = 0, size_t End = SIZE_MAX) {
  End = std::min(End, Refs.size());
  RefColumns B;
  BatchIndex Idx;
  for (size_t I = Begin; I < End;) {
    B.clear();
    for (size_t K = 0; K != BatchRefs && I != End; ++K, ++I)
      B.push_back(Refs[I]);
    Idx.reset(&B);
    BatchKernel::run(C, B, Idx);
  }
}

void expectCountersEqual(const CacheCounters &Want, const CacheCounters &Got,
                         const std::string &Where) {
  EXPECT_EQ(Want.Loads, Got.Loads) << Where;
  EXPECT_EQ(Want.Stores, Got.Stores) << Where;
  EXPECT_EQ(Want.FetchMisses, Got.FetchMisses) << Where;
  EXPECT_EQ(Want.NoFetchMisses, Got.NoFetchMisses) << Where;
  EXPECT_EQ(Want.Writebacks, Got.Writebacks) << Where;
  EXPECT_EQ(Want.WriteThroughs, Got.WriteThroughs) << Where;
}

/// The full bit-identity comparison: counters of both phases, the LRU
/// clock, every line (tag, valid mask, store mask, LRU stamp), and the
/// per-block statistics.
void expectStateIdentical(const Cache &Want, const Cache &Got,
                          const std::string &Where) {
  expectCountersEqual(Want.counters(Phase::Mutator),
                      Got.counters(Phase::Mutator), Where + " (mutator)");
  expectCountersEqual(Want.counters(Phase::Collector),
                      Got.counters(Phase::Collector), Where + " (collector)");
  ASSERT_EQ(CacheTestPeer::lruClockOf(Want), CacheTestPeer::lruClockOf(Got))
      << Where;
  const auto &WL = CacheTestPeer::lines(Want);
  const auto &GL = CacheTestPeer::lines(Got);
  ASSERT_EQ(WL.size(), GL.size()) << Where;
  for (size_t I = 0; I != WL.size(); ++I)
    ASSERT_TRUE(CacheTestPeer::sameLine(WL[I], GL[I]))
        << Where << ": line " << I << " differs (tag " << WL[I].Tag << "/"
        << GL[I].Tag << ", valid " << WL[I].ValidMask << "/" << GL[I].ValidMask
        << ", stored " << WL[I].StoreMask << "/" << GL[I].StoreMask
        << ", stamp "
        << WL[I].LruStamp << "/" << GL[I].LruStamp << ")";
  EXPECT_EQ(Want.perBlockRefs(), Got.perBlockRefs()) << Where;
  EXPECT_EQ(Want.perBlockMisses(), Got.perBlockMisses()) << Where;
  EXPECT_EQ(Want.perBlockFetchMisses(), Got.perBlockFetchMisses()) << Where;
}

/// Compares a batch-kernel-driven cache against the independently-driven
/// oracle: counters of both phases, and every set's resident lines in LRU
/// order (the cache's stamp order must equal the oracle's literal list
/// order).
void expectMatchesOracle(const Cache &C, const OracleCache &O,
                         const std::string &Where) {
  expectCountersEqual(O.counters(Phase::Mutator), C.counters(Phase::Mutator),
                      Where + " (oracle, mutator)");
  expectCountersEqual(O.counters(Phase::Collector),
                      C.counters(Phase::Collector),
                      Where + " (oracle, collector)");
  const auto &Lines = CacheTestPeer::lines(C);
  uint32_t Ways = C.config().Ways;
  for (uint32_t S = 0; S != O.numSets(); ++S) {
    std::vector<CacheTestPeer::Line> Resident;
    for (uint32_t W = 0; W != Ways; ++W) {
      const auto &L = Lines[static_cast<size_t>(S) * Ways + W];
      if (L.ValidMask != 0)
        Resident.push_back(L);
    }
    std::sort(Resident.begin(), Resident.end(),
              [](const CacheTestPeer::Line &A, const CacheTestPeer::Line &B) {
                return A.LruStamp < B.LruStamp;
              });
    const auto &Want = O.set(S);
    ASSERT_EQ(Want.size(), Resident.size()) << Where << ": set " << S;
    for (size_t I = 0; I != Want.size(); ++I) {
      EXPECT_EQ(Want[I].Tag, Resident[I].Tag) << Where << ": set " << S;
      EXPECT_EQ(Want[I].ValidMask, Resident[I].ValidMask)
          << Where << ": set " << S;
      EXPECT_EQ(Want[I].Dirty, Resident[I].dirty())
          << Where << ": set " << S;
    }
  }
}

std::string tempPath(const std::string &Name) {
  return std::string(::testing::TempDir()) + "/" + Name;
}

//===----------------------------------------------------------------------===//
// The headline differential: scalar vs batch vs oracle, policy matrix
//===----------------------------------------------------------------------===//

class BatchKernelMatrix : public ::testing::TestWithParam<CacheConfig> {};

TEST_P(BatchKernelMatrix, ScalarBatchOracleBitIdentical) {
  const CacheConfig Cfg = GetParam();
  SCOPED_TRACE(Cfg.label());
  Cache Scalar(Cfg);
  Cache Batch(Cfg);
  OracleCache Oracle(Cfg);

  // A prime batch size, so flush boundaries land at awkward offsets.
  const size_t BatchRefs = 769;
  std::vector<Ref> Stream = randomStream(40000);

  RefColumns Cols;
  BatchIndex Idx;
  for (size_t I = 0; I < Stream.size();) {
    Cols.clear();
    size_t Boundary = std::min(I + BatchRefs, Stream.size());
    for (; I != Boundary; ++I) {
      Cols.push_back(Stream[I]);
      (void)Scalar.access(Stream[I]);
      (void)Oracle.access(Stream[I]);
    }
    Idx.reset(&Cols);
    BatchKernel::run(Batch, Cols, Idx);
    // Every flush boundary: the three models must agree exactly.
    std::string Where = "after " + std::to_string(I) + " refs";
    expectStateIdentical(Scalar, Batch, Where);
    expectMatchesOracle(Batch, Oracle, Where);
    if (::testing::Test::HasFatalFailure())
      return;
  }
  EXPECT_TRUE(Batch.auditState().ok());
}

// BatchKernel::run takes associative caches (a direct-mapped one is a
// chain link; BatchKernelChain covers those): both write-miss policies,
// 2 and 4 ways, with and without per-block statistics, and every paper
// block size but 128 bytes.
INSTANTIATE_TEST_SUITE_P(
    PolicyMatrix, BatchKernelMatrix,
    ::testing::Values(
        // Write-validate.
        CacheConfig{.SizeBytes = 1 << 10, .BlockBytes = 16, .Ways = 2},
        CacheConfig{.SizeBytes = 2 << 10, .BlockBytes = 64, .Ways = 4,
                    .TrackPerBlockStats = true},
        CacheConfig{.SizeBytes = 4 << 10, .BlockBytes = 64, .Ways = 2,
                    .TrackPerBlockStats = true},
        CacheConfig{.SizeBytes = 4 << 10, .BlockBytes = 32, .Ways = 4},
        // Fetch-on-write misses.
        CacheConfig{.SizeBytes = 4 << 10, .BlockBytes = 256, .Ways = 2,
                    .WriteMiss = WriteMissPolicy::FetchOnWrite},
        CacheConfig{.SizeBytes = 1 << 10, .BlockBytes = 16, .Ways = 4,
                    .WriteMiss = WriteMissPolicy::FetchOnWrite},
        CacheConfig{.SizeBytes = 2 << 10, .BlockBytes = 256, .Ways = 4,
                    .WriteMiss = WriteMissPolicy::FetchOnWrite,
                    .TrackPerBlockStats = true},
        CacheConfig{.SizeBytes = 2 << 10, .BlockBytes = 32, .Ways = 2,
                    .WriteMiss = WriteMissPolicy::FetchOnWrite,
                    .TrackPerBlockStats = true}));

//===----------------------------------------------------------------------===//
// Batch segmentation invariance
//===----------------------------------------------------------------------===//

TEST(BatchKernel, SegmentationIsUnobservable) {
  CacheConfig Cfg{.SizeBytes = 2 << 10, .BlockBytes = 32, .Ways = 2,
                  .TrackPerBlockStats = true};
  std::vector<Ref> Stream = randomStream(20000, /*Seed=*/17);

  Cache Scalar(Cfg);
  for (const Ref &R : Stream)
    (void)Scalar.access(R);

  for (size_t BatchRefs : {size_t(1), size_t(7), size_t(64), size_t(1000),
                           Stream.size()}) {
    Cache Batch(Cfg);
    runBatched(Batch, Stream, BatchRefs);
    expectStateIdentical(Scalar, Batch,
                         "batch size " + std::to_string(BatchRefs));
  }
}

TEST(BatchKernel, EmptyBatchIsANoOp) {
  Cache C({.SizeBytes = 1 << 10, .BlockBytes = 32, .Ways = 2});
  std::vector<Ref> Warm = randomStream(500);
  runBatched(C, Warm, 100);
  uint64_t Clock = CacheTestPeer::lruClockOf(C);
  RefColumns Empty;
  BatchIndex Idx;
  Idx.reset(&Empty);
  BatchKernel::run(C, Empty, Idx);
  EXPECT_EQ(CacheTestPeer::lruClockOf(C), Clock);
}

//===----------------------------------------------------------------------===//
// Inclusion chains (runChain)
//===----------------------------------------------------------------------===//

enum class PhaseMix { Mutator, Collector, Mixed };

/// An allocation-like stream over a \p Footprint-byte region: bursts of
/// sequential stores from a bump pointer (fresh blocks, write-validate
/// allocations, and stores a chain proves are no-ops), re-reads and
/// re-writes of recently allocated words, and random loads and stores
/// anywhere. Under PhaseMix::Mixed the phase flips every few hundred
/// references, with lone references of the other phase in between.
std::vector<Ref> chainStream(size_t N, uint64_t Seed, PhaseMix Mix,
                             Address Footprint) {
  Rng R;
  R.S += Seed;
  std::vector<Ref> Out;
  Out.reserve(N);
  Address Frontier = 0;
  Phase Current = Mix == PhaseMix::Collector ? Phase::Collector
                                             : Phase::Mutator;
  auto Push = [&](Address A, AccessKind K) {
    Phase P = Current;
    if (Mix == PhaseMix::Mixed) {
      if (R.next() % 300 == 0)
        Current = Current == Phase::Mutator ? Phase::Collector
                                            : Phase::Mutator;
      P = R.next() % 50 == 0 ? (Current == Phase::Mutator ? Phase::Collector
                                                          : Phase::Mutator)
                             : Current;
    }
    Out.push_back({A % Footprint, K, P});
  };
  while (Out.size() < N) {
    const uint64_t V = R.next();
    const size_t Burst = 4 + V % 60;
    for (size_t I = 0; I != Burst && Out.size() < N; ++I) {
      switch ((V >> 8) % 3) {
      case 0: // allocation: sequential stores
        Push(Frontier, AccessKind::Store);
        Frontier = (Frontier + 4) % Footprint;
        break;
      case 1: { // recently allocated words, read or rewritten
        const uint64_t W = R.next();
        Push(Frontier - 4 - (W % 1024) * 4 + Footprint,
             W & 1 ? AccessKind::Store : AccessKind::Load);
        break;
      }
      default: { // anywhere
        const uint64_t W = R.next();
        Push(static_cast<Address>(W >> 20) & ~3u,
             W & 1 ? AccessKind::Store : AccessKind::Load);
        break;
      }
      }
    }
  }
  return Out;
}

/// Runs \p Stream through \p Chain (ascending sizes) in batches of
/// \p BatchRefs.
void runChainBatched(const std::vector<Cache *> &Chain,
                     const std::vector<Ref> &Stream, size_t BatchRefs) {
  RefColumns B;
  std::vector<ChainRun> Survivors;
  std::vector<uint64_t> SetRefs;
  for (size_t I = 0; I < Stream.size();) {
    B.clear();
    for (size_t K = 0; K != BatchRefs && I != Stream.size(); ++K, ++I)
      B.push_back(Stream[I]);
    BatchKernel::runChain(Chain, B, Survivors, SetRefs);
  }
  EXPECT_TRUE(std::all_of(SetRefs.begin(), SetRefs.end(),
                          [](uint64_t N) { return N == 0; }))
      << "runChain must leave its histogram zeroed";
}

/// Every link of an 8-size chain, at each paper block size, under both
/// write-miss policies, with and without per-block statistics, over
/// mutator, collector and mixed-phase streams cut into batches of 1, 7,
/// 4096 and the bank's default: bit-identical to a solo Cache::access
/// replay (counters, tags, valid and store masks, per-block arrays) and to
/// OracleCache. The sizes are scaled down from the paper's so the stream's
/// footprint evicts in every link.
class BatchKernelChain : public ::testing::TestWithParam<uint32_t> {};

TEST_P(BatchKernelChain, EveryLinkMatchesScalarAndOracle) {
  const uint32_t BlockBytes = GetParam();
  const std::pair<bool, WriteMissPolicy> Cells[] = {
      {false, WriteMissPolicy::WriteValidate},
      {false, WriteMissPolicy::FetchOnWrite},
      {true, WriteMissPolicy::WriteValidate},
      {true, WriteMissPolicy::FetchOnWrite}};
  for (const auto &[PerBlock, Miss] : Cells) {
    for (PhaseMix Mix :
         {PhaseMix::Mutator, PhaseMix::Collector, PhaseMix::Mixed}) {
      SCOPED_TRACE("policy " + std::to_string(static_cast<int>(Miss)) +
                   ", phases " + std::to_string(static_cast<int>(Mix)) +
                   (PerBlock ? ", per-block" : ""));
      std::vector<CacheConfig> Configs;
      for (uint32_t Size = 1 << 10; Size <= 128 << 10; Size *= 2)
        Configs.push_back({.SizeBytes = Size,
                           .BlockBytes = BlockBytes,
                           .WriteMiss = Miss,
                           .TrackPerBlockStats = PerBlock});
      std::vector<Ref> Stream =
          chainStream(30000, BlockBytes + static_cast<int>(Mix), Mix,
                      /*Footprint=*/512 << 10);
      std::vector<Ref> Random = randomStream(10000, BlockBytes);
      for (Ref &R : Random)
        if (Mix != PhaseMix::Mixed)
          R.ExecPhase =
              Mix == PhaseMix::Mutator ? Phase::Mutator : Phase::Collector;
      Stream.insert(Stream.begin() + 15000, Random.begin(), Random.end());

      std::vector<Cache> Scalar;
      std::vector<OracleCache> Oracle;
      for (const CacheConfig &Cfg : Configs) {
        Scalar.emplace_back(Cfg);
        Oracle.emplace_back(Cfg);
      }
      for (const Ref &R : Stream)
        for (size_t K = 0; K != Configs.size(); ++K) {
          (void)Scalar[K].access(R);
          (void)Oracle[K].access(R);
        }

      for (size_t BatchRefs :
           {size_t(1), size_t(7), size_t(4096), CacheBank::DefaultBatchRefs}) {
        std::vector<Cache> Links;
        for (const CacheConfig &Cfg : Configs)
          Links.emplace_back(Cfg);
        std::vector<Cache *> Chain;
        for (Cache &C : Links) {
          ASSERT_TRUE(BatchKernel::chainable(C));
          Chain.push_back(&C);
        }
        runChainBatched(Chain, Stream, BatchRefs);
        for (size_t K = 0; K != Links.size(); ++K) {
          const std::string Where = Configs[K].label() + ", batch " +
                                    std::to_string(BatchRefs);
          expectStateIdentical(Scalar[K], Links[K], Where);
          expectMatchesOracle(Links[K], Oracle[K], Where);
          EXPECT_TRUE(Links[K].auditState().ok()) << Where;
          if (K != 0) {
            EXPECT_TRUE(Links[K - 1].auditInclusionIn(Links[K]).ok())
                << Where;
          }
          if (::testing::Test::HasFatalFailure())
            return;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PaperBlockSizes, BatchKernelChain,
                         ::testing::ValuesIn(paperBlockSizes()));

// A cache may leave a chain for a batch (a shadow oracle attached to one
// of its links, so the lane feeds every link through Cache::onRefs) and
// rejoin it: every path keeps the store masks, so the inclusion the
// filter needs holds throughout, and with per-block statistics every path
// leaves the per-block arrays complete at the batch boundary.
TEST(BatchKernelChain, LinksLeaveAndRejoinBetweenBatches) {
  std::vector<Ref> Stream =
      chainStream(40000, /*Seed=*/3, PhaseMix::Mixed, 256 << 10);
  for (bool PerBlock : {false, true}) {
    SCOPED_TRACE(PerBlock ? "per-block" : "plain");
    std::vector<Cache> Scalar, Links;
    for (uint32_t Size = 1 << 10; Size <= 16 << 10; Size *= 2) {
      const CacheConfig Cfg{.SizeBytes = Size,
                            .BlockBytes = 32,
                            .TrackPerBlockStats = PerBlock};
      Scalar.emplace_back(Cfg);
      Links.emplace_back(Cfg);
    }
    std::vector<Cache *> Chain;
    for (Cache &C : Links)
      Chain.push_back(&C);
    RefColumns B;
    std::vector<ChainRun> Survivors;
    std::vector<uint64_t> SetRefs;
    for (size_t I = 0, Batch = 0; I < Stream.size(); ++Batch) {
      B.clear();
      for (size_t K = 0; K != 1000 && I != Stream.size(); ++K, ++I) {
        B.push_back(Stream[I]);
        for (Cache &C : Scalar)
          (void)C.access(Stream[I]);
      }
      if (Batch % 3 == 1) {
        // The path of a chain one of whose links is cross-checked.
        const RefSpan All{B.Addr.data(), B.Kind.data(), B.PhaseTag.data(),
                          B.size()};
        for (Cache *C : Chain)
          C->onRefs(All);
      } else if (Batch % 3 == 2) {
        // The path of a cross-checked cache.
        for (size_t Row = 0; Row != B.size(); ++Row)
          for (Cache *C : Chain)
            (void)C->access(B.get(Row));
      } else {
        BatchKernel::runChain(Chain, B, Survivors, SetRefs);
      }
      for (size_t K = 0; K != Links.size(); ++K)
        expectStateIdentical(Scalar[K], Links[K],
                             Links[K].config().label() + ", batch " +
                                 std::to_string(Batch));
      if (::testing::Test::HasFatalFailure())
        return;
    }
  }
}

// The larger links of a chain never see a run the first link proves to be
// a no-op, yet it counts toward their BlockRefs. Repeated loads and
// stores to a few blocks whose every word is stored leave the larger
// links almost nothing to simulate: their reference counts come from the
// first link's histogram alone.
TEST(BatchKernelChain, DroppedRunsStillCountTowardBlockRefs) {
  constexpr uint32_t BlockBytes = 32, Words = BlockBytes / 4, Blocks = 4;
  std::vector<Ref> Stream;
  for (uint32_t Round = 0; Stream.size() < 40000; ++Round)
    for (uint32_t Block = 0; Block != Blocks; ++Block) {
      const Address A = Block * BlockBytes + (Round % Words) * 4;
      const AccessKind K = Round < Words || Round % 3 != 0 ? AccessKind::Store
                                                           : AccessKind::Load;
      Stream.push_back({A, K, Round % 50 < 40 ? Phase::Mutator
                                              : Phase::Collector});
    }

  std::vector<CacheConfig> Configs;
  for (uint32_t Size = 1 << 10; Size <= 32 << 10; Size *= 2)
    Configs.push_back({.SizeBytes = Size,
                       .BlockBytes = BlockBytes,
                       .TrackPerBlockStats = true});
  std::vector<Cache> Scalar(Configs.begin(), Configs.end());
  for (const Ref &R : Stream)
    for (Cache &C : Scalar)
      (void)C.access(R);

  // Any cut into batches gives the same counts.
  for (size_t BatchRefs : {size_t(61), size_t(997)}) {
    std::vector<Cache> Links(Configs.begin(), Configs.end());
    std::vector<Cache *> Chain;
    for (Cache &C : Links)
      Chain.push_back(&C);
    runChainBatched(Chain, Stream, BatchRefs);
    for (size_t K = 0; K != Links.size(); ++K) {
      const std::string Where =
          Configs[K].label() + ", batch " + std::to_string(BatchRefs);
      EXPECT_EQ(Links[K].perBlockRefs(), Scalar[K].perBlockRefs()) << Where;
      uint64_t Refs = 0;
      for (uint64_t N : Links[K].perBlockRefs())
        Refs += N;
      EXPECT_EQ(Refs, Stream.size()) << Where;
      expectStateIdentical(Scalar[K], Links[K], Where);
      EXPECT_TRUE(Links[K].auditState().ok()) << Where;
    }
    // Only the installs and the first store of each word are misses: the
    // larger links simulated next to nothing.
    EXPECT_LE(Links.back().totalCounters().allMisses(), Blocks * Words);
  }
}

TEST(BatchKernelChain, ChainableScreensOutIneligibleCaches) {
  EXPECT_TRUE(BatchKernel::chainable(
      Cache({.SizeBytes = 1 << 10, .BlockBytes = 32})));
  EXPECT_TRUE(BatchKernel::chainable(Cache(
      {.SizeBytes = 1 << 10, .BlockBytes = 32,
       .WriteMiss = WriteMissPolicy::FetchOnWrite})));
  EXPECT_TRUE(BatchKernel::chainable(Cache(
      {.SizeBytes = 1 << 10, .BlockBytes = 32, .TrackPerBlockStats = true})));
  EXPECT_FALSE(BatchKernel::chainable(
      Cache({.SizeBytes = 1 << 10, .BlockBytes = 32, .Ways = 2})));
  EXPECT_FALSE(BatchKernel::chainable(
      Cache({.SizeBytes = 1 << 10, .BlockBytes = 32, .Ways = 4,
             .WriteMiss = WriteMissPolicy::FetchOnWrite})));
  Cache CrossChecked({.SizeBytes = 1 << 10, .BlockBytes = 32});
  CrossChecked.enableCrossCheck(1);
  EXPECT_FALSE(BatchKernel::chainable(CrossChecked));

  // One chain per block size, write-miss policy and per-block flag.
  Cache A({.SizeBytes = 1 << 10, .BlockBytes = 32});
  EXPECT_TRUE(BatchKernel::sameChain(
      A, Cache({.SizeBytes = 4 << 10, .BlockBytes = 32})));
  EXPECT_FALSE(BatchKernel::sameChain(
      A, Cache({.SizeBytes = 4 << 10, .BlockBytes = 64})));
  EXPECT_FALSE(BatchKernel::sameChain(
      A, Cache({.SizeBytes = 4 << 10, .BlockBytes = 32,
                .WriteMiss = WriteMissPolicy::FetchOnWrite})));
  EXPECT_FALSE(BatchKernel::sameChain(
      A, Cache({.SizeBytes = 4 << 10, .BlockBytes = 32,
                .TrackPerBlockStats = true})));
  EXPECT_TRUE(BatchKernel::sameChain(
      Cache({.SizeBytes = 1 << 10, .BlockBytes = 32,
             .TrackPerBlockStats = true}),
      Cache({.SizeBytes = 4 << 10, .BlockBytes = 32,
             .TrackPerBlockStats = true})));
}

//===----------------------------------------------------------------------===//
// The shared per-batch address index
//===----------------------------------------------------------------------===//

TEST(BatchIndex, ColumnsMatchScalarDecomposition) {
  using BC = BatchIndex::BlockColumns;
  RefColumns B;
  Rng R;
  for (int I = 0; I != 1000; ++I)
    B.push_back(randomRef(R));
  BatchIndex Idx;
  Idx.reset(&B);
  for (uint32_t BlockBytes : {16u, 32u, 64u, 128u, 256u}) {
    const auto &Cols = Idx.columnsFor(BlockBytes);
    // Recompute the run decomposition with naive scalar arithmetic and
    // require the packed columns to agree run for run.
    size_t Run = 0;   // index of the run currently being checked
    size_t Start = 0; // first reference of that run
    for (size_t I = 0; I != B.size(); ++I) {
      const Address A = B.Addr[I];
      const uint32_t BI = static_cast<uint32_t>(A / BlockBytes);
      const uint64_t Bit = 1ull << ((A % BlockBytes) / 4);
      const bool IsStore = B.Kind[I] == static_cast<uint8_t>(AccessKind::Store);
      const bool NewRun =
          I == 0 || BI != static_cast<uint32_t>(B.Addr[I - 1] / BlockBytes);
      if (NewRun) {
        if (I != 0) {
          EXPECT_EQ(Cols.RunPacked[Run] & BC::RunLenMask, I - Start);
          ++Run;
        }
        Start = I;
        ASSERT_LT(Run, Cols.NumRuns);
        EXPECT_EQ(Cols.RunBlockIdx[Run], BI);
        EXPECT_EQ(Cols.FirstWordBit[Run], Bit);
        EXPECT_EQ((Cols.RunPacked[Run] & BC::RunFirstIsStore) != 0, IsStore);
        EXPECT_EQ((Cols.RunPacked[Run] & BC::RunFirstCollector) != 0,
                  B.PhaseTag[I] == static_cast<uint8_t>(Phase::Collector));
        EXPECT_EQ(Cols.StoreMask[Run], IsStore ? Bit : 0u);
      } else {
        // Tail reference: stores accumulate into the mask, loads set the
        // tail-load flag forcing the kernel's per-reference walk.
        if (IsStore)
          EXPECT_NE(Cols.StoreMask[Run] & Bit, 0u);
        else
          EXPECT_NE(Cols.RunPacked[Run] & BC::RunHasTailLoad, 0u);
      }
    }
    EXPECT_EQ(Run + 1, Cols.NumRuns);
    EXPECT_EQ(Cols.RunPacked[Run] & BC::RunLenMask, B.size() - Start);
    // The meaningful runs (the first NumRuns entries) cover every
    // reference exactly once.
    size_t TotalLen = 0;
    for (size_t Run = 0; Run != Cols.NumRuns; ++Run)
      TotalLen += Cols.RunPacked[Run] & BC::RunLenMask;
    EXPECT_EQ(TotalLen, B.size());
  }
}

TEST(BatchIndex, ColumnsAreCachedPerBlockSizeAndInvalidatedByReset) {
  RefColumns B1, B2;
  Rng R;
  for (int I = 0; I != 64; ++I)
    B1.push_back(randomRef(R));
  B2.push_back({0x1234, AccessKind::Load, Phase::Mutator});

  BatchIndex Idx;
  Idx.reset(&B1);
  const uint32_t Want = Idx.columnsFor(64).RunBlockIdx[0];
  // Scribble on the cached columns: while the batch is current, repeated
  // columnsFor calls must return the cache, not recompute (recomputing
  // would erase the scribble).
  auto Scribble = [&Idx](uint32_t BlockBytes, uint32_t V) {
    const_cast<BatchIndex::BlockColumns &>(Idx.columnsFor(BlockBytes))
        .RunBlockIdx[0] = V;
  };
  Scribble(64, Want ^ 0xdead);
  EXPECT_EQ(Idx.columnsFor(64).RunBlockIdx[0], Want ^ 0xdead);

  // reset() invalidates: the columns are recomputed for the new batch.
  Idx.reset(&B2);
  const auto &Fresh = Idx.columnsFor(64);
  ASSERT_EQ(Fresh.NumRuns, 1u);
  EXPECT_EQ(Fresh.RunBlockIdx[0], 0x1234u / 64);
  // And re-pointing at the original batch recomputes honestly too.
  Idx.reset(&B1);
  EXPECT_EQ(Idx.columnsFor(64).RunBlockIdx[0], Want);

  // Asking for another block size recomputes in place, and asking for the
  // first size again recomputes it too, erasing the scribble.
  Scribble(64, Want ^ 0xdead);
  EXPECT_EQ(Idx.columnsFor(16).BlockBytes, 16u);
  EXPECT_EQ(Idx.columnsFor(16).RunBlockIdx[0], B1.Addr[0] / 16);
  EXPECT_EQ(Idx.columnsFor(64).RunBlockIdx[0], Want);
}

//===----------------------------------------------------------------------===//
// Untrusted-batch validation and the mutated-batch property
//===----------------------------------------------------------------------===//

TEST(BatchValidate, AcceptsWellFormedRejectsCorrupt) {
  RefColumns B;
  Rng R;
  for (int I = 0; I != 100; ++I)
    B.push_back(randomRef(R));
  EXPECT_TRUE(BatchKernel::validate(B).ok());

  RefColumns Ragged = B;
  Ragged.Kind.pop_back();
  EXPECT_EQ(BatchKernel::validate(Ragged).code(),
            StatusCode::InvalidArgument);

  RefColumns BadKind = B;
  BadKind.Kind[42] = 7;
  EXPECT_EQ(BatchKernel::validate(BadKind).code(),
            StatusCode::InvalidArgument);

  RefColumns BadPhase = B;
  BadPhase.PhaseTag[13] = 0xff;
  EXPECT_EQ(BatchKernel::validate(BadPhase).code(),
            StatusCode::InvalidArgument);
}

// The fuzz property: mutate batches arbitrarily; every mutant is either
// rejected by validate() or processes bit-identically to the scalar
// replay of the same (still well-formed) columns. A silent divergence —
// validate() passing but the kernel disagreeing with the scalar path —
// is the one outcome that must never happen.
TEST(BatchKernelProperty, MutatedBatchesRejectOrProcessIdentically) {
  CacheConfig Cfg{.SizeBytes = 1 << 10, .BlockBytes = 32, .Ways = 2,
                  .TrackPerBlockStats = true};
  Rng R;
  unsigned Rejected = 0, Processed = 0;
  for (int Trial = 0; Trial != 300; ++Trial) {
    RefColumns B;
    size_t N = 1 + R.next() % 200;
    for (size_t I = 0; I != N; ++I)
      B.push_back(randomRef(R));

    // One random mutation per trial, structural or value-level.
    switch (R.next() % 6) {
    case 0:
      B.Kind.pop_back();
      break;
    case 1:
      B.PhaseTag.resize(B.PhaseTag.size() - R.next() % N);
      break;
    case 2:
      B.Addr.push_back(static_cast<Address>(R.next()));
      break;
    case 3:
      // % 4: half the pokes are in-range rewrites, half invalid bytes, so
      // both the reject path and the process path see value mutations.
      B.Kind[R.next() % N] = static_cast<uint8_t>(R.next() % 4);
      break;
    case 4:
      B.PhaseTag[R.next() % N] = static_cast<uint8_t>(R.next() % 4);
      break;
    case 5:
      B.Addr[R.next() % N] = static_cast<Address>(R.next());
      break;
    }

    // The ground truth the kernel must match.
    bool WellFormed = B.Kind.size() == B.Addr.size() &&
                      B.PhaseTag.size() == B.Addr.size();
    for (size_t I = 0; WellFormed && I != B.size(); ++I)
      WellFormed = B.Kind[I] <= 1 && B.PhaseTag[I] <= 1;

    Status V = BatchKernel::validate(B);
    EXPECT_EQ(V.ok(), WellFormed) << "trial " << Trial;
    if (!V.ok()) {
      ++Rejected;
      continue;
    }
    ++Processed;
    Cache Scalar(Cfg), Batch(Cfg);
    for (size_t I = 0; I != B.size(); ++I)
      (void)Scalar.access(B.get(I));
    BatchIndex Idx;
    Idx.reset(&B);
    BatchKernel::run(Batch, B, Idx);
    expectStateIdentical(Scalar, Batch, "trial " + std::to_string(Trial));
    if (::testing::Test::HasFatalFailure())
      return;
  }
  // The mutation mix must actually exercise both outcomes.
  EXPECT_GT(Rejected, 50u);
  EXPECT_GT(Processed, 50u);
}

//===----------------------------------------------------------------------===//
// CacheBank lanes, inline and threaded, against standalone caches
//===----------------------------------------------------------------------===//

void addMixedBank(CacheBank &Bank) {
  Bank.addConfig({.SizeBytes = 16 << 10, .BlockBytes = 32,
                  .TrackPerBlockStats = true});
  Bank.addConfig({.SizeBytes = 8 << 10, .BlockBytes = 64, .Ways = 2});
  Bank.addConfig({.SizeBytes = 4 << 10, .BlockBytes = 16, .Ways = 4,
                  .WriteMiss = WriteMissPolicy::FetchOnWrite});
  Bank.addConfig({.SizeBytes = 64 << 10, .BlockBytes = 64});
}

/// Feeds the stream with a GC phase in the middle (markers flush the
/// bank).
void feedWithGcBoundary(CacheBank &Bank, const std::vector<Ref> &Stream) {
  size_t Half = Stream.size() / 2;
  for (size_t I = 0; I != Half; ++I)
    Bank.onRef(Stream[I]);
  Bank.onGcBegin();
  for (size_t I = Half; I != Stream.size(); ++I)
    Bank.onRef(Stream[I]);
  Bank.onGcEnd();
  Bank.flush();
}

/// The reference model of \p Bank: standalone caches with its
/// configurations, fed \p Stream one reference at a time through
/// Cache::access.
std::vector<Cache> referenceCaches(const CacheBank &Bank,
                                   const std::vector<Ref> &Stream) {
  std::vector<Cache> Out;
  for (size_t I = 0; I != Bank.size(); ++I)
    Out.emplace_back(Bank.cache(I).config());
  for (const Ref &R : Stream)
    for (Cache &C : Out)
      (void)C.access(R);
  return Out;
}

void expectBankMatches(const std::vector<Cache> &Want, const CacheBank &Bank,
                       const std::string &Where) {
  ASSERT_EQ(Want.size(), Bank.size()) << Where;
  for (size_t I = 0; I != Want.size(); ++I)
    expectStateIdentical(Want[I], Bank.cache(I),
                         Want[I].config().label() + Where);
}

TEST(BatchBank, ExecutionModesAreBitIdentical) {
  std::vector<Ref> Stream = randomStream(60000, /*Seed=*/5);

  CacheBank Inline;
  addMixedBank(Inline);
  Inline.setThreads(0, /*BatchRefs=*/1536);
  feedWithGcBoundary(Inline, Stream);

  CacheBank Threaded;
  addMixedBank(Threaded);
  Threaded.setThreads(3, /*BatchRefs=*/1536);
  feedWithGcBoundary(Threaded, Stream);
  Threaded.setThreads(0);

  std::vector<Cache> Reference = referenceCaches(Inline, Stream);
  expectBankMatches(Reference, Inline, " (inline)");
  expectBankMatches(Reference, Threaded, " (threaded)");
  EXPECT_TRUE(Inline.auditAll().ok());
}

// One block size split into lanes at chain midpoints: the eight-cache
// size sweep is one chain, so 2, 4 and 8 workers get 2, 4 and 8 lanes.
TEST(BatchBank, OneBlockSizeSweepSplitsIntoLanes) {
  std::vector<Ref> Stream = randomStream(40000, /*Seed=*/61);
  for (unsigned Threads : {2u, 4u, 8u}) {
    CacheBank Bank;
    Bank.addSizeSweep(CacheConfig{}, 64);
    Bank.setThreads(Threads, /*BatchRefs=*/1024);
    EXPECT_EQ(Bank.threads(), Threads);
    feedWithGcBoundary(Bank, Stream);
    expectBankMatches(referenceCaches(Bank, Stream), Bank,
                      " (" + std::to_string(Threads) + " threads)");
  }
}

// More workers than block sizes: the paper grid's five block sizes are
// split into eight lanes (per-block statistics keep every cache solo).
TEST(BatchBank, PaperGridWithBlockStatsOnMoreWorkersThanBlockSizes) {
  std::vector<Ref> Stream = randomStream(30000, /*Seed=*/67);
  CacheBank Bank;
  Bank.addPaperGrid(CacheConfig{.TrackPerBlockStats = true});
  Bank.setThreads(8, /*BatchRefs=*/2048);
  EXPECT_EQ(Bank.threads(), 8u);
  feedWithGcBoundary(Bank, Stream);
  expectBankMatches(referenceCaches(Bank, Stream), Bank, " (8 threads)");
}

// Reading a threaded bank simulates everything fed so far: no flush().
TEST(BatchBank, ThreadedReadWithoutFlushSeesEveryReference) {
  std::vector<Ref> Stream = randomStream(10000, /*Seed=*/71);
  CacheBank Bank;
  addMixedBank(Bank);
  Bank.setThreads(2, /*BatchRefs=*/768);
  for (const Ref &R : Stream)
    Bank.onRef(R); // 10000 is not a multiple of 768: a partial batch waits
  for (size_t I = 0; I != Bank.size(); ++I)
    EXPECT_EQ(Bank.cache(I).totalCounters().refs(), Stream.size());
  const Cache *Big = Bank.find(64 << 10, 64);
  ASSERT_NE(Big, nullptr);
  EXPECT_EQ(Big->totalCounters().refs(), Stream.size());
  expectBankMatches(referenceCaches(Bank, Stream), Bank, " (unflushed)");
}

//===----------------------------------------------------------------------===//
// --crosscheck and --audit semantics in batch mode
//===----------------------------------------------------------------------===//

TEST(BatchCrossCheck, CleanStreamPassesWithOraclesAttached) {
  CacheBank Bank;
  addMixedBank(Bank);
  Bank.enableCrossCheck(1);
  Bank.setThreads(0, 1024);
  std::vector<Ref> Stream = randomStream(20000, /*Seed=*/31);
  feedWithGcBoundary(Bank, Stream); // flush deep-compares vs the oracles
  EXPECT_TRUE(Bank.crossCheckNow().ok());
  EXPECT_TRUE(Bank.auditAll().ok());

  // The cross-checked batch path must also still count correctly: compare
  // against standalone caches fed one reference at a time.
  expectBankMatches(referenceCaches(Bank, Stream), Bank, "");
}

// CacheBank::cache hands out the cache itself, so a link of a chain can
// gain a shadow oracle after the bank built its lanes. The lane then feeds
// every link of that chain through Cache::onRefs, and every cache still
// ends as standalone caches fed one reference at a time do.
TEST(BatchCrossCheck, OracleAttachedToAChainLinkMidStream) {
  std::vector<Ref> Stream =
      chainStream(40000, /*Seed=*/9, PhaseMix::Mixed, 256 << 10);
  for (unsigned Threads : {0u, 2u}) {
    SCOPED_TRACE(std::to_string(Threads) + " threads");
    CacheBank Bank;
    Bank.addSizeSweep(CacheConfig{}, 32);
    Bank.addConfig({.SizeBytes = 8 << 10, .BlockBytes = 32, .Ways = 2});
    Bank.setThreads(Threads, /*BatchRefs=*/1000);
    const size_t Half = Stream.size() / 2 + 123;
    for (size_t I = 0; I != Half; ++I)
      Bank.onRef(Stream[I]);
    Bank.cache(2).enableCrossCheck(1);
    for (size_t I = Half; I != Stream.size(); ++I)
      Bank.onRef(Stream[I]);
    Bank.flush(); // deep-compares the shadowed link with its oracle
    expectBankMatches(referenceCaches(Bank, Stream), Bank, "");
    EXPECT_TRUE(Bank.auditAll().ok());
  }
}

TEST(BatchCrossCheck, CorruptedStateStillFiresInsideABatch) {
  const CacheConfig Cfg{.SizeBytes = 1 << 10, .BlockBytes = 32};
  Cache C(Cfg);
  C.enableCrossCheck(1);
  std::vector<Ref> Warm = randomStream(2000, /*Seed=*/41);
  runBatched(C, Warm, 256); // falls back to the per-ref oracle path

  // Corrupt a resident line's tag behind the oracle's back, then load a
  // valid word of that line's *original* block: the corrupted cache
  // misses where the oracle hits, so Divergence must be raised from
  // inside BatchKernel::run, exactly as the scalar path would raise it.
  const uint32_t NumSets = Cfg.SizeBytes / Cfg.BlockBytes; // direct-mapped
  size_t Idx = SIZE_MAX;
  for (size_t I = 0; I != CacheTestPeer::numLines(C); ++I)
    if (CacheTestPeer::line(C, I).ValidMask != 0) {
      Idx = I;
      break;
    }
  ASSERT_NE(Idx, SIZE_MAX);
  CacheTestPeer::Line &L = CacheTestPeer::line(C, Idx);
  uint32_t ValidWord = 0;
  while (!(L.ValidMask & (1ull << ValidWord)))
    ++ValidWord;
  Address BlockIdx = (L.Tag * NumSets) + static_cast<Address>(Idx);
  Ref Poison{BlockIdx * Cfg.BlockBytes + ValidWord * 4, AccessKind::Load,
             Phase::Mutator};
  ASSERT_EQ(C.setIndexOf(Poison.Addr), static_cast<uint32_t>(Idx));
  L.Tag ^= 0x5a;

  RefColumns B;
  B.push_back(Poison);
  BatchIndex BatchIdx;
  BatchIdx.reset(&B);
  EXPECT_THROW(BatchKernel::run(C, B, BatchIdx), StatusError);
}

//===----------------------------------------------------------------------===//
// Recorded traces: batched replay of a real program run
//===----------------------------------------------------------------------===//

/// Records one small nbody run (Cheney, small semispaces so the trace
/// contains collector phases) once per process.
const std::string &recordedTracePath() {
  static const std::string Path = [] {
    std::string P = tempPath("batch_nbody.gct");
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

TEST(BatchRecordedTrace, BatchedReplayMatchesScalarReplay) {
  CacheBank Batched;
  addMixedBank(Batched);
  Batched.setThreads(0, 777);
  CountingSink BatchedCounts;
  Expected<ReplayCheckpointResult> B =
      replayTraceCheckpointed(recordedTracePath(), Batched, BatchedCounts, {});
  ASSERT_TRUE(B.ok()) << B.status().message();

  // The reference: the same trace into standalone caches, one reference
  // at a time through Cache::access.
  std::vector<Cache> Scalar;
  for (size_t I = 0; I != Batched.size(); ++I)
    Scalar.emplace_back(Batched.cache(I).config());
  CountingSink ScalarCounts;
  TraceBus Bus;
  Bus.addSink(&ScalarCounts);
  for (Cache &C : Scalar)
    Bus.addSink(&C);
  Expected<uint64_t> ScalarRecords =
      TraceReader::replayEx(recordedTracePath(), Bus);
  ASSERT_TRUE(ScalarRecords.ok()) << ScalarRecords.status().message();
  ASSERT_GT(*ScalarRecords, 0u);

  EXPECT_EQ(*ScalarRecords, B->RecordsReplayed);
  EXPECT_EQ(ScalarCounts.totalRefs(), BatchedCounts.totalRefs());
  expectBankMatches(Scalar, Batched, "");
}

//===----------------------------------------------------------------------===//
// Checkpoint/resume killed at every batch flush boundary
//===----------------------------------------------------------------------===//

/// Writes a small synthetic trace with refs, allocations, and GC phases.
std::string makeSyntheticTrace(const char *Name, unsigned Refs) {
  std::string Path = tempPath(std::string(Name) + ".gct");
  TraceWriter W;
  EXPECT_TRUE(W.open(Path).ok());
  Rng R;
  for (unsigned I = 0; I != Refs; ++I) {
    W.onRef(randomRef(R));
    if (I % 1000 == 999) {
      W.onGcBegin();
      for (int K = 0; K != 50; ++K) {
        Ref G = randomRef(R);
        G.ExecPhase = Phase::Collector;
        W.onRef(G);
      }
      W.onGcEnd();
    }
    if (I % 300 == 299)
      W.onAlloc(static_cast<Address>(R.next()), 16);
  }
  EXPECT_TRUE(W.close().ok());
  return Path;
}

/// The kill-sweep trace: small enough that a replay per batch boundary is
/// cheap, with GC markers and allocations interleaving the ref runs so
/// batch flushes happen both at capacity and at markers.
const std::string &killSweepTracePath() {
  static const std::string Path = makeSyntheticTrace("batch_killsweep", 10000);
  return Path;
}

void addSmallBank(CacheBank &Bank) {
  Bank.addConfig({.SizeBytes = 16 << 10, .BlockBytes = 32,
                  .TrackPerBlockStats = true});
  Bank.addConfig({.SizeBytes = 64 << 10, .BlockBytes = 64});
}

/// Kills a checkpointed replay of the recorded trace after \p KillAfter
/// records (checkpointing every \p BatchRefs records, i.e. at every batch
/// flush), then resumes in fresh objects and checks against the clean
/// state. KillThreads / ResumeThreads select the bank's worker count in
/// each leg, so inline-cut checkpoints resume into threaded replay and
/// vice versa.
void killAndResume(uint64_t KillAfter, size_t BatchRefs, unsigned KillThreads,
                   unsigned ResumeThreads, const CacheBank &CleanBank,
                   const CountingSink &CleanCounts) {
  std::string Snap = tempPath("batch_kill.snap");
  std::remove(Snap.c_str());
  SCOPED_TRACE("kill after record " + std::to_string(KillAfter) + " at " +
               std::to_string(KillThreads) + " threads -> " +
               std::to_string(ResumeThreads));

  ReplayCheckpointOptions Opts;
  Opts.SnapshotPath = Snap;
  Opts.EveryRefs = BatchRefs;
  Opts.StopAfterRecords = KillAfter;
  {
    CacheBank Bank;
    addSmallBank(Bank);
    Bank.setThreads(KillThreads, BatchRefs);
    CountingSink Counts;
    Expected<ReplayCheckpointResult> R =
        replayTraceCheckpointed(killSweepTracePath(), Bank, Counts, Opts);
    ASSERT_FALSE(R.ok());
    EXPECT_EQ(R.status().code(), StatusCode::Aborted);
  }

  CacheBank Bank;
  addSmallBank(Bank);
  Bank.setThreads(ResumeThreads, BatchRefs);
  CountingSink Counts;
  ReplayCheckpointOptions ResumeOpts;
  ResumeOpts.SnapshotPath = Snap;
  ResumeOpts.EveryRefs = BatchRefs;
  ResumeOpts.Resume = true;
  Expected<ReplayCheckpointResult> R =
      replayTraceCheckpointed(killSweepTracePath(), Bank, Counts, ResumeOpts);
  ASSERT_TRUE(R.ok()) << R.status().message();
  ASSERT_EQ(CleanBank.size(), Bank.size());
  for (size_t I = 0; I != CleanBank.size(); ++I)
    expectStateIdentical(CleanBank.cache(I), Bank.cache(I),
                         CleanBank.cache(I).config().label());
  EXPECT_EQ(CleanCounts.totalRefs(), Counts.totalRefs());
  EXPECT_EQ(CleanCounts.mutatorRefs(), Counts.mutatorRefs());
  EXPECT_EQ(CleanCounts.collections(), Counts.collections());
  std::remove(Snap.c_str());
}

TEST(BatchCheckpoint, KillAtEveryBatchFlushResumesBitIdentical) {
  const size_t BatchRefs = 512;

  // An uninterrupted replay is the ground truth for every resumed run.
  CacheBank CleanBank;
  addSmallBank(CleanBank);
  CountingSink CleanCounts;
  Expected<ReplayCheckpointResult> Clean =
      replayTraceCheckpointed(killSweepTracePath(), CleanBank, CleanCounts, {});
  ASSERT_TRUE(Clean.ok()) << Clean.status().message();
  uint64_t Records = Clean->RecordsReplayed;
  ASSERT_GT(Records, 2 * BatchRefs) << "trace too short for a kill sweep";

  // Kill at every batch flush boundary (checkpoints are cut every
  // BatchRefs records, so each kill lands one batch after a cut) plus
  // just before/after one boundary, killed and resumed inline.
  for (uint64_t Kill = BatchRefs; Kill < Records; Kill += BatchRefs)
    killAndResume(Kill, BatchRefs, /*KillThreads=*/0, /*ResumeThreads=*/0,
                  CleanBank, CleanCounts);
  killAndResume(BatchRefs + 1, BatchRefs, 0, 0, CleanBank, CleanCounts);
  killAndResume(2 * BatchRefs - 1, BatchRefs, 0, 0, CleanBank, CleanCounts);
}

TEST(BatchCheckpoint, CrossModeKillAndResumeAreBitIdentical) {
  const size_t BatchRefs = 512;
  CacheBank CleanBank;
  addSmallBank(CleanBank);
  CountingSink CleanCounts;
  Expected<ReplayCheckpointResult> Clean =
      replayTraceCheckpointed(killSweepTracePath(), CleanBank, CleanCounts, {});
  ASSERT_TRUE(Clean.ok()) << Clean.status().message();
  uint64_t Mid = (Clean->RecordsReplayed / (2 * BatchRefs)) * BatchRefs;
  ASSERT_GT(Mid, 0u);

  // A checkpoint cut by an inline bank must resume on three workers
  // bit-identically, and vice versa — the snapshot format cannot know
  // how many workers produced it.
  killAndResume(Mid, BatchRefs, /*KillThreads=*/0, /*ResumeThreads=*/3,
                CleanBank, CleanCounts);
  killAndResume(Mid, BatchRefs, /*KillThreads=*/3, /*ResumeThreads=*/0,
                CleanBank, CleanCounts);
}

//===----------------------------------------------------------------------===//
// The Experiment wiring: batched runs equal per-reference simulation
//===----------------------------------------------------------------------===//

TEST(BatchExperiment, BatchedRunMatchesScalarRun) {
  ExperimentOptions Batched;
  Batched.Scale = 0.05;
  Batched.Grid = CacheGridKind::SizeSweep;
  Batched.BatchRefs = 4096;
  ProgramRun B = runProgram(nbodyWorkload(), Batched);

  // The reference: standalone caches with the same configurations riding
  // the bus of an identical run, one reference at a time.
  std::vector<Cache> Scalar;
  for (size_t I = 0; I != B.Bank->size(); ++I)
    Scalar.emplace_back(B.Bank->cache(I).config());
  ExperimentOptions Plain = Batched;
  Plain.Grid = CacheGridKind::None;
  for (Cache &C : Scalar)
    Plain.ExtraSinks.push_back(&C);
  ProgramRun A = runProgram(nbodyWorkload(), Plain);

  ASSERT_EQ(Scalar.size(), B.Bank->size());
  EXPECT_EQ(A.TotalRefs, B.TotalRefs);
  expectBankMatches(Scalar, *B.Bank, "");
  // The returned bank has no workers, and callers can keep feeding it and
  // read it without flushing.
  EXPECT_EQ(B.Bank->threads(), 0u);
  const Ref Extra{0x10000040, AccessKind::Load, Phase::Mutator};
  B.Bank->onRef(Extra);
  (void)Scalar[0].access(Extra);
  expectStateIdentical(Scalar[0], B.Bank->cache(0), "after the run");
}

} // namespace
