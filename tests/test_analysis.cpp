//===- test_analysis.cpp - §7 analysis machinery unit tests --------------------===//

#include "gcache/analysis/BlockTracker.h"
#include "gcache/analysis/LocalMissStats.h"
#include "gcache/analysis/MissPlot.h"
#include "gcache/core/Audit.h"
#include "gcache/support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

using namespace gcache;

namespace {
Ref load(Address A) { return {A, AccessKind::Load, Phase::Mutator}; }
Ref store(Address A) { return {A, AccessKind::Store, Phase::Mutator}; }
constexpr Address Dyn = Heap::DynamicBase;

/// A reference model of BlockTracker kept deliberately naive: static
/// blocks in a std::map keyed by block number, allocation cycles by
/// division. BlockTracker must agree with it field for field.
class ReferenceTracker {
public:
  ReferenceTracker(uint32_t BlockBytes, uint32_t CacheBytes, Address RtAddr)
      : BlockBytes(BlockBytes), NumSlots(CacheBytes / BlockBytes),
        RtAddr(RtAddr), LastAllocTime(NumSlots, 0) {}

  void onAlloc(Address Addr, uint32_t Bytes) {
    uint32_t Frontier = (Addr + Bytes - Dyn + BlockBytes - 1) / BlockBytes;
    for (; FrontierBlocks < Frontier; ++FrontierBlocks) {
      uint64_t &Last = LastAllocTime[FrontierBlocks % NumSlots];
      if (Last)
        CycleLens.add(Clock - Last);
      Last = Clock ? Clock : 1;
    }
    if (Dynamic.size() < FrontierBlocks)
      Dynamic.resize(FrontierBlocks);
  }

  void onRef(const Ref &R) {
    ++Clock;
    if (R.Addr >= Dyn) {
      uint32_t Block = (R.Addr - Dyn) / BlockBytes;
      if (Block >= Dynamic.size())
        Dynamic.resize(Block + 1);
      FrontierBlocks = std::max(FrontierBlocks, Block + 1);
      touch(Dynamic[Block], Block);
      return;
    }
    if (R.Addr >= Heap::StackBase &&
        R.Addr < Heap::StackBase + Heap::StackCapacityWords * 4)
      ++StackRefs;
    uint32_t Block = R.Addr / BlockBytes;
    touch(Static[Block], Block);
  }

  BlockSummary summary() {
    BlockSummary S;
    S.TotalRefs = Clock;
    S.StackRefs = StackRefs;
    uint64_t Busy = std::max<uint64_t>(Clock / 1000, 1);
    for (size_t I = 0; I != Dynamic.size(); ++I) {
      const BlockRecord &Rec = Dynamic[I];
      if (Rec.RefCount == 0)
        continue;
      Lifetimes.add(Rec.LastRef - Rec.FirstRef);
      DynRefCounts.add(Rec.RefCount);
      ++S.DynamicBlocks;
      if (Rec.CyclesActive == 1 && Rec.LastCycleSeen == I / NumSlots + 1) {
        ++S.OneCycleBlocks;
      } else {
        ++S.MultiCycleBlocks;
        S.MultiCycleActiveLe4 += Rec.CyclesActive <= 4;
      }
      if (Rec.RefCount >= Busy) {
        ++S.BusyDynamicBlocks;
        S.BusyRefs += Rec.RefCount;
      }
    }
    for (const auto &[Block, Rec] : Static) {
      ++S.StaticBlocks;
      if (Rec.RefCount >= Busy) {
        ++S.BusyStaticBlocks;
        S.BusyRefs += Rec.RefCount;
      }
      if (RtAddr && Block >= RtAddr / BlockBytes &&
          Block <= (RtAddr + 64) / BlockBytes)
        S.RuntimeVectorRefs += Rec.RefCount;
    }
    return S;
  }

  Log2Histogram Lifetimes, DynRefCounts, CycleLens;

private:
  void touch(BlockRecord &Rec, uint32_t Block) {
    uint32_t Slot = Block % NumSlots;
    uint32_t Cycle =
        FrontierBlocks <= Slot ? 0 : (FrontierBlocks - 1 - Slot) / NumSlots + 1;
    if (Rec.RefCount++ == 0)
      Rec.FirstRef = Clock;
    Rec.LastRef = Clock;
    if (Rec.LastCycleSeen != Cycle) {
      Rec.LastCycleSeen = Cycle;
      ++Rec.CyclesActive;
    }
  }

  uint32_t BlockBytes, NumSlots;
  Address RtAddr;
  uint64_t Clock = 0, StackRefs = 0;
  uint32_t FrontierBlocks = 0;
  std::vector<BlockRecord> Dynamic;
  std::map<uint32_t, BlockRecord> Static;
  std::vector<uint64_t> LastAllocTime;
};

/// A reference model of MissPlot kept deliberately naive: a byte per
/// (column, cache block), a column for every RefsPerColumn references.
class ReferencePlot {
public:
  ReferencePlot(const CacheConfig &Config, uint32_t RefsPerColumn)
      : Sim(Config), BlockBytes(Config.BlockBytes),
        NumBlocks(Config.numSets()), RefsPerColumn(RefsPerColumn) {}

  void onRef(const Ref &R) {
    AccessResult Res = Sim.access(R);
    if (Refs++ % RefsPerColumn == 0)
      Cols.emplace_back(NumBlocks, 0);
    if (Res != AccessResult::Hit)
      Cols.back()[R.Addr / BlockBytes % NumBlocks] = 1;
  }

  uint64_t columns() const { return Cols.size(); }
  bool missedAt(uint64_t C, uint32_t B) const {
    return C < Cols.size() && B < NumBlocks && Cols[C][B];
  }

  std::string renderAscii(uint32_t MaxCols, uint32_t MaxRows) const {
    std::string Out;
    if (Cols.empty())
      return Out;
    uint64_t C = std::min<uint64_t>(MaxCols, Cols.size());
    uint32_t Rows = std::min(MaxRows, NumBlocks);
    for (uint32_t R = 0; R != Rows; ++R) {
      for (uint64_t X = 0; X != C; ++X) {
        bool Hit = false;
        for (uint64_t T = X * Cols.size() / C; T != (X + 1) * Cols.size() / C;
             ++T)
          for (uint32_t B = R * NumBlocks / Rows;
               B != (R + 1) * NumBlocks / Rows; ++B)
            Hit |= Cols[T][B] != 0;
        Out += Hit ? '*' : '.';
      }
      Out += '\n';
    }
    return Out;
  }

  std::string renderPgm() const {
    std::string Out = "P5\n" + std::to_string(Cols.size()) + " " +
                      std::to_string(NumBlocks) + "\n255\n";
    for (uint32_t B = 0; B != NumBlocks; ++B)
      for (const std::vector<uint8_t> &Col : Cols)
        Out += static_cast<char>(Col[B] ? 0 : 255);
    return Out;
  }

  double fillFraction() const {
    uint64_t Set = 0;
    for (const std::vector<uint8_t> &Col : Cols)
      for (uint8_t Cell : Col)
        Set += Cell;
    return Cols.empty() ? 0.0
                        : static_cast<double>(Set) /
                              (static_cast<double>(Cols.size()) * NumBlocks);
  }

private:
  Cache Sim;
  uint32_t BlockBytes, NumBlocks, RefsPerColumn;
  uint64_t Refs = 0;
  std::vector<std::vector<uint8_t>> Cols;
};
} // namespace

//===----------------------------------------------------------------------===//
// BlockTracker
//===----------------------------------------------------------------------===//

TEST(BlockTracker, TracksLifetimeAndRefCount) {
  BlockTracker T(64, 64 << 10);
  T.onAlloc(Dyn, 64);
  T.onRef(store(Dyn));      // t=1, first ref
  T.onRef(load(Dyn + 8));   // t=2
  T.onRef(load(Dyn + 60));  // t=3, last ref
  const BlockRecord &R = T.dynamicRecord(0);
  EXPECT_EQ(R.RefCount, 3u);
  EXPECT_EQ(R.FirstRef, 1u);
  EXPECT_EQ(R.LastRef, 3u);
}

TEST(BlockTracker, AllocSpanningBlocks) {
  BlockTracker T(64, 64 << 10);
  T.onAlloc(Dyn, 200); // 200 bytes -> blocks 0..3
  EXPECT_EQ(T.numDynamicRecords(), 4u);
}

TEST(BlockTracker, OneCycleClassification) {
  // Cache of 4 blocks (256 B / 64 B) for tiny cycles.
  BlockTracker T(64, 256);
  // Allocate 8 blocks: blocks 0-3 are cycle 1, blocks 4-7 cycle 2 of the
  // same four cache slots.
  T.onAlloc(Dyn, 8 * 64);
  T.onRef(store(Dyn));            // block 0, during its own cycle? No:
  // the frontier is already at block 8, so slot 0 is in cycle 2 and
  // block 0 (born in cycle 1) is being referenced in a later cycle.
  BlockSummary S = T.computeSummary();
  EXPECT_EQ(S.DynamicBlocks, 1u);
  EXPECT_EQ(S.OneCycleBlocks, 0u);
  EXPECT_EQ(S.MultiCycleBlocks, 1u);
}

TEST(BlockTracker, OneCycleWhenTouchedBeforeSweepReturns) {
  BlockTracker T(64, 256);
  T.onAlloc(Dyn, 64); // block 0, cycle 1
  T.onRef(store(Dyn));
  T.onAlloc(Dyn + 64, 64); // block 1 — slot 0 still in cycle 1
  T.onRef(load(Dyn));
  BlockSummary S = T.computeSummary();
  EXPECT_EQ(S.OneCycleBlocks, 1u);
}

TEST(BlockTracker, CyclesActiveCounting) {
  BlockTracker T(64, 256);
  T.onAlloc(Dyn, 64);
  T.onRef(store(Dyn)); // cycle 1
  T.onAlloc(Dyn + 64, 7 * 64); // advance frontier: slot 0 now cycle 2
  T.onRef(load(Dyn)); // cycle 2
  T.onAlloc(Dyn + 8 * 64, 4 * 64); // slot 0 now cycle 3
  T.onRef(load(Dyn)); // cycle 3
  T.onRef(load(Dyn)); // still cycle 3 (no double count)
  EXPECT_EQ(T.dynamicRecord(0).CyclesActive, 3u);
}

TEST(BlockTracker, StaticBlocksAndBusy) {
  BlockTracker T(64, 64 << 10);
  // 2000 refs to one static block => busy (>= 1/1000 of refs).
  for (int I = 0; I != 2000; ++I)
    T.onRef(load(Heap::StaticBase));
  // A handful to another.
  T.onRef(load(Heap::StaticBase + 4096));
  BlockSummary S = T.computeSummary();
  EXPECT_EQ(S.StaticBlocks, 2u);
  EXPECT_EQ(S.BusyStaticBlocks, 1u);
  EXPECT_GT(S.busyRefsFraction(), 0.99);
}

TEST(BlockTracker, StackRefsCounted) {
  BlockTracker T(64, 64 << 10);
  T.onRef(store(Heap::StackBase));
  T.onRef(store(Heap::StackBase + 4));
  T.onRef(load(Heap::StaticBase));
  BlockSummary S = T.computeSummary();
  EXPECT_EQ(S.StackRefs, 2u);
}

TEST(BlockTracker, RuntimeVectorAttribution) {
  BlockTracker T(64, 64 << 10, Heap::StaticBase);
  for (int I = 0; I != 100; ++I)
    T.onRef(load(Heap::StaticBase + 4));
  BlockSummary S = T.computeSummary();
  EXPECT_EQ(S.RuntimeVectorRefs, 100u);
}

TEST(BlockTracker, LifetimeHistogramMatches) {
  BlockTracker T(64, 64 << 10);
  T.onAlloc(Dyn, 128);
  T.onRef(store(Dyn));       // block 0: t=1..1, lifetime 0
  T.onRef(store(Dyn + 64));  // block 1: t=2..
  for (int I = 0; I != 100; ++I)
    T.onRef(load(Dyn + 64)); // ...t=102, lifetime 100
  (void)T.computeSummary();
  EXPECT_EQ(T.lifetimeHistogram().total(), 2u);
  EXPECT_DOUBLE_EQ(T.lifetimeHistogram().cumulativeFractionAt(1), 0.5);
}

TEST(BlockTracker, AllocationCycleLengths) {
  BlockTracker T(64, 256); // 4 cache slots
  T.onAlloc(Dyn, 4 * 64); // blocks 0-3 at t=0: no previous cycles
  for (int I = 0; I != 100; ++I)
    T.onRef(load(Dyn));
  T.onAlloc(Dyn + 4 * 64, 4 * 64); // blocks 4-7: cycle length 100 each
  EXPECT_EQ(T.cycleLengths().total(), 4u);
  EXPECT_DOUBLE_EQ(T.cycleLengths().cumulativeFractionAt(127), 1.0);
  EXPECT_DOUBLE_EQ(T.cycleLengths().cumulativeFractionAt(63), 0.0);
}

TEST(BlockTracker, MatchesMapReferenceOnRandomStream) {
  for (uint32_t BlockBytes : {16u, 64u, 256u}) {
    SCOPED_TRACE("block size " + std::to_string(BlockBytes));
    // A 4 KB reference cache, so the stream runs through many cycles.
    BlockTracker T(BlockBytes, 4096, Heap::StaticBase);
    ReferenceTracker Want(BlockBytes, 4096, Heap::StaticBase);
    const Address PageBytes = BlockTracker::PageBlocks * BlockBytes;
    const Address StackEnd = Heap::StackBase + Heap::StackCapacityWords * 4;
    // Addresses the static table must keep apart: both edges of several
    // of its pages (equal page offsets on different pages), the first and
    // last stack blocks, the last block below the dynamic area, address 0.
    std::vector<Address> Edges = {0, Heap::StackBase, StackEnd - 4,
                                  Dyn - 4, Heap::StaticBase};
    for (Address Page = 1; Page != 6; ++Page)
      for (Address P : {Page * PageBytes, Heap::StaticBase + Page * PageBytes,
                        Heap::StackBase + Page * PageBytes})
        Edges.insert(Edges.end(), {P - 4, P, P + BlockBytes});
    Rng R(BlockBytes);
    Address Frontier = Dyn;
    for (int I = 0; I != 40000; ++I) {
      Address A;
      switch (R.below(8)) {
      case 0: { // Linear allocation, as a no-GC run allocates.
        uint32_t Bytes = 8 + 4 * static_cast<uint32_t>(R.below(150));
        T.onAlloc(Frontier, Bytes);
        Want.onAlloc(Frontier, Bytes);
        Frontier += Bytes;
        continue;
      }
      case 1:
        A = Edges[R.below(Edges.size())];
        break;
      case 2: // The program's static data.
        A = Heap::StaticBase + 4 * static_cast<Address>(R.below(1 << 14));
        break;
      case 3:
      case 4: // The stack, near its base.
        A = Heap::StackBase + 4 * static_cast<Address>(R.below(1 << 13));
        break;
      default: // Dynamic blocks, now and then just past the frontier.
        A = Dyn + 4 * static_cast<Address>(R.below((Frontier - Dyn) / 4 + 64));
        break;
      }
      Ref Ref = R.below(2) ? load(A) : store(A);
      T.onRef(Ref);
      Want.onRef(Ref);
    }
    BlockSummary Got = T.computeSummary();
    BlockSummary Exp = Want.summary();
    EXPECT_EQ(Got.TotalRefs, Exp.TotalRefs);
    EXPECT_EQ(Got.DynamicBlocks, Exp.DynamicBlocks);
    EXPECT_EQ(Got.OneCycleBlocks, Exp.OneCycleBlocks);
    EXPECT_EQ(Got.MultiCycleBlocks, Exp.MultiCycleBlocks);
    EXPECT_EQ(Got.MultiCycleActiveLe4, Exp.MultiCycleActiveLe4);
    EXPECT_EQ(Got.StaticBlocks, Exp.StaticBlocks);
    EXPECT_EQ(Got.BusyStaticBlocks, Exp.BusyStaticBlocks);
    EXPECT_EQ(Got.BusyDynamicBlocks, Exp.BusyDynamicBlocks);
    EXPECT_EQ(Got.BusyRefs, Exp.BusyRefs);
    EXPECT_EQ(Got.RuntimeVectorRefs, Exp.RuntimeVectorRefs);
    EXPECT_EQ(Got.StackRefs, Exp.StackRefs);
    EXPECT_EQ(Got.Degraded, Exp.Degraded);
    EXPECT_EQ(Got.SampleStride, Exp.SampleStride);
    EXPECT_EQ(T.lifetimeHistogram().buckets(), Want.Lifetimes.buckets());
    EXPECT_EQ(T.cycleLengths().buckets(), Want.CycleLens.buckets());
    EXPECT_EQ(T.dynamicRefCounts().buckets(), Want.DynRefCounts.buckets());
    // The stream is only a test if it reached every kind of block.
    EXPECT_GT(Exp.OneCycleBlocks, 0u);
    EXPECT_GT(Exp.MultiCycleBlocks, 0u);
    EXPECT_GT(Exp.BusyStaticBlocks, 0u);
    EXPECT_GT(Exp.RuntimeVectorRefs, 0u);
    EXPECT_GT(Want.CycleLens.total(), 0u);
  }
}

//===----------------------------------------------------------------------===//
// MissPlot
//===----------------------------------------------------------------------===//

TEST(MissPlot, RecordsMissesPerColumn) {
  CacheConfig Config{.SizeBytes = 1024, .BlockBytes = 64};
  MissPlot P(Config, /*RefsPerColumn=*/4);
  constexpr Address Base = 0x20000000; // cache-aligned
  P.onRef(load(Base));        // miss, column 0
  P.onRef(load(Base));        // hit
  P.onRef(load(Base));        // hit
  P.onRef(load(Base));        // hit
  P.onRef(load(Base + 1024)); // miss (conflict), column 1
  EXPECT_TRUE(P.missedAt(0, 0));
  EXPECT_TRUE(P.missedAt(1, 0));
  EXPECT_FALSE(P.missedAt(0, 1));
  EXPECT_EQ(P.columns(), 2u);
}

TEST(MissPlot, AllocationSweepMakesDiagonal) {
  CacheConfig Config{.SizeBytes = 1024, .BlockBytes = 64};
  MissPlot P(Config, /*RefsPerColumn=*/16);
  constexpr Address Base = 0x20000000; // cache-aligned
  // Write linearly through 2x the cache: every block is an allocation
  // miss, and each 16-ref column covers one 64-byte block.
  for (Address A = Base; A != Base + 2048; A += 4)
    P.onRef(store(A));
  // Diagonal: column C has its miss at cache block C mod 16.
  for (uint64_t C = 0; C != P.columns(); ++C)
    EXPECT_TRUE(P.missedAt(C, static_cast<uint32_t>(C % 16))) << C;
  EXPECT_NEAR(P.fillFraction(), 1.0 / 16, 0.01);
}

TEST(MissPlot, AsciiAndPgmWellFormed) {
  CacheConfig Config{.SizeBytes = 1024, .BlockBytes = 64};
  MissPlot P(Config, 4);
  for (Address A = Dyn; A != Dyn + 512; A += 4)
    P.onRef(store(A));
  std::string Ascii = P.renderAscii(8, 8);
  EXPECT_FALSE(Ascii.empty());
  EXPECT_NE(Ascii.find('*'), std::string::npos);
  std::string Pgm = P.renderPgm();
  EXPECT_EQ(Pgm.substr(0, 2), "P5");
}

TEST(MissPlot, ColumnsCountReferencesNotMisses) {
  // One miss, then 2047 hits: the second column holds no miss, yet it is
  // 1024 references of time and a column of the plot.
  CacheConfig Config{.SizeBytes = 64 << 10, .BlockBytes = 64};
  MissPlot P(Config);
  for (int I = 0; I != 2048; ++I)
    P.onRef(load(Dyn));
  EXPECT_EQ(P.columns(), 2u);
  EXPECT_EQ(P.renderPgm().substr(0, 14), "P5\n2 1024\n255\n");
  EXPECT_TRUE(P.missedAt(0, P.cache().setIndexOf(Dyn)));
  EXPECT_FALSE(P.missedAt(1, P.cache().setIndexOf(Dyn)));
  EXPECT_TRUE(auditMissPlot(P).ok()) << auditMissPlot(P).toString();
}

TEST(MissPlot, MatchesByteReferenceOnRandomStreams) {
  // Plots of fewer than 64 blocks, of one 64-bit word per column, of
  // several words, and a fetch-on-write cache.
  const CacheConfig Configs[] = {
      {.SizeBytes = 1024, .BlockBytes = 64},
      {.SizeBytes = 4096, .BlockBytes = 64},
      {.SizeBytes = 4096, .BlockBytes = 32, .Ways = 2},
      {.SizeBytes = 16384, .BlockBytes = 16},
      {.SizeBytes = 64 << 10,
       .BlockBytes = 64,
       .WriteMiss = WriteMissPolicy::FetchOnWrite}};
  uint64_t Seed = 1;
  for (const CacheConfig &Config : Configs)
    for (uint32_t RefsPerColumn : {16u, 37u, 1024u})
      for (bool EndsMissFree : {false, true}) {
        SCOPED_TRACE(Config.label() + ", " + std::to_string(RefsPerColumn) +
                     " refs per column" +
                     (EndsMissFree ? ", miss-free tail" : ", miss at end"));
        MissPlot P(Config, RefsPerColumn);
        ReferencePlot Want(Config, RefsPerColumn);
        auto Feed = [&](const Ref &R) {
          P.onRef(R);
          Want.onRef(R);
        };
        Rng R(Seed++);
        for (int I = 0; I != 30000; ++I) {
          Address A = Dyn + 4 * static_cast<Address>(R.below(1 << 15));
          if (R.below(64) == 0) // A miss-free stretch: one block, re-read.
            for (uint64_t N = R.below(4 * RefsPerColumn); N; --N)
              Feed(load(A));
          Feed(R.below(2) ? load(A) : store(A));
        }
        if (EndsMissFree)
          for (uint32_t N = 0; N != 2 * RefsPerColumn + 3; ++N)
            Feed(load(Dyn));
        else
          Feed(load(Dyn + (1u << 24))); // Dyn's set, a block never touched.

        ASSERT_EQ(P.columns(), Want.columns());
        EXPECT_EQ(P.columns(),
                  (P.refsSeen() + RefsPerColumn - 1) / RefsPerColumn);
        const uint32_t Blocks = Config.numSets();
        for (uint64_t C = 0; C <= P.columns(); ++C)
          for (uint32_t B = 0; B <= Blocks; ++B)
            ASSERT_EQ(P.missedAt(C, B), Want.missedAt(C, B))
                << "column " << C << ", block " << B;
        EXPECT_EQ(P.missedAt(P.columns() - 1, P.cache().setIndexOf(Dyn)),
                  !EndsMissFree);
        EXPECT_EQ(P.fillFraction(), Want.fillFraction());
        for (auto [Cols, Rows] :
             {std::pair{96u, 32u}, {7u, 5u}, {5000u, 3000u}})
          EXPECT_EQ(P.renderAscii(Cols, Rows), Want.renderAscii(Cols, Rows))
              << Cols << " x " << Rows;
        EXPECT_EQ(P.renderPgm(), Want.renderPgm());
        EXPECT_TRUE(auditMissPlot(P).ok());
      }
}

//===----------------------------------------------------------------------===//
// LocalMissStats
//===----------------------------------------------------------------------===//

TEST(LocalMissStats, CurvesAreMonotoneAndEndAtGlobal) {
  CacheConfig Config{.SizeBytes = 4096, .BlockBytes = 64};
  Config.TrackPerBlockStats = true;
  Cache Sim(Config);
  Rng R(5);
  for (int I = 0; I != 50000; ++I) {
    Address A = Dyn + (static_cast<Address>(R.below(1 << 16)) & ~3u);
    (void)Sim.access({A, R.below(2) ? AccessKind::Load : AccessKind::Store,
                      Phase::Mutator});
  }
  LocalMissCurves C = computeLocalMissCurves(Sim);
  ASSERT_EQ(C.Points.size(), Config.numSets());
  double PrevRefFrac = 0;
  uint64_t PrevRefs = 0;
  for (const LocalBlockPoint &P : C.Points) {
    EXPECT_GE(P.Refs, PrevRefs) << "sorted by reference count";
    EXPECT_GE(P.CumRefFraction, PrevRefFrac);
    PrevRefs = P.Refs;
    PrevRefFrac = P.CumRefFraction;
  }
  EXPECT_NEAR(C.Points.back().CumRefFraction, 1.0, 1e-12);
  EXPECT_NEAR(C.Points.back().CumMissFraction, 1.0, 1e-12);
  EXPECT_NEAR(C.Points.back().CumMissRatio, C.GlobalMissRatio, 1e-12);
  uint64_t Mut = Sim.counters(Phase::Mutator).FetchMisses;
  EXPECT_NEAR(C.GlobalMissRatio,
              static_cast<double>(Mut) / Sim.totalCounters().refs(), 1e-9);
}

TEST(LocalMissStats, ExcludesAllocationMisses) {
  CacheConfig Config{.SizeBytes = 1024, .BlockBytes = 64};
  Config.TrackPerBlockStats = true;
  Cache Sim(Config);
  // Pure allocation sweep: only no-fetch write misses.
  for (Address A = Dyn; A != Dyn + 4096; A += 4)
    (void)Sim.access(store(A));
  LocalMissCurves C = computeLocalMissCurves(Sim);
  EXPECT_EQ(C.GlobalMissRatio, 0.0)
      << "write-validate allocation misses are excluded (paper §7)";
}

TEST(LocalMissStats, RenderedTableContainsEndpoint) {
  CacheConfig Config{.SizeBytes = 1024, .BlockBytes = 64};
  Config.TrackPerBlockStats = true;
  Cache Sim(Config);
  for (int I = 0; I != 100; ++I)
    (void)Sim.access(load(Dyn + (I % 32) * 64));
  std::string S = renderLocalMissTable(computeLocalMissCurves(Sim), 4);
  EXPECT_NE(S.find("global miss ratio"), std::string::npos);
}
