//===- BlockTracker.h - Per-memory-block behaviour analysis -----*- C++ -*-===//
//
// Part of the gcache project (Reinhold, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The §7 memory-behaviour analysis. For a fixed memory-block size and a
/// reference cache geometry it tracks, for every memory block touched by
/// the mutator:
///
///  - block lifetimes (first to last reference, in references — the
///    paper's fundamental time unit);
///  - *allocation cycles*: with linear allocation the allocation pointer
///    sweeps the cache; the cycle index of cache slot k is the number of
///    dynamic blocks ≡ k (mod C) allocated so far, computed O(1) from the
///    allocation frontier;
///  - *one-cycle blocks*: dynamic blocks dead before the allocation
///    pointer revisits their cache slot;
///  - activity (number of distinct allocation cycles a block is
///    referenced in) and per-block reference counts;
///  - *busy blocks*: blocks receiving at least 1/1000 of all references.
///
/// Blocks below the dynamic area (program data, globals, the stack) are
/// the paper's static blocks. They are tracked in a table indexed by block
/// number that covers every address below Heap::DynamicBase, split into
/// pages of PageBlocks records allocated on first touch.
///
//===----------------------------------------------------------------------===//

#ifndef GCACHE_ANALYSIS_BLOCKTRACKER_H
#define GCACHE_ANALYSIS_BLOCKTRACKER_H

#include "gcache/heap/Heap.h"
#include "gcache/support/Stats.h"
#include "gcache/trace/Event.h"

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

namespace gcache {

/// Record for one memory block.
struct BlockRecord {
  uint64_t FirstRef = 0;  ///< Reference time of the first access.
  uint64_t LastRef = 0;   ///< Reference time of the last access.
  uint64_t RefCount = 0;
  uint32_t LastCycleSeen = UINT32_MAX;
  uint32_t CyclesActive = 0; ///< Distinct allocation cycles with >= 1 ref.
};

/// Aggregated results (see computeSummary).
struct BlockSummary {
  uint64_t TotalRefs = 0;
  uint64_t DynamicBlocks = 0;
  uint64_t OneCycleBlocks = 0;        ///< Among dynamic blocks.
  uint64_t MultiCycleBlocks = 0;      ///< Dynamic blocks that survive.
  uint64_t MultiCycleActiveLe4 = 0;   ///< Multi-cycle active in <= 4 cycles.
  uint64_t StaticBlocks = 0;          ///< Distinct static blocks touched.
  uint64_t BusyStaticBlocks = 0;      ///< >= 1/1000 of refs.
  uint64_t BusyDynamicBlocks = 0;
  uint64_t BusyRefs = 0;              ///< Refs going to busy blocks.
  uint64_t RuntimeVectorRefs = 0;     ///< Refs to the hot runtime vector's block.
  uint64_t StackRefs = 0;             ///< Refs to the stack region.
  /// Always false (the tracker is exact); perfbench's section7 checks it.
  bool Degraded = false;
  /// Always 1 (every block is tracked); perfbench's section7 digests it.
  uint32_t SampleStride = 1;
  double oneCycleFraction() const {
    return DynamicBlocks ? static_cast<double>(OneCycleBlocks) / DynamicBlocks
                         : 0.0;
  }
  double busyRefsFraction() const {
    return TotalRefs ? static_cast<double>(BusyRefs) / TotalRefs : 0.0;
  }
};

/// TraceSink computing the per-block behaviour statistics of one run.
/// Intended for control-experiment (no-GC) runs, where dynamic allocation
/// is strictly linear.
class BlockTracker final : public TraceSink {
public:
  /// \p BlockBytes is the memory-block size; \p CacheBytes the reference
  /// cache size for the allocation-cycle clock (the paper uses 64 KB).
  /// \p RuntimeVectorAddr locates the hot runtime vector (0 = none).
  BlockTracker(uint32_t BlockBytes, uint32_t CacheBytes,
               Address RuntimeVectorAddr = 0);

  void onRef(const Ref &R) override;
  void onRefs(const RefSpan &S) override;
  void onAlloc(Address Addr, uint32_t Bytes) override;

  /// Lifetime distribution of *dead-by-end* dynamic blocks, in references.
  const Log2Histogram &lifetimeHistogram() const { return Lifetimes; }
  /// Distribution of allocation-cycle lengths (references between two
  /// successive allocation misses in the same cache slot; §7 reports
  /// "several hundred thousand to two million references" at 64 KB).
  const Log2Histogram &cycleLengths() const { return CycleLens; }
  /// Reference-count distribution over dynamic blocks.
  const Log2Histogram &dynamicRefCounts() const { return DynRefCounts; }

  /// Finalizes (computes lifetimes) and aggregates. Call once, at the end
  /// of the run.
  BlockSummary computeSummary();

  uint64_t now() const { return Clock; }

  /// The record for the dynamic block with the given index (tests).
  const BlockRecord &dynamicRecord(size_t I) const { return Dynamic[I]; }
  size_t numDynamicRecords() const { return Dynamic.size(); }

  /// Static-block records per page of the static table.
  static constexpr uint32_t PageBlocks = 1024;

private:
  static constexpr uint32_t PageShift = std::countr_zero(PageBlocks);

  uint32_t cacheSlotOf(uint32_t BlockIdx) const { return BlockIdx & SlotMask; }
  /// Current allocation cycle of cache slot \p Slot (see file comment).
  uint32_t currentCycleOf(uint32_t Slot) const {
    if (FrontierBlocks <= Slot)
      return 0;
    return ((FrontierBlocks - 1 - Slot) >> SlotShift) + 1;
  }
  void touch(BlockRecord &Rec, uint32_t Slot);
  // The rare paths, kept out of line so onRef stays small.
  [[gnu::noinline]] void growDynamic(uint32_t BlockIdx);
  [[gnu::noinline]] BlockRecord *newStaticPage(uint32_t PageIdx);

  uint32_t BlockBytes;
  uint32_t BlockShift;
  uint32_t SlotShift; ///< log2 of the reference cache's block count.
  uint32_t SlotMask;
  Address RuntimeVecAddr;

  uint64_t Clock = 0;
  uint32_t FrontierBlocks = 0; ///< Dynamic blocks allocated so far.

  std::vector<BlockRecord> Dynamic; ///< Indexed by dynamic block number.
  /// Static blocks by block number: page BlockIdx >> PageShift, null until
  /// a block on it is first referenced.
  std::vector<std::unique_ptr<BlockRecord[]>> StaticPages;

  Log2Histogram Lifetimes;
  Log2Histogram DynRefCounts;
  Log2Histogram CycleLens;
  std::vector<uint64_t> LastAllocTime; ///< Per cache slot; 0 = never.
  uint64_t StackRefs = 0;
  bool Finalized = false;
};

} // namespace gcache

#endif // GCACHE_ANALYSIS_BLOCKTRACKER_H
