//===- MarkSweepCollector.h - Non-moving mark-and-sweep GC ------*- C++ -*-===//
//
// Part of the gcache project (Reinhold, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A non-moving mark-and-sweep collector with segregated free lists — the
/// family Zorn's §2 comparison used, and, more importantly, the
/// counterfactual to the paper's thesis. The paper argues that *linear*
/// allocation is what makes garbage-collected programs cache-friendly:
/// the allocation pointer sweeps the cache, new objects are born adjacent
/// and die before the sweep returns. A free-list allocator recycles holes
/// wherever they happen to be, so consecutive allocations scatter across
/// the heap and the one-cycle-block structure of §7 disappears. Running
/// the same workloads under this collector measures exactly what that
/// structure is worth (bench/ext3_allocation_wave) — which is also the
/// §8 "allocation can be faster than mutation" conjecture in testable
/// form, since free-list reuse is how a malloc/free program's heap
/// behaves.
///
/// Design: one fixed heap region carved from the dynamic area; free
/// chunks carry ObjectTag::FreeChunk headers with an in-chunk next
/// pointer (so allocation and sweeping produce realistic traced
/// references); segregated first-fit size classes; marking uses a
/// host-side bitmap and explicit mark stack (side metadata, untraced, as
/// in real systems); sweeping walks the whole heap linearly, coalescing
/// adjacent garbage. Objects never move, so there is no rehash cost and
/// no write barrier — but also no compaction.
///
/// As a stepped machine (Collector.h): the Trace phase interleaves root
/// consumption with worklist draining — each budget unit either scans
/// one popped grey object or, when the worklist is empty, consumes the
/// next root notch (host register, stack slot, or static slot), which
/// preserves the original drain-after-each-root DFS order exactly. The
/// Sweep phase walks the heap one chunk per unit, carrying the
/// coalescing run across step boundaries.
///
//===----------------------------------------------------------------------===//

#ifndef GCACHE_GC_MARKSWEEPCOLLECTOR_H
#define GCACHE_GC_MARKSWEEPCOLLECTOR_H

#include "gcache/gc/Collector.h"

#include <vector>

namespace gcache {

/// Non-moving mark-and-sweep collector over segregated free lists.
class MarkSweepCollector final : public Collector {
public:
  /// \p HeapBytes is the total collected heap (compare against twice a
  /// Cheney semispace for equal memory budgets).
  MarkSweepCollector(Heap &H, MutatorContext &Mutator, uint32_t HeapBytes);

  Address allocate(uint32_t Words) override;
  std::string name() const override { return "marksweep"; }
  /// The whole region stays walkable (free chunks carry headers), so the
  /// verifier can parse it end to end.
  std::vector<std::pair<Address, Address>> liveRanges() const override {
    return {{Base, End}};
  }

  /// Non-moving: addresses are stable across collections, so address-
  /// keyed hash tables never need rehashing.
  uint64_t epoch() const override { return 0; }

  /// Mutator-side instruction cost of free-list allocation (the malloc
  /// analogue the §8 conjecture charges against imperative programs).
  uint64_t allocSearchCost() const { return AllocSearchCost; }
  uint64_t mutatorAllocInstructions() const override {
    return AllocSearchCost;
  }

  /// Free words currently on the lists (diagnostics/tests).
  uint64_t freeWords() const;
  /// Objects swept (freed) over the collector's lifetime.
  uint64_t objectsFreed() const { return ObjectsFreed; }
  Address heapBase() const { return Base; }
  Address heapEnd() const { return End; }

protected:
  void onBeginCycle(GcCycleKind Kind) override;
  bool onCycleStep() override;
  void fillCycleView(GcCycleView &V) const override;

private:
  static constexpr uint32_t NumClasses = 24;
  /// Smallest chunk is 2 words (header + next pointer).
  static uint32_t classOf(uint32_t Words);

  Address popFit(uint32_t Words);
  void pushFree(Address A, uint32_t Words);
  bool isMarked(Address A) const {
    uint32_t Bit = (A - Base) >> 2;
    return (MarkBits[Bit >> 6] >> (Bit & 63)) & 1;
  }
  void setMark(Address A) {
    uint32_t Bit = (A - Base) >> 2;
    MarkBits[Bit >> 6] |= 1ull << (Bit & 63);
  }

  /// Greys \p V's target (mark + push) if it is an unmarked heap object.
  /// Untraced: the bitmap and worklist are host-side metadata.
  void markPush(Value V);
  /// Pops one grey object and scans its slots (traced loads).
  void scanOne();
  /// Consumes one static-area root notch (object header or one slot).
  void staticNotch();
  bool stepMark();
  bool stepSweep();
  void beginSweep();
  void finishCycle();

  Address Base;
  Address End;
  Address FreeLists[NumClasses] = {}; ///< 0 = empty class.
  std::vector<uint64_t> MarkBits;     ///< Host-side side metadata.
  std::vector<Address> MarkStack;     ///< Grey worklist.
  uint64_t ObjectsFreed = 0;
  uint64_t AllocSearchCost = 0;

  //===--- Mark-phase machine state ---------------------------------------===//
  /// Host root values captured (untraced) at cycle begin; non-moving, so
  /// the registers themselves never need updating.
  std::vector<Value> HostRootsSnapshot;
  uint64_t HostRootCursor = 0;
  uint32_t StackCursor = 0;
  /// Static-area micro-cursor: current object, and the slot within it.
  Address StaticCursor = 0;
  bool InStaticObject = false;
  uint32_t StaticSlot = 0;      ///< Next slot index to consume.
  uint32_t StaticSlotFirst = 0; ///< First/Count of the current object.
  uint32_t StaticSlotCount = 0;
  uint32_t StaticObjWords = 0;

  //===--- Sweep-phase machine state --------------------------------------===//
  Address SweepCursor = 0;
  Address RunStart = 0;  ///< Coalescing garbage run carried across steps.
  uint32_t RunWords = 0;
};

} // namespace gcache

#endif // GCACHE_GC_MARKSWEEPCOLLECTOR_H
