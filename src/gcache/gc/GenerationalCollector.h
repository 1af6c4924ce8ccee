//===- GenerationalCollector.h - Two-generation copying GC ------*- C++ -*-===//
//
// Part of the gcache project (Reinhold, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A simple two-generation compacting collector of the kind the paper
/// argues for in §6: new objects are allocated linearly in a nursery (the
/// new-object area / first generation); when it fills, a *minor*
/// collection promotes the live nursery objects into the old generation;
/// when the old generation's semispace cannot absorb a promotion, a *full*
/// collection copies all live data (nursery + old) into the other old
/// semispace. Old-to-young pointers created by mutation are tracked in a
/// remembered set via a write barrier whose per-store cost is charged to
/// the mutator ("the overheads of managing several generations and of
/// detecting and updating pointers from old objects to new objects").
///
/// The paper's *aggressive* collector (Wilson et al. / Zorn) is this same
/// collector with a nursery small enough to fit (mostly) in the cache —
/// see aggressiveConfig().
///
/// As a stepped machine (Collector.h) both cycle kinds share one driver:
/// RootScan walks host roots, the stack, the static area, and (minor
/// cycles only) the remembered set under cursors; Trace steps run the
/// Cheney scan over the promotion target; Finish publishes the new
/// old-generation frontier (and, for full cycles, flips the old
/// semispaces) and resets the nursery.
///
//===----------------------------------------------------------------------===//

#ifndef GCACHE_GC_GENERATIONALCOLLECTOR_H
#define GCACHE_GC_GENERATIONALCOLLECTOR_H

#include "gcache/gc/Collector.h"

#include <unordered_set>
#include <vector>

namespace gcache {

/// Sizing for the two generations.
struct GenerationalConfig {
  uint32_t NurseryBytes = 512 * 1024;
  /// Each old-generation semispace.
  uint32_t OldSemispaceBytes = 16 * 1024 * 1024;

  /// The aggressive configuration: first generation sized to (a fraction
  /// of) the cache, so collections are frequent enough that new objects
  /// die "in cache" (§2, §6).
  static GenerationalConfig aggressive(uint32_t CacheBytes,
                                       uint32_t OldSemiBytes) {
    return {CacheBytes, OldSemiBytes};
  }
};

/// Two-generation copying collector with a remembered-set write barrier.
class GenerationalCollector final : public Collector {
public:
  GenerationalCollector(Heap &H, MutatorContext &Mutator,
                        const GenerationalConfig &Config);

  Address allocate(uint32_t Words) override;
  std::string name() const override { return "generational"; }
  /// Live data: the filled part of the nursery plus the old generation's
  /// occupied from-space prefix.
  std::vector<std::pair<Address, Address>> liveRanges() const override {
    return {{Heap::DynamicBase, H.dynamicFrontier()}, {OldFromBase, OldFree}};
  }

  uint64_t writeBarrierCost() const override { return gccost::WriteBarrier; }
  void noteStore(Address Slot, Value New) override;

  /// Runs a minor collection (promotes the live nursery).
  void minorCollect();

  uint64_t minorCollections() const {
    return Stats.Collections - Stats.MajorCollections;
  }
  size_t rememberedSlots() const { return RememberedList.size(); }
  Address nurseryBase() const { return Heap::DynamicBase; }
  uint32_t nurseryBytes() const { return Config.NurseryBytes; }
  Address oldSpaceBase() const { return OldFromBase; }
  Address oldSpaceFrontier() const { return OldFree; }

protected:
  void onBeginCycle(GcCycleKind Kind) override;
  bool onCycleStep() override;
  void fillCycleView(GcCycleView &V) const override;

private:
  /// RootScan sub-stages, in scan order (full cycles skip Remembered —
  /// the whole old generation is evacuated anyway).
  enum : uint8_t { RootsHost = 0, RootsStack = 1, RootsStatic = 2,
                   RootsRemembered = 3, RootsDone = 4 };

  bool inNursery(Address A) const {
    return A >= Heap::DynamicBase &&
           A < Heap::DynamicBase + Config.NurseryBytes;
  }
  bool inOldFrom(Address A) const {
    return A >= OldFromBase && A < OldFromBase + Config.OldSemispaceBytes;
  }
  uint32_t nurseryUsedBytes() const {
    return H.dynamicFrontier() - Heap::DynamicBase;
  }
  uint32_t oldFreeBytes() const {
    return OldFromBase + Config.OldSemispaceBytes - OldFree;
  }
  /// The space the active cycle evacuates: the nursery, plus the old
  /// from-semispace for full cycles.
  bool inCycleSpace(Address A) const {
    if (inNursery(A))
      return true;
    return cycleKind() == GcCycleKind::Full && inOldFrom(A);
  }

  Value forward(Value V);
  void forwardSlotsAt(Address ObjAddr, uint32_t Header);
  bool stepRootScan();
  bool stepTrace();
  void finishCycle();

  GenerationalConfig Config;
  Address OldFromBase; ///< Current old-generation semispace base.
  Address OldToBase;   ///< The other semispace (full-collection target).
  Address OldFree;     ///< Old-generation allocation point.
  Address FreePtr = 0; ///< Copy target during a collection.
  Address ScanPtr = 0; ///< Cheney scan pointer during a collection.
  uint8_t RootStage = RootsHost;
  uint32_t StackCursor = 0;     ///< Stack slots scanned so far.
  Address StaticCursor = 0;     ///< Next static-area object to scan.
  uint64_t RememberedCursor = 0; ///< Remembered entries scanned so far.

  /// Remembered old-generation (or stack-external) slots that may hold
  /// nursery pointers. Vector for deterministic scan order, set for dedup.
  std::vector<Address> RememberedList;
  std::unordered_set<Address> RememberedSet;
};

} // namespace gcache

#endif // GCACHE_GC_GENERATIONALCOLLECTOR_H
