//===- CheneyCollector.h - Compacting semispace collector -------*- C++ -*-===//
//
// Part of the gcache project (Reinhold, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cheney's compacting semispace copying collector [Cheney 1970], the
/// collector of the paper's second experiment (§6): "a simple, efficient,
/// and infrequently-run Cheney-style compacting semispace collector",
/// configured there with 16 MB semispaces. Allocation bumps a pointer in
/// from-space; when it fills, live objects are copied breadth-first into
/// to-space (the classic two-finger scan) and the spaces flip.
///
/// All of the collector's loads and stores go through the traced heap in
/// Phase::Collector, so its cache misses (M_gc) and its displacement of
/// the program's cache state are simulated exactly; its instruction count
/// (I_gc) follows the cost model in Collector.h.
///
/// As a stepped machine (Collector.h): RootScan forwards host roots, then
/// the stack, then the static area under a cursor; each Trace step scans
/// up to stepBudget() copied objects at the Cheney scan pointer; Finish
/// flips the spaces. The machine state is the scan pointer and the root
/// cursors.
///
//===----------------------------------------------------------------------===//

#ifndef GCACHE_GC_CHENEYCOLLECTOR_H
#define GCACHE_GC_CHENEYCOLLECTOR_H

#include "gcache/gc/Collector.h"

namespace gcache {

/// Two-semispace compacting collector.
class CheneyCollector final : public Collector {
public:
  /// \p SemispaceBytes is the size of each semispace (the paper uses
  /// 16 MB; benches scale it with the workloads).
  CheneyCollector(Heap &H, MutatorContext &Mutator, uint32_t SemispaceBytes);

  Address allocate(uint32_t Words) override;
  std::string name() const override { return "cheney"; }
  /// Live data sits in from-space between its base and the frontier.
  std::vector<std::pair<Address, Address>> liveRanges() const override {
    return {{FromBase, H.dynamicFrontier()}};
  }

  Address fromSpaceBase() const { return FromBase; }
  Address toSpaceBase() const { return ToBase; }
  uint32_t semispaceBytes() const { return SemiBytes; }
  /// Bytes of live data copied by the most recent collection.
  uint64_t liveBytesAfterLastGc() const { return LiveBytesAfterGc; }

protected:
  void onBeginCycle(GcCycleKind Kind) override;
  bool onCycleStep() override;
  void fillCycleView(GcCycleView &V) const override;

private:
  /// RootScan sub-stages, in scan order.
  enum : uint8_t { RootsHost = 0, RootsStack = 1, RootsStatic = 2,
                   RootsDone = 3 };

  bool inFromSpace(Address A) const {
    return A >= FromBase && A < FromBase + SemiBytes;
  }
  Value forward(Value V);
  void forwardSlotsAt(Address ObjAddr, uint32_t Header);
  bool stepRootScan();
  bool stepTrace();
  void finishCycle();

  Address FromBase;
  Address ToBase;
  uint32_t SemiBytes;
  Address FreePtr = 0; ///< To-space allocation point during a collection.
  Address ScanPtr = 0; ///< Cheney scan pointer (black/grey frontier).
  uint8_t RootStage = RootsHost;
  uint32_t StackCursor = 0;  ///< Stack slots scanned so far.
  Address StaticCursor = 0;  ///< Next static-area object to scan.
  uint64_t LiveBytesAfterGc = 0;
};

} // namespace gcache

#endif // GCACHE_GC_CHENEYCOLLECTOR_H
