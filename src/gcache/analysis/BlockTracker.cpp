//===- BlockTracker.cpp - Per-memory-block behaviour analysis ---------------===//

#include "gcache/analysis/BlockTracker.h"

#include <bit>
#include <cassert>

using namespace gcache;

BlockTracker::BlockTracker(uint32_t BlockBytes, uint32_t CacheBytes,
                           Address RuntimeVectorAddr)
    : BlockBytes(BlockBytes), RuntimeVecAddr(RuntimeVectorAddr) {
  assert(BlockBytes >= 4 && (BlockBytes & (BlockBytes - 1)) == 0 &&
         "block size must be a power of two");
  assert(CacheBytes % BlockBytes == 0 && "cache not a multiple of blocks");
  BlockShift = std::bit_width(BlockBytes) - 1;
  uint32_t NumSlots = CacheBytes / BlockBytes;
  SlotMask = NumSlots - 1;
  SlotShift = std::bit_width(SlotMask);
  assert((NumSlots & SlotMask) == 0 && "cache block count must be 2^k");
  uint32_t StaticBlocks = ((Heap::DynamicBase - 1) >> BlockShift) + 1;
  StaticPages.resize((StaticBlocks + PageBlocks - 1) >> PageShift);
}

void BlockTracker::onAlloc(Address Addr, uint32_t Bytes) {
  uint32_t EndOff = (Addr + Bytes) - Heap::DynamicBase;
  uint32_t NewFrontier = (EndOff + BlockBytes - 1) >> BlockShift;
  if (NewFrontier > FrontierBlocks) {
    if (LastAllocTime.empty())
      LastAllocTime.assign(SlotMask + 1, 0);
    // Each newly claimed dynamic block is an allocation miss in its cache
    // slot; the gap since the slot's previous allocation miss is one
    // allocation cycle (§7).
    for (uint32_t B = FrontierBlocks; B != NewFrontier; ++B) {
      uint32_t Slot = cacheSlotOf(B);
      if (LastAllocTime[Slot])
        CycleLens.add(Clock - LastAllocTime[Slot]);
      LastAllocTime[Slot] = Clock ? Clock : 1;
    }
    FrontierBlocks = NewFrontier;
    Dynamic.resize(FrontierBlocks);
  }
}

void BlockTracker::touch(BlockRecord &Rec, uint32_t Slot) {
  if (Rec.RefCount == 0)
    Rec.FirstRef = Clock;
  Rec.LastRef = Clock;
  ++Rec.RefCount;
  uint32_t Cycle = currentCycleOf(Slot);
  if (Rec.LastCycleSeen != Cycle) {
    Rec.LastCycleSeen = Cycle;
    ++Rec.CyclesActive;
  }
}

void BlockTracker::onRef(const Ref &R) {
  ++Clock;
  if (R.Addr >= Heap::DynamicBase) {
    uint32_t BlockIdx = (R.Addr - Heap::DynamicBase) >> BlockShift;
    if (BlockIdx >= Dynamic.size())
      growDynamic(BlockIdx);
    touch(Dynamic[BlockIdx], cacheSlotOf(BlockIdx));
    return;
  }
  if (R.Addr >= Heap::StackBase &&
      R.Addr < Heap::StackBase + Heap::StackCapacityWords * 4)
    ++StackRefs;
  uint32_t BlockIdx = R.Addr >> BlockShift;
  BlockRecord *Page = StaticPages[BlockIdx >> PageShift].get();
  if (!Page)
    Page = newStaticPage(BlockIdx >> PageShift);
  touch(Page[BlockIdx & (PageBlocks - 1)], cacheSlotOf(BlockIdx));
}

void BlockTracker::onRefs(const RefSpan &S) {
  for (size_t I = 0; I != S.size(); ++I)
    onRef(S[I]);
}

void BlockTracker::growDynamic(uint32_t BlockIdx) {
  // A reference beyond the recorded frontier (e.g. collector-resized
  // areas); extend conservatively.
  Dynamic.resize(BlockIdx + 1);
  if (BlockIdx + 1 > FrontierBlocks)
    FrontierBlocks = BlockIdx + 1;
}

BlockRecord *BlockTracker::newStaticPage(uint32_t PageIdx) {
  StaticPages[PageIdx] = std::make_unique<BlockRecord[]>(PageBlocks);
  return StaticPages[PageIdx].get();
}

BlockSummary BlockTracker::computeSummary() {
  BlockSummary S;
  S.TotalRefs = Clock;
  S.StackRefs = StackRefs;
  uint64_t BusyThreshold = Clock / 1000;
  if (BusyThreshold == 0)
    BusyThreshold = 1;

  if (!Finalized) {
    Finalized = true;
    for (const BlockRecord &Rec : Dynamic) {
      if (Rec.RefCount == 0)
        continue;
      Lifetimes.add(Rec.LastRef - Rec.FirstRef);
      DynRefCounts.add(Rec.RefCount);
    }
  }

  for (size_t I = 0; I != Dynamic.size(); ++I) {
    const BlockRecord &Rec = Dynamic[I];
    if (Rec.RefCount == 0)
      continue;
    ++S.DynamicBlocks;
    uint32_t BirthCycle = (static_cast<uint32_t>(I) >> SlotShift) + 1;
    bool OneCycle = Rec.CyclesActive == 1 && Rec.LastCycleSeen == BirthCycle;
    if (OneCycle)
      ++S.OneCycleBlocks;
    else {
      ++S.MultiCycleBlocks;
      if (Rec.CyclesActive <= 4)
        ++S.MultiCycleActiveLe4;
    }
    if (Rec.RefCount >= BusyThreshold) {
      ++S.BusyDynamicBlocks;
      S.BusyRefs += Rec.RefCount;
    }
  }

  uint32_t RtBlockFirst = RuntimeVecAddr >> BlockShift;
  uint32_t RtBlockLast = (RuntimeVecAddr + 16 * 4) >> BlockShift;
  for (uint32_t PageIdx = 0; PageIdx != StaticPages.size(); ++PageIdx) {
    const BlockRecord *Page = StaticPages[PageIdx].get();
    if (!Page)
      continue;
    for (uint32_t I = 0; I != PageBlocks; ++I) {
      const BlockRecord &Rec = Page[I];
      if (Rec.RefCount == 0)
        continue;
      uint32_t BlockIdx = (PageIdx << PageShift) | I;
      ++S.StaticBlocks;
      if (Rec.RefCount >= BusyThreshold) {
        ++S.BusyStaticBlocks;
        S.BusyRefs += Rec.RefCount;
      }
      if (RuntimeVecAddr && BlockIdx >= RtBlockFirst && BlockIdx <= RtBlockLast)
        S.RuntimeVectorRefs += Rec.RefCount;
    }
  }
  return S;
}
