//===- MarkSweepCollector.cpp - Non-moving mark-and-sweep GC ----------------===//

#include "gcache/gc/MarkSweepCollector.h"

#include <algorithm>

using namespace gcache;

MarkSweepCollector::MarkSweepCollector(Heap &H, MutatorContext &Mutator,
                                       uint32_t HeapBytes)
    : Collector(H, Mutator) {
  if (HeapBytes % 4 != 0 || HeapBytes < 64 || HeapBytes >= (64u << 20))
    fatalGcError(StatusCode::InvalidArgument,
                 "mark-sweep heap size %u must be a multiple of 4 in "
                 "[64, 64MB)",
                 HeapBytes);
  Base = Heap::DynamicBase;
  End = Base + HeapBytes;
  H.ensureDynamicBacked(End);
  H.setDynamicLimit(0);
  MarkBits.assign((HeapBytes / 4 + 63) / 64, 0);
  // The whole heap starts as one free chunk (untraced setup).
  uint32_t Words = HeapBytes / 4;
  H.poke(Base, makeHeader(ObjectTag::FreeChunk, Words - 1));
  H.poke(Base + 4, 0);
  FreeLists[classOf(Words)] = Base;
}

uint32_t MarkSweepCollector::classOf(uint32_t Words) {
  // Exact classes for 2..16 words (classes 0..14), then geometric ranges.
  if (Words <= 16)
    return Words < 2 ? 0 : Words - 2;
  if (Words <= 24)
    return 15;
  if (Words <= 32)
    return 16;
  if (Words <= 48)
    return 17;
  if (Words <= 64)
    return 18;
  if (Words <= 96)
    return 19;
  if (Words <= 128)
    return 20;
  if (Words <= 192)
    return 21;
  if (Words <= 256)
    return 22;
  return 23;
}

void MarkSweepCollector::pushFree(Address A, uint32_t Words) {
  assert(Words >= 2 && "free chunks need header + next");
  H.store(A, makeHeader(ObjectTag::FreeChunk, Words - 1));
  uint32_t C = classOf(Words);
  H.store(A + 4, FreeLists[C]);
  FreeLists[C] = A;
}

Address MarkSweepCollector::popFit(uint32_t Words) {
  for (uint32_t C = classOf(Words); C != NumClasses; ++C) {
    Address Prev = 0;
    Address Cur = FreeLists[C];
    // First fit within the class (exact classes always fit; range
    // classes require the size check). The traversal's loads are real,
    // traced mutator references — the allocator walking its free lists.
    while (Cur) {
      uint32_t Header = H.load(Cur);
      uint32_t ChunkWords = headerObjectWords(Header);
      AllocSearchCost += 4; // Mutator-side malloc work, not I_gc.
      if (ChunkWords >= Words) {
        Address Next = H.load(Cur + 4);
        if (Prev)
          H.store(Prev + 4, Next);
        else
          FreeLists[C] = Next;
        uint32_t Rest = ChunkWords - Words;
        if (Rest >= 2)
          pushFree(Cur + Words * 4, Rest);
        else if (Rest == 1) // Unlinkable sliver; reclaimed by the sweep.
          H.store(Cur + Words * 4, makeHeader(ObjectTag::FreeChunk, 0));
        return Cur;
      }
      Prev = Cur;
      Cur = H.load(Cur + 4);
    }
  }
  return 0;
}

Address MarkSweepCollector::allocate(uint32_t Words) {
  checkAllocFaults();
  uint32_t Need = Words < 2 ? 2 : Words;
  Address A = popFit(Need);
  if (!A) {
    collect();
    A = popFit(Need);
  }
  if (!A)
    fatalGcError(StatusCode::OutOfMemory,
                 "mark-sweep heap exhausted allocating %u words "
                 "(fragmentation or undersized heap)",
                 Words);
  // Pad a 1-word allocation so the next word stays walkable.
  if (Need > Words)
    H.store(A + Words * 4, makeHeader(ObjectTag::FreeChunk, 0));
  H.recordAllocationEvent(A, Words);
  return A;
}

//===--- Mark phase ---------------------------------------------------------===//

void MarkSweepCollector::markPush(Value V) {
  if (!V.isPointer())
    return;
  Address A = V.asPointer();
  if (A < Base || A >= End || isMarked(A))
    return;
  setMark(A);
  MarkStack.push_back(A);
}

void MarkSweepCollector::scanOne() {
  Address Obj = MarkStack.back();
  MarkStack.pop_back();
  uint32_t Header = H.load(Obj);
  uint32_t First, Count;
  objectValueSlots(headerTag(Header), headerPayloadWords(Header), First,
                   Count);
  Stats.Instructions += gccost::ScanSlot;
  for (uint32_t I = First; I != First + Count; ++I) {
    Value Slot = H.loadValue(Obj + 4 + I * 4);
    Stats.Instructions += gccost::ScanSlot;
    markPush(Slot);
  }
}

void MarkSweepCollector::staticNotch() {
  if (!InStaticObject) {
    uint32_t Header = H.load(StaticCursor);
    objectValueSlots(headerTag(Header), headerPayloadWords(Header),
                     StaticSlotFirst, StaticSlotCount);
    Stats.Instructions += gccost::ScanSlot;
    StaticObjWords = headerObjectWords(Header);
    StaticSlot = StaticSlotFirst;
    InStaticObject = true;
    if (StaticSlotCount == 0) {
      StaticCursor += StaticObjWords * 4;
      InStaticObject = false;
    }
    return;
  }
  Stats.Instructions += gccost::ScanSlot;
  markPush(H.loadValue(StaticCursor + 4 + StaticSlot * 4));
  ++StaticSlot;
  if (StaticSlot == StaticSlotFirst + StaticSlotCount) {
    StaticCursor += StaticObjWords * 4;
    InStaticObject = false;
  }
}

/// One budget unit = one grey object scanned, or (worklist empty) one
/// root notch consumed. Draining before advancing any root cursor keeps
/// the DFS order identical to the unstepped collector's
/// drain-after-each-root marking.
bool MarkSweepCollector::stepMark() {
  uint32_t Budget = stepBudget();
  Address StaticEnd = H.staticFrontier();
  while (Budget) {
    if (!MarkStack.empty()) {
      scanOne();
      --Budget;
      continue;
    }
    if (HostRootCursor < HostRootsSnapshot.size()) {
      Stats.Instructions += gccost::ScanSlot;
      markPush(HostRootsSnapshot[HostRootCursor++]); // Non-moving: no update.
      --Budget;
      continue;
    }
    if (StackCursor < Mutator.liveStackWords()) {
      Stats.Instructions += gccost::ScanSlot;
      markPush(H.loadValue(H.stackSlotAddr(StackCursor++)));
      --Budget;
      continue;
    }
    if (StaticCursor < StaticEnd || InStaticObject) {
      staticNotch();
      --Budget;
      continue;
    }
    beginSweep();
    return true;
  }
  if (MarkStack.empty() && HostRootCursor >= HostRootsSnapshot.size() &&
      StackCursor >= Mutator.liveStackWords() && StaticCursor >= StaticEnd &&
      !InStaticObject)
    beginSweep();
  return true;
}

//===--- Sweep phase --------------------------------------------------------===//

void MarkSweepCollector::beginSweep() {
  for (Address &L : FreeLists)
    L = 0;
  SweepCursor = Base;
  RunStart = 0;
  RunWords = 0;
  setGcPhase(GcPhase::Sweep);
}

bool MarkSweepCollector::stepSweep() {
  uint32_t Budget = stepBudget();
  while (Budget && SweepCursor < End) {
    uint32_t Header = H.load(SweepCursor);
    Stats.Instructions += gccost::ScanSlot;
    uint32_t Words = headerObjectWords(Header);
    bool Live =
        headerTag(Header) != ObjectTag::FreeChunk && isMarked(SweepCursor);
    if (Live) {
      if (RunWords >= 2) {
        pushFree(RunStart, RunWords);
      } else if (RunWords == 1) {
        // Unlinkable 1-word hole: keep it walkable, reclaim when a
        // neighbour dies and the runs coalesce.
        H.store(RunStart, makeHeader(ObjectTag::FreeChunk, 0));
      }
      RunStart = 0;
      RunWords = 0;
    } else {
      if (headerTag(Header) != ObjectTag::FreeChunk)
        ++ObjectsFreed;
      if (!RunWords)
        RunStart = SweepCursor;
      RunWords += Words;
    }
    SweepCursor += Words * 4;
    --Budget;
  }
  if (SweepCursor >= End) {
    if (RunWords >= 2)
      pushFree(RunStart, RunWords);
    else if (RunWords == 1)
      H.store(RunStart, makeHeader(ObjectTag::FreeChunk, 0));
    RunStart = 0;
    RunWords = 0;
    setGcPhase(GcPhase::Finish);
  }
  return true;
}

//===--- Cycle driver hooks -------------------------------------------------===//

void MarkSweepCollector::onBeginCycle(GcCycleKind) {
  // Mark-sweep has a single cycle shape; a Minor request runs it too.
  ++Stats.Collections;
  ++Stats.MajorCollections;
  Stats.Instructions += gccost::Setup;
  H.setPhase(Phase::Collector);
  H.emitGcBegin();

  std::fill(MarkBits.begin(), MarkBits.end(), 0);
  MarkStack.clear();
  HostRootsSnapshot.clear();
  // Capture host roots untraced (they are registers); each is charged
  // and greyed when its notch is consumed, in the original order.
  Mutator.forEachHostRoot(
      [&](Value &V) { HostRootsSnapshot.push_back(V); });
  HostRootCursor = 0;
  StackCursor = 0;
  StaticCursor = Heap::StaticBase;
  InStaticObject = false;
  StaticSlot = StaticSlotFirst = StaticSlotCount = StaticObjWords = 0;
  setGcPhase(GcPhase::Trace);
}

void MarkSweepCollector::finishCycle() {
  H.emitGcEnd();
  H.setPhase(Phase::Mutator);
  Mutator.onPostGc();
  setGcPhase(GcPhase::Idle);
}

bool MarkSweepCollector::onCycleStep() {
  switch (gcPhase()) {
  case GcPhase::Trace:
    return stepMark();
  case GcPhase::Sweep:
    return stepSweep();
  case GcPhase::Finish:
    finishCycle();
    return false;
  default:
    fatalGcError(StatusCode::GcError, "mark-sweep cycle stepped in phase %s",
                 gcPhaseName(gcPhase()));
  }
}

void MarkSweepCollector::fillCycleView(GcCycleView &V) const {
  if (!gcActive())
    return;
  V.MarkRegion = {Base, End};
  V.IsMarked = [this](Address A) {
    return A >= Base && A < End && isMarked(A);
  };
  V.GreyWorklist = &MarkStack;
  V.SweepCursor = SweepCursor;
  if (gcPhase() != GcPhase::Trace)
    return;
  // Roots the mark has not consumed yet, in consumption order (peeks).
  for (size_t I = HostRootCursor; I < HostRootsSnapshot.size(); ++I)
    V.PendingRoots.push_back(HostRootsSnapshot[I]);
  for (uint32_t S = StackCursor, E = Mutator.liveStackWords(); S < E; ++S)
    V.PendingRoots.push_back(Value{H.peek(H.stackSlotAddr(S))});
  Address A = StaticCursor;
  bool In = InStaticObject;
  uint32_t Slot = StaticSlot, First = StaticSlotFirst,
           Count = StaticSlotCount, ObjWords = StaticObjWords;
  Address StaticEnd = H.staticFrontier();
  while (A < StaticEnd) {
    if (!In) {
      uint32_t Header = H.peek(A);
      objectValueSlots(headerTag(Header), headerPayloadWords(Header), First,
                       Count);
      ObjWords = headerObjectWords(Header);
      Slot = First;
      In = true;
    }
    for (; Slot != First + Count; ++Slot)
      V.PendingRoots.push_back(Value{H.peek(A + 4 + Slot * 4)});
    A += ObjWords * 4;
    In = false;
  }
}

uint64_t MarkSweepCollector::freeWords() const {
  uint64_t Total = 0;
  for (Address L : FreeLists) {
    Address Cur = L;
    while (Cur) {
      Total += headerObjectWords(H.peek(Cur));
      Cur = H.peek(Cur + 4);
    }
  }
  return Total;
}
