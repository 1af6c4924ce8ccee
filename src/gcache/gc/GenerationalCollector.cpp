//===- GenerationalCollector.cpp - Two-generation copying GC ---------------===//

#include "gcache/gc/GenerationalCollector.h"

using namespace gcache;

GenerationalCollector::GenerationalCollector(Heap &H, MutatorContext &Mutator,
                                             const GenerationalConfig &Config)
    : Collector(H, Mutator), Config(Config) {
  if (Config.NurseryBytes % 4 != 0 || Config.NurseryBytes == 0 ||
      Config.OldSemispaceBytes % 4 != 0 || Config.OldSemispaceBytes == 0)
    fatalGcError(StatusCode::InvalidArgument,
                 "generation sizes (%u, %u) must be positive multiples of 4",
                 Config.NurseryBytes, Config.OldSemispaceBytes);
  OldFromBase = Heap::DynamicBase + Config.NurseryBytes;
  OldToBase = OldFromBase + Config.OldSemispaceBytes;
  OldFree = OldFromBase;
  H.setDynamicFrontier(Heap::DynamicBase);
  H.setDynamicLimit(Heap::DynamicBase + Config.NurseryBytes);
}

Address GenerationalCollector::allocate(uint32_t Words) {
  checkAllocFaults();
  uint32_t Bytes = Words * 4;
  // Objects too large for the nursery are allocated directly in the old
  // generation (a conventional large-object escape hatch; it matters for
  // the aggressive configuration, whose nursery can be as small as 32 KB).
  if (Bytes > Config.NurseryBytes / 2) {
    if (oldFreeBytes() < Bytes)
      collect();
    if (oldFreeBytes() < Bytes)
      fatalGcError(StatusCode::OutOfMemory,
                   "old generation exhausted by a %u-byte object", Bytes);
    Address SavedFrontier = H.dynamicFrontier();
    Address SavedLimit = H.dynamicLimit();
    H.setDynamicFrontier(OldFree);
    H.setDynamicLimit(OldFromBase + Config.OldSemispaceBytes);
    Address A = H.allocDynamicRaw(Words);
    OldFree = H.dynamicFrontier();
    H.setDynamicFrontier(SavedFrontier);
    H.setDynamicLimit(SavedLimit);
    return A;
  }
  if (H.dynamicWordsLeft() < Words)
    minorCollect();
  if (H.dynamicWordsLeft() < Words)
    fatalGcError(StatusCode::OutOfMemory,
                 "nursery exhausted after a minor collection");
  return H.allocDynamicRaw(Words);
}

void GenerationalCollector::noteStore(Address Slot, Value New) {
  if (!New.isPointer() || !inNursery(New.asPointer()))
    return;
  if (!inOldFrom(Slot))
    return;
  if (RememberedSet.insert(Slot).second)
    RememberedList.push_back(Slot);
}

Value GenerationalCollector::forward(Value V) {
  if (!V.isPointer())
    return V;
  Address A = V.asPointer();
  if (!inCycleSpace(A))
    return V;

  uint32_t Header = H.load(A);
  Stats.Instructions += gccost::Forward;
  if (isForwardedHeader(Header))
    return Value::pointer(forwardTarget(Header));

  uint32_t Words = headerObjectWords(Header);
  Address NewA = FreePtr;
  H.store(NewA, Header);
  for (uint32_t I = 1; I != Words; ++I)
    H.store(NewA + I * 4, H.load(A + I * 4));
  Stats.Instructions += gccost::CopyWord * Words;
  FreePtr += Words * 4;
  H.store(A, makeForwardHeader(NewA));
  ++Stats.ObjectsCopied;
  Stats.WordsCopied += Words;
  return Value::pointer(NewA);
}

void GenerationalCollector::forwardSlotsAt(Address ObjAddr, uint32_t Header) {
  uint32_t First, Count;
  objectValueSlots(headerTag(Header), headerPayloadWords(Header), First,
                   Count);
  for (uint32_t I = First; I != First + Count; ++I) {
    Address Slot = ObjAddr + 4 + I * 4;
    Value V = H.loadValue(Slot);
    Stats.Instructions += gccost::ScanSlot;
    if (V.isPointer() && inCycleSpace(V.asPointer()))
      H.storeValue(Slot, forward(V));
  }
}

void GenerationalCollector::minorCollect() {
  // If the worst-case promotion cannot fit, fall back to a full
  // collection (which also empties the nursery).
  if (oldFreeBytes() < nurseryUsedBytes()) {
    collect();
    return;
  }
  runCycle(GcCycleKind::Minor);
}

void GenerationalCollector::onBeginCycle(GcCycleKind Kind) {
  ++Stats.Collections;
  if (Kind == GcCycleKind::Full)
    ++Stats.MajorCollections;
  Stats.Instructions += gccost::Setup;
  H.setPhase(Phase::Collector);
  H.emitGcBegin();

  if (Kind == GcCycleKind::Full) {
    H.ensureDynamicBacked(OldToBase + Config.OldSemispaceBytes);
    FreePtr = ScanPtr = OldToBase;
  } else {
    H.ensureDynamicBacked(OldFromBase + Config.OldSemispaceBytes);
    FreePtr = ScanPtr = OldFree;
  }
  RootStage = RootsHost;
  StackCursor = 0;
  StaticCursor = Heap::StaticBase;
  RememberedCursor = 0;
  setGcPhase(GcPhase::RootScan);
}

bool GenerationalCollector::stepRootScan() {
  uint32_t Budget = stepBudget();
  while (Budget) {
    switch (RootStage) {
    case RootsHost:
      Mutator.forEachHostRoot([&](Value &V) {
        Stats.Instructions += gccost::ScanSlot;
        V = forward(V);
      });
      RootStage = RootsStack;
      --Budget;
      break;
    case RootsStack: {
      uint32_t E = Mutator.liveStackWords();
      while (Budget && StackCursor < E) {
        Address A = H.stackSlotAddr(StackCursor);
        Value V = H.loadValue(A);
        Stats.Instructions += gccost::ScanSlot;
        if (V.isPointer() && inCycleSpace(V.asPointer()))
          H.storeValue(A, forward(V));
        ++StackCursor;
        --Budget;
      }
      if (StackCursor >= E)
        RootStage = RootsStatic;
      break;
    }
    case RootsStatic: {
      Address End = H.staticFrontier();
      while (Budget && StaticCursor < End) {
        uint32_t Header = H.load(StaticCursor);
        Stats.Instructions += gccost::ScanSlot;
        forwardSlotsAt(StaticCursor, Header);
        StaticCursor += headerObjectWords(Header) * 4;
        --Budget;
      }
      if (StaticCursor >= End)
        RootStage = RootsRemembered;
      break;
    }
    case RootsRemembered: {
      // Remembered old-to-young slots; full cycles evacuate the whole old
      // generation, so the set contributes nothing extra there.
      if (cycleKind() == GcCycleKind::Full) {
        RootStage = RootsDone;
        break;
      }
      size_t E = RememberedList.size();
      while (Budget && RememberedCursor < E) {
        Address Slot = RememberedList[RememberedCursor];
        Value V = H.loadValue(Slot);
        Stats.Instructions += gccost::ScanSlot;
        if (V.isPointer() && inNursery(V.asPointer()))
          H.storeValue(Slot, forward(V));
        ++RememberedCursor;
        --Budget;
      }
      if (RememberedCursor >= E)
        RootStage = RootsDone;
      break;
    }
    case RootsDone:
      setGcPhase(GcPhase::Trace);
      return true;
    }
  }
  if (RootStage == RootsDone)
    setGcPhase(GcPhase::Trace);
  return true;
}

bool GenerationalCollector::stepTrace() {
  bool Full = cycleKind() == GcCycleKind::Full;
  Address CopyLimit = OldToBase + Config.OldSemispaceBytes;
  uint32_t Budget = stepBudget();
  while (Budget && ScanPtr < FreePtr) {
    uint32_t Header = H.load(ScanPtr);
    Stats.Instructions += gccost::ScanSlot;
    forwardSlotsAt(ScanPtr, Header);
    ScanPtr += headerObjectWords(Header) * 4;
    --Budget;
    if (Full && FreePtr > CopyLimit)
      fatalGcError(StatusCode::OutOfMemory,
                   "old generation overflow during a full collection; "
                   "increase the old semispace size");
  }
  if (ScanPtr >= FreePtr)
    setGcPhase(GcPhase::Finish);
  return true;
}

void GenerationalCollector::finishCycle() {
  if (cycleKind() == GcCycleKind::Full)
    std::swap(OldFromBase, OldToBase);
  OldFree = FreePtr;
  RememberedList.clear();
  RememberedSet.clear();
  H.setDynamicFrontier(Heap::DynamicBase);
  H.setDynamicLimit(Heap::DynamicBase + Config.NurseryBytes);
  H.emitGcEnd();
  H.setPhase(Phase::Mutator);
  Mutator.onPostGc();
  setGcPhase(GcPhase::Idle);
}

bool GenerationalCollector::onCycleStep() {
  switch (gcPhase()) {
  case GcPhase::RootScan:
    return stepRootScan();
  case GcPhase::Trace:
    return stepTrace();
  case GcPhase::Finish:
    finishCycle();
    return false;
  default:
    fatalGcError(StatusCode::GcError,
                 "generational cycle stepped in phase %s",
                 gcPhaseName(gcPhase()));
  }
}

void GenerationalCollector::fillCycleView(GcCycleView &V) const {
  V.RememberedSlots = &RememberedList;
  V.NurseryRegion = {Heap::DynamicBase,
                     Heap::DynamicBase + Config.NurseryBytes};
  V.OldRegion = {OldFromBase, OldFree};
  if (!gcActive())
    return;
  bool Full = cycleKind() == GcCycleKind::Full;
  V.FromRegions.push_back({Heap::DynamicBase, H.dynamicFrontier()});
  if (Full)
    V.FromRegions.push_back({OldFromBase, OldFree});
  else
    V.UntouchedRegions.push_back({OldFromBase, OldFree});
  V.ToRegion = {Full ? OldToBase : OldFree, FreePtr};
  V.ScanPtr = ScanPtr;
  V.HostRootsScanned = RootStage > RootsHost;
  V.StackSlotsScanned = StackCursor;
  V.StaticScanEnd = StaticCursor;
  V.RememberedScanned = RememberedCursor;
}
