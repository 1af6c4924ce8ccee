//===- CheneyCollector.cpp - Compacting semispace collector ----------------===//

#include "gcache/gc/CheneyCollector.h"

using namespace gcache;

CheneyCollector::CheneyCollector(Heap &H, MutatorContext &Mutator,
                                 uint32_t SemispaceBytes)
    : Collector(H, Mutator), SemiBytes(SemispaceBytes) {
  if (SemispaceBytes % 4 != 0 || SemispaceBytes == 0)
    fatalGcError(StatusCode::InvalidArgument,
                 "semispace size %u is not a positive multiple of 4",
                 SemispaceBytes);
  FromBase = Heap::DynamicBase;
  ToBase = Heap::DynamicBase + SemiBytes;
  H.setDynamicFrontier(FromBase);
  H.setDynamicLimit(FromBase + SemiBytes);
}

Address CheneyCollector::allocate(uint32_t Words) {
  checkAllocFaults();
  if (H.dynamicWordsLeft() < Words)
    collect();
  if (H.dynamicWordsLeft() < Words)
    fatalGcError(StatusCode::OutOfMemory,
                 "semispace exhausted: %u words requested, %u free; "
                 "increase the semispace size",
                 Words, H.dynamicWordsLeft());
  return H.allocDynamicRaw(Words);
}

Value CheneyCollector::forward(Value V) {
  if (!V.isPointer())
    return V;
  Address A = V.asPointer();
  if (!inFromSpace(A))
    return V; // Static objects (and already-copied to-space objects).

  uint32_t Header = H.load(A);
  Stats.Instructions += gccost::Forward;
  if (isForwardedHeader(Header))
    return Value::pointer(forwardTarget(Header));

  uint32_t Words = headerObjectWords(Header);
  Address NewA = FreePtr;
  // Copy the object word by word (the header was already loaded).
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

void CheneyCollector::forwardSlotsAt(Address ObjAddr, uint32_t Header) {
  uint32_t First, Count;
  objectValueSlots(headerTag(Header), headerPayloadWords(Header), First,
                   Count);
  for (uint32_t I = First; I != First + Count; ++I) {
    Address Slot = ObjAddr + 4 + I * 4;
    Value V = H.loadValue(Slot);
    Stats.Instructions += gccost::ScanSlot;
    if (V.isPointer() && inFromSpace(V.asPointer()))
      H.storeValue(Slot, forward(V));
  }
}

void CheneyCollector::onBeginCycle(GcCycleKind) {
  ++Stats.Collections;
  ++Stats.MajorCollections;
  Stats.Instructions += gccost::Setup;
  H.setPhase(Phase::Collector);
  H.emitGcBegin();

  H.ensureDynamicBacked(ToBase + SemiBytes);
  FreePtr = ToBase;
  ScanPtr = ToBase;
  RootStage = RootsHost;
  StackCursor = 0;
  StaticCursor = Heap::StaticBase;
  setGcPhase(GcPhase::RootScan);
}

/// Roots: host registers (untraced slots; forwarding itself is traced),
/// then the simulated value stack, then the static area, each under a
/// cursor so a step boundary can fall anywhere between slots/objects.
bool CheneyCollector::stepRootScan() {
  uint32_t Budget = stepBudget();
  while (Budget) {
    switch (RootStage) {
    case RootsHost:
      // Host roots are visited through one callback — a single unit of
      // work regardless of budget.
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
        if (V.isPointer() && inFromSpace(V.asPointer()))
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

/// Breadth-first scan of copied objects: up to stepBudget() objects per
/// step at the Cheney scan pointer.
bool CheneyCollector::stepTrace() {
  uint32_t Budget = stepBudget();
  while (Budget && ScanPtr < FreePtr) {
    uint32_t Header = H.load(ScanPtr);
    Stats.Instructions += gccost::ScanSlot;
    forwardSlotsAt(ScanPtr, Header);
    ScanPtr += headerObjectWords(Header) * 4;
    --Budget;
  }
  if (ScanPtr >= FreePtr)
    setGcPhase(GcPhase::Finish);
  return true;
}

void CheneyCollector::finishCycle() {
  // Flip.
  LiveBytesAfterGc = FreePtr - ToBase;
  std::swap(FromBase, ToBase);
  H.setDynamicFrontier(FreePtr);
  H.setDynamicLimit(FromBase + SemiBytes);

  H.emitGcEnd();
  H.setPhase(Phase::Mutator);
  Mutator.onPostGc();
  setGcPhase(GcPhase::Idle);
}

bool CheneyCollector::onCycleStep() {
  switch (gcPhase()) {
  case GcPhase::RootScan:
    return stepRootScan();
  case GcPhase::Trace:
    return stepTrace();
  case GcPhase::Finish:
    finishCycle();
    return false;
  default:
    fatalGcError(StatusCode::GcError, "cheney cycle stepped in phase %s",
                 gcPhaseName(gcPhase()));
  }
}

void CheneyCollector::fillCycleView(GcCycleView &V) const {
  if (!gcActive())
    return;
  V.FromRegions.push_back({FromBase, H.dynamicFrontier()});
  V.ToRegion = {ToBase, FreePtr};
  V.ScanPtr = ScanPtr;
  V.HostRootsScanned = RootStage > RootsHost;
  V.StackSlotsScanned = StackCursor;
  V.StaticScanEnd = StaticCursor;
}
