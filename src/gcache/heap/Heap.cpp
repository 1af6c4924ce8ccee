//===- Heap.cpp - Simulated word-addressed memory --------------------------===//

#include "gcache/heap/Heap.h"

#include <cassert>

using namespace gcache;

Heap::Heap(TraceSink *Bus) : Bus(Bus), Emitting(Bus != nullptr) {
  StackWords.assign(StackCapacityWords, 0);
}

void Heap::deliverTrace() {
  RefSpan Span{PendingAddr.data(), PendingKind.data(), PendingPhase.data(),
               PendingRefs};
  // Emptied first: if a sink throws, a later flush must not hand the same
  // references to the sinks that already took them.
  PendingRefs = 0;
  Bus->onRefs(Span);
}

void Heap::emitGcBegin() {
  if (!Bus)
    return;
  flushTrace();
  Bus->onGcBegin();
}

void Heap::emitGcEnd() {
  if (!Bus)
    return;
  flushTrace();
  Bus->onGcEnd();
}

void Heap::emitGcPhase(GcPhase P) {
  if (!Bus)
    return;
  flushTrace();
  Bus->onGcPhase(P);
}

Address Heap::allocStatic(uint32_t Words) {
  assert(Words > 0 && "empty allocation");
  Address A = StaticFrontier;
  StaticFrontier += Words * 4;
  assert(StaticFrontier < StackBase && "static area overflow");
  StaticWords.resize((StaticFrontier - StaticBase) >> 2, 0);
  return A;
}

Address Heap::allocDynamicRaw(uint32_t Words) {
  assert(Words > 0 && "empty allocation");
  Address A = DynFrontier;
  DynFrontier += Words * 4;
  assert((DynLimit == 0 || DynFrontier <= DynLimit) &&
         "allocation past the semispace limit; collector should have run");
  ensureDynamicBacked(DynFrontier);
  DynBytesAllocated += static_cast<uint64_t>(Words) * 4;
  emitAlloc(A, Words * 4);
  return A;
}

void Heap::recordAllocationEvent(Address A, uint32_t Words) {
  DynBytesAllocated += static_cast<uint64_t>(Words) * 4;
  emitAlloc(A, Words * 4);
}

void Heap::emitAlloc(Address A, uint32_t Bytes) {
  if (!Emitting)
    return;
  flushTrace();
  Bus->onAlloc(A, Bytes);
}

void Heap::setDynamicFrontier(Address A) {
  assert(A >= DynamicBase && (A & 3) == 0 && "bad frontier");
  DynFrontier = A;
  ensureDynamicBacked(A);
}

uint32_t Heap::dynamicWordsLeft() const {
  if (DynLimit == 0)
    return UINT32_MAX;
  assert(DynLimit >= DynFrontier && "frontier past limit");
  return (DynLimit - DynFrontier) >> 2;
}

void Heap::ensureDynamicBacked(Address A) {
  assert(A >= DynamicBase && "not a dynamic address");
  size_t NeedWords = (A - DynamicBase) >> 2;
  if (NeedWords <= DynamicWords.size())
    return;
  // Grow geometrically to amortize; runs without a collector allocate
  // hundreds of megabytes linearly.
  size_t NewSize = DynamicWords.size() ? DynamicWords.size() : (1u << 16);
  while (NewSize < NeedWords)
    NewSize *= 2;
  DynamicWords.resize(NewSize, 0);
}
