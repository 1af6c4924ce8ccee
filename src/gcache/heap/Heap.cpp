//===- Heap.cpp - Simulated word-addressed memory --------------------------===//

#include "gcache/heap/Heap.h"

#include "gcache/trace/Sinks.h"

#include <cassert>

using namespace gcache;

Heap::Heap(TraceSink *Bus) : Bus(Bus) {
  StackWords.assign(StackCapacityWords, 0);
}

uint32_t *Heap::slotFor(Address A) {
  assert((A & 3) == 0 && "word access must be aligned");
  if (A >= DynamicBase) {
    size_t Idx = (A - DynamicBase) >> 2;
    assert(Idx < DynamicWords.size() && "dynamic access out of bounds");
    return &DynamicWords[Idx];
  }
  if (A >= StackBase) {
    size_t Idx = (A - StackBase) >> 2;
    assert(Idx < StackWords.size() && "stack access out of bounds");
    return &StackWords[Idx];
  }
  assert(A >= StaticBase && "access below the static area");
  size_t Idx = (A - StaticBase) >> 2;
  assert(Idx < StaticWords.size() && "static access out of bounds");
  return &StaticWords[Idx];
}

const uint32_t *Heap::slotFor(Address A) const {
  return const_cast<Heap *>(this)->slotFor(A);
}

uint32_t Heap::load(Address A) {
  if (TracingEnabled && Bus)
    Bus->onRef({A, AccessKind::Load, CurrentPhase});
  return *slotFor(A);
}

void Heap::store(Address A, uint32_t V) {
  if (TracingEnabled && Bus)
    Bus->onRef({A, AccessKind::Store, CurrentPhase});
  *slotFor(A) = V;
}

uint32_t Heap::peek(Address A) const { return *slotFor(A); }
void Heap::poke(Address A, uint32_t V) { *slotFor(A) = V; }

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
  if (TracingEnabled && Bus)
    Bus->onAlloc(A, Words * 4);
  return A;
}

void Heap::recordAllocationEvent(Address A, uint32_t Words) {
  DynBytesAllocated += static_cast<uint64_t>(Words) * 4;
  if (TracingEnabled && Bus)
    Bus->onAlloc(A, Words * 4);
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
