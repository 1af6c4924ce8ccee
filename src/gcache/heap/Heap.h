//===- Heap.h - Simulated word-addressed memory -----------------*- C++ -*-===//
//
// Part of the gcache project (Reinhold, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simulated 32-bit address space. Every load and store the VM or a
/// collector performs goes through this class and (when tracing is on)
/// emits one Ref event — this is the reproduction's stand-in for the
/// paper's instruction-level MIPS emulator.
///
/// The heap is also the producer of the live trace. A traced load or store
/// is an inline append to a fixed-capacity columnar buffer, which reaches
/// the bus as one RefSpan (TraceSink::onRefs). Every access on the VM's hot
/// path is inline: load/store, the stack-slot forms loadStack/storeStack
/// (which index the stack directly instead of classifying the address),
/// and the untraced peek/poke behind every tag check. The buffer is delivered
/// before every non-reference event the heap emits (allocation, GC begin,
/// GC end, GC phase marker), whenever tracing is toggled or the bus
/// changes, when it fills, and at flushTrace(), which the VM's and the
/// collectors' cooperative poll sites call. Sinks thus see the exact
/// serial order of events (trace/Event.h states the contract); code that
/// reads a sink straight after raw heap accesses calls flushTrace() first.
///
/// The layout mirrors §7's block taxonomy:
///   - a *static* area holding the program itself: interned symbols,
///     quoted constants, global value cells, top-level closures, and the
///     hot runtime vector (the paper's "busy static blocks");
///   - a *stack* area for the procedure-call stack (the paper notes nearly
///     all stack references concentrate in a few extremely busy blocks);
///   - a contiguous *dynamic* area in which objects are allocated linearly
///     by incrementing the allocation pointer, which therefore sweeps any
///     direct-mapped cache from end to end (§7 "Sweeping the cache").
///
//===----------------------------------------------------------------------===//

#ifndef GCACHE_HEAP_HEAP_H
#define GCACHE_HEAP_HEAP_H

#include "gcache/heap/Value.h"
#include "gcache/trace/Event.h"

#include <array>
#include <cassert>
#include <cstdint>
#include <vector>

namespace gcache {

class TraceSink;

/// Simulated memory with static/stack/dynamic regions, linear allocation,
/// and per-access trace emission.
class Heap {
public:
  /// Region base addresses (bytes). Chosen so regions never overlap and
  /// so the dynamic area has ~3.5 GB of headroom for collector-free runs.
  /// The stack base is staggered by an odd multiple of the largest block
  /// size (1453 * 64 bytes) so that the busy stack-bottom blocks do not
  /// share cache blocks with the busy static blocks (runtime vector,
  /// global cells) in any power-of-two cache up to 4 MB — the §7 remark
  /// that avoiding thrash only takes care in placing busy objects.
  /// The dynamic base is likewise offset (128 KB + an odd multiple of 64)
  /// so a generational nursery at the bottom of the dynamic area does not
  /// alias the static data or the stack bottom in caches of 1 MB and up;
  /// in smaller caches a cache-sized-or-larger nursery necessarily covers
  /// every index.
  static constexpr Address StaticBase = 0x00100000;            // 1 MB
  static constexpr Address StackBase = 0x08000000 + 1453 * 64; // ~128 MB
  static constexpr Address DynamicBase = 0x10000000 + 0x20000 + 21 * 64;
  static constexpr uint32_t StackCapacityWords = 1u << 20; // 4 MB of stack.

  /// References buffered before the heap delivers them as one span.
  static constexpr size_t TraceBufferRefs = 4096;

  /// \p Bus receives the trace (references in spans); may be null
  /// (untraced heap).
  explicit Heap(TraceSink *Bus = nullptr);

  //===--- Traced accesses (the instruction-level emulator) --------------===//

  /// Loads the word at \p A, emitting a load event.
  uint32_t load(Address A) {
    traceRef(A, AccessKind::Load);
    return *slotFor(A);
  }
  /// Stores \p V at \p A, emitting a store event.
  void store(Address A, uint32_t V) {
    traceRef(A, AccessKind::Store);
    *slotFor(A) = V;
  }

  Value loadValue(Address A) { return {load(A)}; }
  void storeValue(Address A, Value V) { store(A, V.Bits); }

  /// load/storeValue of stackSlotAddr(\p Slot): the same event, without
  /// classifying the address.
  Value loadStack(uint32_t Slot) {
    traceRef(stackSlotAddr(Slot), AccessKind::Load);
    return {StackWords[Slot]};
  }
  void storeStack(uint32_t Slot, Value V) {
    traceRef(stackSlotAddr(Slot), AccessKind::Store);
    StackWords[Slot] = V.Bits;
  }

  //===--- Untraced accesses (tag checks, verification, test plumbing) ---===//

  uint32_t peek(Address A) const { return *slotFor(A); }
  void poke(Address A, uint32_t V) { *slotFor(A) = V; }

  //===--- Allocation -----------------------------------------------------===//

  /// Bump-allocates \p Words words in the static area (load time). Static
  /// allocations may be padded by the caller to scatter blocks.
  Address allocStatic(uint32_t Words);

  /// Bump-allocates \p Words words at the dynamic allocation pointer and
  /// emits an allocation event. Does NOT check the limit or trigger GC —
  /// that is the collector's job (see gc/Collector.h).
  Address allocDynamicRaw(uint32_t Words);

  /// The dynamic allocation pointer and (semispace) limit. A limit of 0
  /// means unbounded (the §5 control experiment's disabled collector).
  Address dynamicFrontier() const { return DynFrontier; }
  void setDynamicFrontier(Address A);
  Address dynamicLimit() const { return DynLimit; }
  void setDynamicLimit(Address A) { DynLimit = A; }

  /// Words remaining before the frontier hits the limit (UINT32_MAX when
  /// unbounded).
  uint32_t dynamicWordsLeft() const;

  /// Records an allocation performed by a non-linear allocator (the
  /// mark-sweep collector's free lists): bumps the allocation accounting
  /// and emits the allocation event, without moving the frontier.
  void recordAllocationEvent(Address A, uint32_t Words);

  /// Grows the dynamic backing store to cover addresses up to \p A
  /// (exclusive). Collectors call this when carving to-space.
  void ensureDynamicBacked(Address A);

  Address staticFrontier() const { return StaticFrontier; }

  //===--- Stack ----------------------------------------------------------===//

  Address stackSlotAddr(uint32_t Slot) const {
    assert(Slot < StackCapacityWords && "stack overflow");
    return StackBase + Slot * 4;
  }

  //===--- Tracing control ------------------------------------------------===//

  /// Delivers the buffered references to the old bus, then switches.
  void setTraceBus(TraceSink *B) {
    flushTrace();
    Bus = B;
    Emitting = TracingEnabled && Bus;
  }
  /// Delivers the buffered references, then turns tracing on or off.
  void setTracing(bool On) {
    flushTrace();
    TracingEnabled = On;
    Emitting = TracingEnabled && Bus;
  }
  bool tracing() const { return TracingEnabled; }
  /// Tags the references emitted from now on; buffered ones keep theirs.
  void setPhase(Phase P) { CurrentPhase = P; }
  Phase phase() const { return CurrentPhase; }

  /// Delivers every buffered reference to the bus as one span.
  void flushTrace() {
    if (PendingRefs)
      deliverTrace();
  }

  /// Collection events for the bus, each after the buffered references.
  /// They reach the bus whenever one is set, traced run or not.
  void emitGcBegin();
  void emitGcEnd();
  void emitGcPhase(GcPhase P);

  /// Total dynamic bytes ever allocated (the paper's "Alloc" column).
  uint64_t dynamicBytesAllocated() const { return DynBytesAllocated; }

private:
  uint32_t *slotFor(Address A) {
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
  const uint32_t *slotFor(Address A) const {
    return const_cast<Heap *>(this)->slotFor(A);
  }

  void traceRef(Address A, AccessKind K) {
    if (!Emitting)
      return;
    // Read once: the byte stores below may alias any member.
    size_t N = PendingRefs;
    const Phase P = CurrentPhase;
    PendingAddr[N] = A;
    PendingKind[N] = static_cast<uint8_t>(K);
    PendingPhase[N] = static_cast<uint8_t>(P);
    PendingRefs = ++N;
    if (N == TraceBufferRefs)
      deliverTrace();
  }
  /// Hands the buffer to the bus as one span and empties it.
  [[gnu::noinline]] void deliverTrace();
  /// The allocation event of a traced run, after the buffered references.
  void emitAlloc(Address A, uint32_t Bytes);

  std::vector<uint32_t> StaticWords;
  std::vector<uint32_t> StackWords;
  std::vector<uint32_t> DynamicWords;

  Address StaticFrontier = StaticBase;
  Address DynFrontier = DynamicBase;
  Address DynLimit = 0;
  uint64_t DynBytesAllocated = 0;

  TraceSink *Bus = nullptr;
  bool TracingEnabled = true;
  /// TracingEnabled && Bus: whether an access appends to the buffer.
  bool Emitting = false;
  Phase CurrentPhase = Phase::Mutator;

  /// The trace buffer: references emitted but not yet delivered.
  size_t PendingRefs = 0;
  std::array<Address, TraceBufferRefs> PendingAddr{};
  std::array<uint8_t, TraceBufferRefs> PendingKind{};
  std::array<uint8_t, TraceBufferRefs> PendingPhase{};
};

} // namespace gcache

#endif // GCACHE_HEAP_HEAP_H
