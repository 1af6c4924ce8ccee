//===- GcCertifier.cpp - Collector-independent GC-cycle oracle -------------===//

#include "gcache/heap/GcCertifier.h"

#include "gcache/heap/HeapVerifier.h"
#include "gcache/heap/ObjectModel.h"
#include "gcache/support/Status.h"

#include <algorithm>
#include <cstdio>
#include <unordered_set>

using namespace gcache;

namespace {

using Region = GcCycleView::Region;

bool inAny(const std::vector<Region> &Rs, Address A) {
  for (const Region &R : Rs)
    if (R.contains(A))
      return true;
  return false;
}

/// One certification pass: a bundle of peek-only walks over the view.
/// Every check early-returns once the first law is violated, so Rep.Error
/// always names the first problem in walk order.
struct Certifier {
  const Heap &H;
  const GcCycleView &V;
  const GcRootSet &Roots;
  GcCertifyReport Rep;

  Certifier(const Heap &H, const GcCycleView &V, const GcRootSet &Roots)
      : H(H), V(V), Roots(Roots) {}

  bool ok() const { return Rep.Ok; }

  void fail(Address At, const char *What) {
    if (!Rep.Ok)
      return;
    Rep.Ok = false;
    char Buf[192];
    std::snprintf(Buf, sizeof(Buf), "%s phase: %s at address 0x%08x",
                  gcPhaseName(V.Phase), What, At);
    Rep.Error = Buf;
  }

  bool isStatic(Address A) const {
    return A >= Heap::StaticBase && A < H.staticFrontier();
  }
  bool inFrom(Address A) const { return inAny(V.FromRegions, A); }
  bool inTo(Address A) const { return V.ToRegion.contains(A); }
  bool inUntouched(Address A) const { return inAny(V.UntouchedRegions, A); }
  bool inMark(Address A) const { return V.MarkRegion.contains(A); }

  /// A header that could start a real (non-forwarded, non-free) object.
  bool objectHeaderAt(Address A) const {
    uint32_t Header = H.peek(A);
    if (isForwardedHeader(Header))
      return false;
    ObjectTag Tag = headerTag(Header);
    return plausibleHeapTag(Tag) && Tag != ObjectTag::FreeChunk;
  }

  //===--- Copying-cycle laws ---------------------------------------------===//

  /// Black prefix [ToBegin, ScanPtr): structurally well-formed, and — the
  /// tricolor invariant for copying collectors — no pointer left into any
  /// from-space region (verifyHeapRange's valid ranges exclude them).
  void checkBlackPrefix() {
    if (!ok())
      return;
    std::vector<std::pair<Address, Address>> Valid;
    Valid.push_back({V.ToRegion.Begin, V.ToRegion.End});
    for (const Region &U : V.UntouchedRegions)
      Valid.push_back({U.Begin, U.End});
    VerifyResult R = verifyHeapRange(H, V.ToRegion.Begin, V.ScanPtr, Valid);
    Rep.ObjectsChecked += R.Objects;
    if (!R.Ok)
      fail(V.ToRegion.Begin, ("black to-space prefix: " + R.Error).c_str());
  }

  /// Grey range [ScanPtr, ToEnd): verbatim copies whose slots may still
  /// hold from-space pointers — each must target either a plausible white
  /// object or a forwarding header whose target lands in the copied
  /// prefix (forwarding-pointer consistency).
  void checkGreyRange() {
    Address A = V.ScanPtr;
    while (ok() && A < V.ToRegion.End) {
      if (!objectHeaderAt(A)) {
        fail(A, "grey to-space object has a bad header");
        return;
      }
      uint32_t Header = H.peek(A);
      uint32_t Payload = headerPayloadWords(Header);
      Address Next = A + 4 + Payload * 4;
      if (Next > V.ToRegion.End || Next <= A) {
        fail(A, "grey to-space object overruns the copied prefix");
        return;
      }
      uint32_t First, Count;
      objectValueSlots(headerTag(Header), Payload, First, Count);
      for (uint32_t I = First; ok() && I != First + Count; ++I) {
        Value Val{H.peek(A + 4 + I * 4)};
        if (Val.isPointer())
          checkGreyEdge(A, Val.asPointer());
      }
      ++Rep.ObjectsChecked;
      A = Next;
    }
  }

  void checkGreyEdge(Address From, Address T) {
    ++Rep.EdgesChecked;
    if (isStatic(T) || inTo(T) || inUntouched(T)) {
      if (!objectHeaderAt(T))
        fail(From, "grey object's pointer targets no well-formed object");
      return;
    }
    if (inFrom(T)) {
      uint32_t Hdr = H.peek(T);
      if (isForwardedHeader(Hdr)) {
        Address FT = forwardTarget(Hdr);
        if (!inTo(FT))
          fail(T, "forwarding pointer escapes the copied to-space prefix");
        else if (!objectHeaderAt(FT))
          fail(T, "forwarding pointer targets no well-formed object");
        return;
      }
      if (!plausibleHeapTag(headerTag(Hdr)) ||
          headerTag(Hdr) == ObjectTag::FreeChunk)
        fail(From, "grey object's pointer targets a bad from-space header");
      return;
    }
    fail(From, "grey object's pointer targets unknown space");
  }

  /// Roots the cycle claims to have scanned must hold no from-space
  /// pointer any more (no-stale-fromspace-refs).
  void checkScannedRoots() {
    if (!ok())
      return;
    if (V.HostRootsScanned)
      for (Value Val : Roots.HostRoots)
        if (Val.isPointer() && inFrom(Val.asPointer())) {
          fail(Val.asPointer(), "scanned host root still holds a "
                                "from-space pointer");
          return;
        }
    for (uint32_t I = 0; ok() && I < V.StackSlotsScanned; ++I) {
      Value Val{H.peek(H.stackSlotAddr(I))};
      if (Val.isPointer() && inFrom(Val.asPointer()))
        fail(H.stackSlotAddr(I),
             "scanned stack slot still holds a from-space pointer");
    }
    Address End = std::min<Address>(V.StaticScanEnd, H.staticFrontier());
    Address A = Heap::StaticBase;
    while (ok() && A < End) {
      uint32_t Header = H.peek(A);
      if (!plausibleHeapTag(headerTag(Header))) {
        fail(A, "static area object has a bad header");
        return;
      }
      uint32_t Payload = headerPayloadWords(Header);
      uint32_t First, Count;
      objectValueSlots(headerTag(Header), Payload, First, Count);
      for (uint32_t I = First; ok() && I != First + Count; ++I) {
        Value Val{H.peek(A + 4 + I * 4)};
        if (Val.isPointer() && inFrom(Val.asPointer()))
          fail(A, "scanned static object still holds a from-space pointer");
      }
      A += 4 + Payload * 4;
    }
    if (V.RememberedSlots)
      for (size_t I = 0; ok() && I < V.RememberedScanned &&
                         I < V.RememberedSlots->size();
           ++I) {
        Address Slot = (*V.RememberedSlots)[I];
        Value Val{H.peek(Slot)};
        if (Val.isPointer() && inFrom(Val.asPointer()))
          fail(Slot, "scanned remembered slot still holds a from-space "
                     "pointer");
      }
  }

  /// Remembered-set completeness, checkable exactly at a minor cycle's
  /// begin boundary (nothing copied yet, old generation unmodified):
  /// every old-generation slot holding a nursery pointer must have been
  /// recorded by the write barrier.
  void checkRememberedCompleteness() {
    if (!ok() || V.Kind != GcCycleKind::Minor || !V.RememberedSlots ||
        !V.ToRegion.empty() || V.OldRegion.empty())
      return;
    std::unordered_set<Address> Remembered(V.RememberedSlots->begin(),
                                           V.RememberedSlots->end());
    Address A = V.OldRegion.Begin;
    while (ok() && A < V.OldRegion.End) {
      uint32_t Header = H.peek(A);
      if (!plausibleHeapTag(headerTag(Header))) {
        fail(A, "old-generation object has a bad header");
        return;
      }
      uint32_t Payload = headerPayloadWords(Header);
      uint32_t First, Count;
      objectValueSlots(headerTag(Header), Payload, First, Count);
      for (uint32_t I = First; ok() && I != First + Count; ++I) {
        Address Slot = A + 4 + I * 4;
        Value Val{H.peek(Slot)};
        if (Val.isPointer() && V.NurseryRegion.contains(Val.asPointer()) &&
            !Remembered.count(Slot))
          fail(Slot, "old-generation slot holds a nursery pointer but is "
                     "not in the remembered set");
      }
      ++Rep.ObjectsChecked;
      A += 4 + Payload * 4;
    }
  }

  /// Independent root-set traversal for copying cycles: follow every
  /// edge from every root (forwarded pointers normalized to their copy),
  /// demanding each step lands on a well-formed object in a known
  /// region. At the finish boundary additionally demand nothing
  /// reachable is still an unforwarded from-space object (reachability
  /// conservation: everything live got copied).
  void traverseCopyingRoots() {
    if (!ok())
      return;
    bool RequireEvacuated = V.Phase == GcPhase::Finish;
    std::unordered_set<Address> Visited;
    std::vector<Address> Work;

    auto pushTarget = [&](Address T, const char *What) {
      if (!ok())
        return;
      ++Rep.EdgesChecked;
      if (inFrom(T)) {
        uint32_t Hdr = H.peek(T);
        if (isForwardedHeader(Hdr)) {
          Address FT = forwardTarget(Hdr);
          if (!inTo(FT)) {
            fail(T, "forwarding pointer escapes the copied to-space prefix");
            return;
          }
          T = FT;
        } else if (RequireEvacuated) {
          fail(T, "reachable object still un-evacuated in from-space at "
                  "the finish boundary");
          return;
        }
      } else if (!isStatic(T) && !inTo(T) && !inUntouched(T)) {
        fail(T, What);
        return;
      }
      if (!objectHeaderAt(T)) {
        fail(T, "reachable pointer targets no well-formed object");
        return;
      }
      if (Visited.insert(T).second)
        Work.push_back(T);
    };
    auto pushValue = [&](Value Val, const char *What) {
      if (Val.isPointer())
        pushTarget(Val.asPointer(), What);
    };

    for (Value Val : Roots.HostRoots)
      pushValue(Val, "host root targets unknown space");
    for (uint32_t I = 0; ok() && I < Roots.StackWords; ++I)
      pushValue(Value{H.peek(H.stackSlotAddr(I))},
                "stack root targets unknown space");
    // Remembered slots root only a minor cycle. A full cycle traces the
    // old generation itself, so a slot of a dead old object roots nothing.
    if (V.Kind == GcCycleKind::Minor && V.RememberedSlots)
      for (Address Slot : *V.RememberedSlots)
        pushValue(Value{H.peek(Slot)},
                  "remembered slot targets unknown space");

    while (ok() && !Work.empty()) {
      Address A = Work.back();
      Work.pop_back();
      uint32_t Header = H.peek(A);
      uint32_t Payload = headerPayloadWords(Header);
      uint32_t First, Count;
      objectValueSlots(headerTag(Header), Payload, First, Count);
      for (uint32_t I = First; ok() && I != First + Count; ++I)
        pushValue(Value{H.peek(A + 4 + I * 4)},
                  "reachable pointer targets unknown space");
    }
    Rep.ObjectsChecked += Visited.size();
  }

  void runCopyingChecks() {
    if (V.Phase == GcPhase::Finish && V.ScanPtr != V.ToRegion.End) {
      fail(V.ScanPtr, "grey objects remain at the finish boundary");
      return;
    }
    checkBlackPrefix();
    checkGreyRange();
    checkScannedRoots();
    checkRememberedCompleteness();
    traverseCopyingRoots();
  }

  //===--- Marking-cycle laws ---------------------------------------------===//

  /// Closure over the heap graph from \p Seeds, treating the mark region
  /// and the static area as traversable. Returns the set of mark-region
  /// objects covered. Wild edges fail the pass.
  std::unordered_set<Address>
  markClosure(const std::vector<Address> &Seeds, const char *What) {
    std::unordered_set<Address> Visited;
    std::vector<Address> Work;
    auto push = [&](Address T) {
      if (!ok())
        return;
      ++Rep.EdgesChecked;
      if (!inMark(T) && !isStatic(T)) {
        fail(T, What);
        return;
      }
      uint32_t Hdr = H.peek(T);
      if (!plausibleHeapTag(headerTag(Hdr)) ||
          headerTag(Hdr) == ObjectTag::FreeChunk) {
        fail(T, "reachable pointer targets no well-formed object");
        return;
      }
      if (Visited.insert(T).second)
        Work.push_back(T);
    };
    for (Address S : Seeds)
      push(S);
    while (ok() && !Work.empty()) {
      Address A = Work.back();
      Work.pop_back();
      uint32_t Header = H.peek(A);
      uint32_t Payload = headerPayloadWords(Header);
      uint32_t First, Count;
      objectValueSlots(headerTag(Header), Payload, First, Count);
      for (uint32_t I = First; ok() && I != First + Count; ++I) {
        Value Val{H.peek(A + 4 + I * 4)};
        if (Val.isPointer())
          push(Val.asPointer());
      }
    }
    return Visited;
  }

  /// Full independent root set of a marking cycle: host roots, every
  /// live stack slot, and every traced slot of the static area.
  std::vector<Address> fullRootSeeds() {
    std::vector<Address> Seeds;
    auto add = [&](Value Val) {
      if (Val.isPointer())
        Seeds.push_back(Val.asPointer());
    };
    for (Value Val : Roots.HostRoots)
      add(Val);
    for (uint32_t I = 0; I < Roots.StackWords; ++I)
      add(Value{H.peek(H.stackSlotAddr(I))});
    Address A = Heap::StaticBase;
    while (A < H.staticFrontier()) {
      uint32_t Header = H.peek(A);
      if (!plausibleHeapTag(headerTag(Header))) {
        fail(A, "static area object has a bad header");
        break;
      }
      uint32_t Payload = headerPayloadWords(Header);
      uint32_t First, Count;
      objectValueSlots(headerTag(Header), Payload, First, Count);
      for (uint32_t I = First; I != First + Count; ++I)
        add(Value{H.peek(A + 4 + I * 4)});
      A += 4 + Payload * 4;
    }
    return Seeds;
  }

  /// Tricolor invariant for the stepped mark phase: a black object (marked
  /// and not on the grey worklist) never points at an unmarked mark-region
  /// object.
  void checkTricolor() {
    if (!ok())
      return;
    std::unordered_set<Address> Grey;
    if (V.GreyWorklist)
      Grey.insert(V.GreyWorklist->begin(), V.GreyWorklist->end());
    Address A = V.MarkRegion.Begin;
    while (ok() && A < V.MarkRegion.End) {
      uint32_t Header = H.peek(A);
      ObjectTag Tag = headerTag(Header);
      if (!plausibleHeapTag(Tag)) {
        fail(A, "mark-region object has a bad header");
        return;
      }
      uint32_t Payload = headerPayloadWords(Header);
      Address Next = A + 4 + Payload * 4;
      if (Next > V.MarkRegion.End || Next <= A) {
        fail(A, "mark-region object overruns the region");
        return;
      }
      if (Tag != ObjectTag::FreeChunk && V.IsMarked(A) && !Grey.count(A)) {
        uint32_t First, Count;
        objectValueSlots(Tag, Payload, First, Count);
        for (uint32_t I = First; ok() && I != First + Count; ++I) {
          Value Val{H.peek(A + 4 + I * 4)};
          if (Val.isPointer())
            checkBlackEdge(Val.asPointer(), /*RequireMarked=*/true);
        }
      }
      ++Rep.ObjectsChecked;
      A = Next;
    }
  }

  /// Validates one outgoing edge of a live (marked) mark-region object.
  /// Only live objects' edges are checkable: dead objects legally hold
  /// dangling pointers into memory earlier cycles freed and recycled.
  /// \p RequireMarked additionally demands mark-region targets be marked
  /// (the tricolor invariant for black sources during the mark; mark
  /// completeness for live objects during the sweep).
  void checkBlackEdge(Address T, bool RequireMarked) {
    ++Rep.EdgesChecked;
    if (inMark(T)) {
      if (RequireMarked && !V.IsMarked(T)) {
        fail(T, "unmarked (white) object reachable from a black object");
        return;
      }
      uint32_t Hdr = H.peek(T);
      if (isForwardedHeader(Hdr) || !plausibleHeapTag(headerTag(Hdr)) ||
          headerTag(Hdr) == ObjectTag::FreeChunk)
        fail(T, "live object's pointer targets no well-formed object");
      return;
    }
    if (isStatic(T)) {
      if (!plausibleHeapTag(headerTag(H.peek(T))))
        fail(T, "live object's pointer targets no well-formed object");
      return;
    }
    fail(T, "live object's pointer targets unknown space");
  }

  /// Sweep/finish boundaries: the whole region must stay walkable (every
  /// header — live, dead, or free chunk — parses and stays in bounds;
  /// that is what lets the sweep and the next cycle's allocator hop it),
  /// and every *live* object's edges must target well-formed, still-
  /// marked objects. Dead interiors are not inspected — the sweep's run
  /// coalescing rewrites them as it goes.
  void checkSweepStructure() {
    if (!ok())
      return;
    Address A = V.MarkRegion.Begin;
    while (ok() && A < V.MarkRegion.End) {
      uint32_t Header = H.peek(A);
      ObjectTag Tag = headerTag(Header);
      if (isForwardedHeader(Header) || !plausibleHeapTag(Tag)) {
        fail(A, "mark-region object has a bad header");
        return;
      }
      uint32_t Payload = headerPayloadWords(Header);
      Address Next = A + 4 + Payload * 4;
      if (Next > V.MarkRegion.End || Next <= A) {
        fail(A, "mark-region object overruns the region");
        return;
      }
      if (Tag != ObjectTag::FreeChunk && V.IsMarked(A)) {
        uint32_t First, Count;
        objectValueSlots(Tag, Payload, First, Count);
        for (uint32_t I = First; ok() && I != First + Count; ++I) {
          Value Val{H.peek(A + 4 + I * 4)};
          if (Val.isPointer())
            checkBlackEdge(Val.asPointer(), /*RequireMarked=*/true);
        }
      }
      ++Rep.ObjectsChecked;
      A = Next;
    }
  }

  /// Reachability conservation for the mark phase: everything reachable
  /// from the full root set is either already marked or still covered by
  /// the grey worklist / pending roots — a truncated worklist or dropped
  /// root breaks this.
  void checkMarkConservation() {
    if (!ok())
      return;
    std::vector<Address> GreySeeds;
    if (V.GreyWorklist)
      GreySeeds.assign(V.GreyWorklist->begin(), V.GreyWorklist->end());
    for (Value Val : V.PendingRoots)
      if (Val.isPointer())
        GreySeeds.push_back(Val.asPointer());
    std::unordered_set<Address> Covered = markClosure(
        GreySeeds, "grey worklist entry targets unknown space");
    if (!ok())
      return;
    std::unordered_set<Address> Reachable = markClosure(
        fullRootSeeds(), "reachable pointer targets unknown space");
    for (Address A : Reachable) {
      if (!ok())
        return;
      if (inMark(A) && !V.IsMarked(A) && !Covered.count(A))
        fail(A, "reachable object neither marked nor covered by the grey "
                "worklist (truncated worklist or dropped root)");
    }
  }

  /// After the mark phase (sweep/finish boundaries) the mark must be
  /// complete: everything reachable is marked.
  void checkMarkComplete() {
    if (!ok())
      return;
    std::unordered_set<Address> Reachable = markClosure(
        fullRootSeeds(), "reachable pointer targets unknown space");
    for (Address A : Reachable) {
      if (!ok())
        return;
      if (inMark(A) && !V.IsMarked(A))
        fail(A, "reachable object is unmarked after the mark phase");
    }
  }

  void runMarkingChecks() {
    // No whole-region verifyHeapRange here: it validates every object's
    // pointer targets, but a non-moving heap's *dead* objects legally
    // dangle into memory that earlier cycles freed, coalesced, or
    // recycled. Structure (headers/bounds) is checked for the whole
    // region; pointer targets only for marked (live) objects.
    if (V.Phase == GcPhase::Trace) {
      checkTricolor();
      checkMarkConservation();
    } else {
      checkSweepStructure();
      checkMarkComplete();
    }
  }
};

} // namespace

GcCertifyReport gcache::certifyGcCycle(const Heap &H, const GcCycleView &V,
                                       const GcRootSet &Roots) {
  Certifier C(H, V, Roots);
  if (V.Phase == GcPhase::Idle)
    return C.Rep; // No cycle: nothing phase-specific to certify.
  if (!V.FromRegions.empty())
    C.runCopyingChecks();
  else if (V.IsMarked)
    C.runMarkingChecks();
  return C.Rep;
}

void gcache::certifyGcCycleOrThrow(const Heap &H, const GcCycleView &V,
                                   const GcRootSet &Roots, const char *When) {
  GcCertifyReport R = certifyGcCycle(H, V, Roots);
  if (!R.Ok)
    throw StatusError(Status::failf(
        StatusCode::HeapCorrupt, "GC certification failed %s: %s", When,
        R.Error.c_str()));
}
