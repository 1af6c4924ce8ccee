//===- test_gc_certifier.cpp - GC-cycle certification oracle tests ----------===//
//
// The collector-independent GcCertifier (heap/GcCertifier.h): clean cycles
// certify at every step boundary for every collector, and seeded
// corruptions — a clobbered forwarding pointer, a dropped remembered-set
// entry, a white object reachable from a black one, a truncated mark
// worklist — are each caught.
//
//===----------------------------------------------------------------------===//

#include "gcache/gc/CheneyCollector.h"
#include "gcache/gc/GenerationalCollector.h"
#include "gcache/gc/MarkSweepCollector.h"
#include "gcache/heap/GcCertifier.h"
#include "gcache/trace/Sinks.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

using namespace gcache;

namespace {

constexpr uint32_t fixnum(uint32_t X) { return X << 2; }

struct World {
  TraceBus Bus;
  CountingSink Counting;
  Heap H{&Bus};
  SimpleMutatorContext Mut;
  std::unique_ptr<Collector> Coll;

  World() {
    Bus.addSink(&Counting);
    Mut.StackWords = 8;
  }

  void makeCheney(uint32_t SemiBytes = 32 * 1024) {
    Coll.reset(new CheneyCollector(H, Mut, SemiBytes));
  }
  void makeGenerational(uint32_t NurseryBytes = 4 * 1024,
                        uint32_t OldBytes = 32 * 1024) {
    Coll.reset(new GenerationalCollector(
        H, Mut, GenerationalConfig{NurseryBytes, OldBytes}));
  }
  void makeMarkSweep(uint32_t HeapBytes = 32 * 1024) {
    Coll.reset(new MarkSweepCollector(H, Mut, HeapBytes));
  }

  Address allocRooted(uint32_t Slot, uint32_t Payload) {
    Address Obj = Coll->allocate(1 + Payload);
    H.store(Obj, makeHeader(ObjectTag::Vector, Payload));
    for (uint32_t I = 0; I != Payload; ++I)
      H.store(Obj + 4 + I * 4, fixnum(100 + I));
    H.storeValue(H.stackSlotAddr(Slot), Value::pointer(Obj));
    return Obj;
  }
};

/// Runs \p Fn and returns the StatusError it throws; fails the test when
/// nothing is thrown.
template <typename Fn> Status expectThrows(Fn &&F, const char *What) {
  try {
    F();
  } catch (const StatusError &E) {
    return E.status();
  }
  ADD_FAILURE() << What << ": expected a certification failure";
  return Status();
}

//===--- Clean cycles certify ------------------------------------------------===//

TEST(GcCertifier, CleanCyclesCertifyAtEveryBoundary) {
  for (int Kind = 0; Kind != 3; ++Kind) {
    World W;
    if (Kind == 0)
      W.makeCheney();
    else if (Kind == 1)
      W.makeGenerational();
    else
      W.makeMarkSweep();
    W.Coll->setStepBudget(1);
    W.Coll->setPhaseParanoid(true);

    for (uint32_t I = 0; I != 10; ++I)
      W.allocRooted(I % 6, 2 + I % 3);
    // Cross pointers (through the write barrier where there is one).
    for (uint32_t I = 0; I != 6; ++I) {
      Value Src = W.H.loadValue(W.H.stackSlotAddr((I + 1) % 6));
      Value Dst = W.H.loadValue(W.H.stackSlotAddr(I));
      if (!Src.isPointer() || !Dst.isPointer())
        continue;
      W.H.storeValue(Dst.asPointer() + 4, Src);
      W.Coll->noteStore(Dst.asPointer() + 4, Src);
    }
    EXPECT_NO_THROW(W.Coll->collect()) << "collector kind " << Kind;
    EXPECT_NO_THROW(W.Coll->collect()) << "collector kind " << Kind;
  }
}

TEST(GcCertifier, CleanMinorCycleCertifies) {
  World W;
  W.makeGenerational();
  W.Coll->setStepBudget(1);
  W.Coll->setPhaseParanoid(true);
  Address A = W.allocRooted(0, 3);
  auto *Gen = static_cast<GenerationalCollector *>(W.Coll.get());
  EXPECT_NO_THROW(Gen->minorCollect());
  // The survivor was promoted; a barrier-tracked old-to-young pointer
  // keeps the next minor cycle certifiable.
  Value Promoted = W.H.loadValue(W.H.stackSlotAddr(0));
  ASSERT_TRUE(Promoted.isPointer());
  ASSERT_NE(Promoted.asPointer(), A);
  Address B = W.allocRooted(1, 2);
  W.H.storeValue(Promoted.asPointer() + 4, Value::pointer(B));
  W.Coll->noteStore(Promoted.asPointer() + 4, Value::pointer(B));
  EXPECT_NO_THROW(Gen->minorCollect());
}

// A full cycle must not treat the remembered set as roots: here the only
// path to a nursery object runs through a remembered slot of an old object
// that is already dead, so the full cycle rightly leaves it behind.
TEST(GcCertifier, FullCycleIgnoresRememberedSlotsOfDeadObjects) {
  World W;
  W.makeGenerational();
  W.Coll->setStepBudget(1);
  W.Coll->setPhaseParanoid(true);
  W.allocRooted(0, 3);
  auto *Gen = static_cast<GenerationalCollector *>(W.Coll.get());
  EXPECT_NO_THROW(Gen->minorCollect());
  Value Old = W.H.loadValue(W.H.stackSlotAddr(0));
  ASSERT_TRUE(Old.isPointer());
  Address Young = W.allocRooted(1, 2);
  W.H.storeValue(Old.asPointer() + 4, Value::pointer(Young));
  W.Coll->noteStore(Old.asPointer() + 4, Value::pointer(Young));
  W.H.storeValue(W.H.stackSlotAddr(0), Value::fixnum(0));
  W.H.storeValue(W.H.stackSlotAddr(1), Value::fixnum(0));
  EXPECT_NO_THROW(W.Coll->collect());
}

TEST(GcCertifier, IdleViewCertifiesTrivially) {
  World W;
  W.makeCheney();
  W.allocRooted(0, 3);
  GcRootSet Roots;
  Roots.StackWords = W.Mut.liveStackWords();
  GcCertifyReport R = certifyGcCycle(W.H, W.Coll->cycleView(), Roots);
  EXPECT_TRUE(R.Ok) << R.Error;
}

//===--- Mutation: clobbered forwarding pointer ------------------------------===//

TEST(GcCertifier, FiresOnClobberedForwardingPointer) {
  World W;
  W.makeCheney();
  Address O0 = W.allocRooted(0, 3);
  for (uint32_t I = 1; I != 4; ++I)
    W.allocRooted(I, 2);
  // A second, late-scanned root keeps a from-space pointer to O0 alive
  // while its forward header is being clobbered.
  W.H.storeValue(W.H.stackSlotAddr(6), Value::pointer(O0));

  W.Coll->setStepBudget(1);
  W.Coll->beginCycle(GcCycleKind::Full);
  ASSERT_TRUE(W.Coll->gcActive());
  bool Forwarded = false;
  for (int Step = 0; Step != 5 && W.Coll->stepCycle(); ++Step) {
    if (isForwardedHeader(W.H.peek(O0))) {
      Forwarded = true;
      break;
    }
  }
  ASSERT_TRUE(Forwarded) << "root scan never evacuated the probe object";
  EXPECT_NO_THROW(W.Coll->certifyNowOrThrow("before clobber"));

  // Point the forward header far past the copied to-space prefix.
  auto *Cheney = static_cast<CheneyCollector *>(W.Coll.get());
  Address Bad = Cheney->toSpaceBase() + Cheney->semispaceBytes() - 8;
  W.H.poke(O0, makeForwardHeader(Bad));

  Status S = expectThrows([&] { W.Coll->certifyNowOrThrow("clobbered"); },
                          "clobbered forwarding pointer");
  EXPECT_EQ(S.code(), StatusCode::HeapCorrupt);
  EXPECT_NE(S.message().find("forwarding pointer"), std::string::npos)
      << S.message();
}

//===--- Mutation: dropped remembered-set entry ------------------------------===//

TEST(GcCertifier, FiresOnDroppedRememberedEntry) {
  World W;
  W.makeGenerational();
  W.allocRooted(0, 3);
  auto *Gen = static_cast<GenerationalCollector *>(W.Coll.get());
  Gen->minorCollect();
  Value Promoted = W.H.loadValue(W.H.stackSlotAddr(0));
  ASSERT_TRUE(Promoted.isPointer());
  ASSERT_GE(Promoted.asPointer(), Gen->oldSpaceBase());

  // A fresh nursery object, stored into the old object *without* the
  // write barrier — exactly the bug a lost noteStore would cause.
  Address B = W.allocRooted(1, 2);
  W.H.poke(Promoted.asPointer() + 4, Value::pointer(B).Bits);

  Status S = expectThrows(
      [&] {
        W.Coll->beginCycle(GcCycleKind::Minor);
        W.Coll->certifyNowOrThrow("at minor begin");
      },
      "dropped remembered-set entry");
  EXPECT_EQ(S.code(), StatusCode::HeapCorrupt);
  EXPECT_NE(S.message().find("remembered"), std::string::npos) << S.message();
}

//===--- Mutation: white reachable from black --------------------------------===//

TEST(GcCertifier, FiresOnWhiteReachableFromBlack) {
  World W;
  W.makeMarkSweep();
  Address A = W.allocRooted(0, 1);
  Address B = W.allocRooted(1, 1);

  W.Coll->setStepBudget(1);
  W.Coll->beginCycle(GcCycleKind::Full);
  ASSERT_TRUE(W.Coll->gcActive());
  // Step until A is black (marked, off the worklist) while B is still
  // white (its root not yet scanned).
  bool Ready = false;
  for (int Step = 0; Step != 6 && !Ready && W.Coll->stepCycle(); ++Step) {
    GcCycleView V = W.Coll->cycleView();
    ASSERT_TRUE(V.IsMarked) << "mark-sweep must expose a marking view";
    bool AGrey = false;
    for (Address G : *V.GreyWorklist)
      AGrey |= (G == A);
    Ready = V.IsMarked(A) && !AGrey && !V.IsMarked(B);
  }
  ASSERT_TRUE(Ready) << "never reached a black-A / white-B boundary";
  EXPECT_NO_THROW(W.Coll->certifyNowOrThrow("before mutation"));

  W.H.poke(A + 4, Value::pointer(B).Bits);
  Status S = expectThrows([&] { W.Coll->certifyNowOrThrow("tricolor"); },
                          "white reachable from black");
  EXPECT_EQ(S.code(), StatusCode::HeapCorrupt);
  EXPECT_NE(S.message().find("white"), std::string::npos) << S.message();
}

//===--- Mutation: truncated mark worklist ----------------------------------===//

TEST(GcCertifier, FiresOnTruncatedWorklist) {
  World W;
  W.makeMarkSweep();
  Address L = W.allocRooted(1, 1);
  Address M = W.allocRooted(2, 1);
  W.H.storeValue(M + 4, Value::pointer(L));
  Address C0 = W.allocRooted(0, 1);
  W.H.storeValue(C0 + 4, Value::pointer(M));
  // L is now reachable only through C0 -> M -> L.
  W.H.poke(W.H.stackSlotAddr(1), 0);
  W.H.poke(W.H.stackSlotAddr(2), 0);

  W.Coll->setStepBudget(1);
  W.Coll->beginCycle(GcCycleKind::Full);
  // Step until M sits on the worklist (grey) with L still unmarked.
  bool Ready = false;
  for (int Step = 0; Step != 6 && !Ready && W.Coll->stepCycle(); ++Step) {
    GcCycleView V = W.Coll->cycleView();
    ASSERT_TRUE(V.GreyWorklist);
    bool MGrey = false;
    for (Address G : *V.GreyWorklist)
      MGrey |= (G == M);
    Ready = MGrey && !V.IsMarked(L);
  }
  ASSERT_TRUE(Ready) << "never caught M grey with L white";

  GcRootSet Roots;
  for (Value *V : W.Mut.HostRoots)
    Roots.HostRoots.push_back(*V);
  Roots.StackWords = W.Mut.liveStackWords();

  // The honest view certifies...
  GcCertifyReport Honest = certifyGcCycle(W.H, W.Coll->cycleView(), Roots);
  EXPECT_TRUE(Honest.Ok) << Honest.Error;

  // ...and the same view with its grey worklist emptied does not: L is
  // reachable, unmarked, and no longer covered by any grey object.
  GcCycleView Truncated = W.Coll->cycleView();
  const std::vector<Address> NoGrey;
  ASSERT_FALSE(Truncated.GreyWorklist->empty());
  Truncated.GreyWorklist = &NoGrey;
  GcCertifyReport Caught = certifyGcCycle(W.H, Truncated, Roots);
  EXPECT_FALSE(Caught.Ok) << "truncated mark worklist";
  EXPECT_FALSE(Caught.Error.empty());

  while (W.Coll->stepCycle()) {
  }
}

} // namespace
