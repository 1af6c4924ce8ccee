//===- test_gc.cpp - Collector unit and property tests -------------------------===//
//
// Direct tests of the Cheney and generational collectors against the raw
// heap (no VM): structure preservation, sharing, forwarding, root
// updating, phase-tagged tracing, write barriers, promotion, and a
// randomized object-graph property test cross-checked against a
// host-side shadow model.
//
//===----------------------------------------------------------------------===//

#include "gcache/gc/CheneyCollector.h"
#include "gcache/gc/GenerationalCollector.h"
#include "gcache/heap/HeapVerifier.h"
#include "gcache/support/Random.h"
#include "gcache/trace/Sinks.h"

#include <gtest/gtest.h>

#include <map>

using namespace gcache;

namespace {

/// Builds a proper list (0 1 2 ... N-1).
Value buildList(Heap &H, Allocator &A, int N) {
  Value L = Value::nil();
  for (int I = N - 1; I >= 0; --I)
    L = makePair(H, A, Value::fixnum(I), L);
  return L;
}

/// Checks the list is (0 1 ... N-1) via untraced reads.
bool checkList(Heap &H, Value L, int N) {
  for (int I = 0; I != N; ++I) {
    if (!isPair(H, L) || carOf(H, L).asFixnum() != I)
      return false;
    L = cdrOf(H, L);
  }
  return L.isNil();
}

} // namespace

//===----------------------------------------------------------------------===//
// Cheney
//===----------------------------------------------------------------------===//

TEST(Cheney, PreservesRootedList) {
  Heap H;
  SimpleMutatorContext M;
  CheneyCollector GC(H, M, 64 * 1024);
  Value L = buildList(H, GC, 100);
  M.HostRoots.push_back(&L);
  Address Before = L.asPointer();
  GC.collect();
  EXPECT_NE(L.asPointer(), Before) << "copying collector must move";
  EXPECT_TRUE(checkList(H, L, 100));
  EXPECT_EQ(GC.stats().Collections, 1u);
  EXPECT_EQ(M.PostGcCalls, 1u);
}

TEST(Cheney, DropsGarbage) {
  Heap H;
  SimpleMutatorContext M;
  CheneyCollector GC(H, M, 64 * 1024);
  Value Keep = buildList(H, GC, 10);
  (void)buildList(H, GC, 1000); // garbage
  M.HostRoots.push_back(&Keep);
  GC.collect();
  // Live: 10 pairs x 3 words.
  EXPECT_EQ(GC.liveBytesAfterLastGc(), 10u * 12);
  EXPECT_TRUE(checkList(H, Keep, 10));
}

TEST(Cheney, PreservesSharing) {
  Heap H;
  SimpleMutatorContext M;
  CheneyCollector GC(H, M, 64 * 1024);
  Value Shared = buildList(H, GC, 5);
  Value A = makePair(H, GC, Shared, Value::nil());
  Value B = makePair(H, GC, Shared, Value::nil());
  M.HostRoots.push_back(&A);
  M.HostRoots.push_back(&B);
  GC.collect();
  EXPECT_EQ(carOf(H, A).Bits, carOf(H, B).Bits)
      << "shared structure must stay shared (forwarding)";
  EXPECT_TRUE(checkList(H, carOf(H, A), 5));
}

TEST(Cheney, PreservesCyclesViaMutation) {
  Heap H;
  SimpleMutatorContext M;
  CheneyCollector GC(H, M, 64 * 1024);
  Value A = makePair(H, GC, Value::fixnum(1), Value::nil());
  M.HostRoots.push_back(&A);
  setCdr(H, A, A); // self-cycle
  GC.collect();
  EXPECT_TRUE(isPair(H, A));
  EXPECT_EQ(cdrOf(H, A).Bits, A.Bits) << "cycle preserved";
  EXPECT_EQ(carOf(H, A).asFixnum(), 1);
}

TEST(Cheney, ScansSimulatedStackAsRoots) {
  Heap H;
  SimpleMutatorContext M;
  CheneyCollector GC(H, M, 64 * 1024);
  Value L = buildList(H, GC, 20);
  H.storeValue(H.stackSlotAddr(0), L);
  H.storeValue(H.stackSlotAddr(1), Value::fixnum(7));
  M.StackWords = 2;
  GC.collect();
  Value Moved = H.loadValue(H.stackSlotAddr(0));
  EXPECT_NE(Moved.Bits, L.Bits);
  EXPECT_TRUE(checkList(H, Moved, 20));
  EXPECT_EQ(H.loadValue(H.stackSlotAddr(1)).asFixnum(), 7);
}

TEST(Cheney, ScansStaticAreaSlots) {
  Heap H;
  SimpleMutatorContext M;
  CheneyCollector GC(H, M, 64 * 1024);
  // A static cell pointing to a dynamic list.
  Address Cell = H.allocStatic(2);
  H.poke(Cell, makeHeader(ObjectTag::Cell, 1));
  Value L = buildList(H, GC, 8);
  H.poke(Cell + 4, L.Bits);
  GC.collect();
  Value Moved{H.peek(Cell + 4)};
  EXPECT_NE(Moved.Bits, L.Bits);
  EXPECT_TRUE(checkList(H, Moved, 8));
}

TEST(Cheney, AllocateTriggersCollection) {
  Heap H;
  SimpleMutatorContext M;
  CheneyCollector GC(H, M, 16 * 1024);
  Value Keep = buildList(H, GC, 50);
  M.HostRoots.push_back(&Keep);
  for (int I = 0; I != 10000; ++I)
    (void)makePair(H, GC, Value::fixnum(I), Value::nil());
  EXPECT_GT(GC.stats().Collections, 1u);
  EXPECT_TRUE(checkList(H, Keep, 50));
}

TEST(Cheney, CollectorRefsArePhaseTagged) {
  CountingSink Counts;
  TraceBus Bus;
  Bus.addSink(&Counts);
  Heap H(&Bus);
  SimpleMutatorContext M;
  CheneyCollector GC(H, M, 64 * 1024);
  Value L = buildList(H, GC, 50);
  M.HostRoots.push_back(&L);
  H.flushTrace();
  uint64_t MutRefs = Counts.mutatorRefs();
  GC.collect();
  EXPECT_EQ(Counts.mutatorRefs(), MutRefs)
      << "collection adds no mutator refs";
  EXPECT_GT(Counts.loads(Phase::Collector), 0u);
  EXPECT_GT(Counts.stores(Phase::Collector), 0u);
  EXPECT_EQ(Counts.collections(), 1u);
}

TEST(Cheney, SpacesFlipEachCollection) {
  Heap H;
  SimpleMutatorContext M;
  CheneyCollector GC(H, M, 64 * 1024);
  Address From0 = GC.fromSpaceBase();
  Address To0 = GC.toSpaceBase();
  GC.collect();
  EXPECT_EQ(GC.fromSpaceBase(), To0);
  EXPECT_EQ(GC.toSpaceBase(), From0);
  GC.collect();
  EXPECT_EQ(GC.fromSpaceBase(), From0);
}

TEST(Cheney, OneWordObjectsForwardSafely) {
  // Empty vectors are single-word objects; in-header forwarding must not
  // corrupt the neighbouring object.
  Heap H;
  SimpleMutatorContext M;
  CheneyCollector GC(H, M, 64 * 1024);
  Value EmptyVec = makeVector(H, GC, 0, Value::nil());
  Value Neighbour = makePair(H, GC, Value::fixnum(5), Value::nil());
  M.HostRoots.push_back(&EmptyVec);
  M.HostRoots.push_back(&Neighbour);
  GC.collect();
  EXPECT_TRUE(isVector(H, EmptyVec));
  EXPECT_EQ(vectorLength(H, EmptyVec), 0u);
  EXPECT_EQ(carOf(H, Neighbour).asFixnum(), 5);
}

TEST(Cheney, ToSpaceIsWalkableAfterCollection) {
  Heap H;
  SimpleMutatorContext M;
  CheneyCollector GC(H, M, 64 * 1024);
  Value A = buildList(H, GC, 30);
  Value B = makeVector(H, GC, 4, A);
  Value S = makeString(H, GC, "walkable");
  M.HostRoots.push_back(&A);
  M.HostRoots.push_back(&B);
  M.HostRoots.push_back(&S);
  GC.collect();
  VerifyResult R = verifyHeapRange(
      H, GC.fromSpaceBase(), H.dynamicFrontier(),
      {{GC.fromSpaceBase(), H.dynamicFrontier()}});
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Objects, 30u + 1 + 1);
}

//===----------------------------------------------------------------------===//
// Generational
//===----------------------------------------------------------------------===//

namespace {
GenerationalConfig smallGenConfig() {
  return {16 * 1024, 256 * 1024};
}
} // namespace

TEST(Generational, MinorPromotesLiveNursery) {
  Heap H;
  SimpleMutatorContext M;
  GenerationalCollector GC(H, M, smallGenConfig());
  Value L = buildList(H, GC, 10);
  M.HostRoots.push_back(&L);
  EXPECT_TRUE(GC.nurseryBase() <= L.asPointer() &&
              L.asPointer() < GC.nurseryBase() + GC.nurseryBytes());
  GC.minorCollect();
  EXPECT_GE(L.asPointer(), GC.oldSpaceBase()) << "promoted to old gen";
  EXPECT_TRUE(checkList(H, L, 10));
}

TEST(Generational, WriteBarrierCatchesOldToYoung) {
  Heap H;
  SimpleMutatorContext M;
  GenerationalCollector GC(H, M, smallGenConfig());
  Value Old = makePair(H, GC, Value::fixnum(0), Value::nil());
  M.HostRoots.push_back(&Old);
  GC.minorCollect(); // Old is now in the old generation.

  Value Young = makePair(H, GC, Value::fixnum(42), Value::nil());
  M.HostRoots.push_back(&Young);
  // Mutate: old object points at a nursery object. The barrier must
  // remember the slot or the next minor GC would corrupt it.
  GC.noteStore(Old.asPointer() + 4, Young);
  H.storeValue(Old.asPointer() + 4, Young);
  EXPECT_EQ(GC.rememberedSlots(), 1u);

  M.HostRoots.pop_back(); // Young reachable only through Old now.
  GC.minorCollect();
  Value Promoted = carOf(H, Old);
  EXPECT_TRUE(isPair(H, Promoted));
  EXPECT_EQ(carOf(H, Promoted).asFixnum(), 42);
  EXPECT_EQ(GC.rememberedSlots(), 0u) << "remembered set cleared";
}

TEST(Generational, UnbarrieredYoungToYoungIsFine) {
  Heap H;
  SimpleMutatorContext M;
  GenerationalCollector GC(H, M, smallGenConfig());
  Value A = makePair(H, GC, Value::fixnum(1), Value::nil());
  M.HostRoots.push_back(&A);
  Value B = makePair(H, GC, Value::fixnum(2), A);
  M.HostRoots.push_back(&B);
  GC.minorCollect();
  EXPECT_EQ(cdrOf(H, B).Bits, A.Bits);
}

TEST(Generational, BarrierIgnoresNonNurseryStores) {
  Heap H;
  SimpleMutatorContext M;
  GenerationalCollector GC(H, M, smallGenConfig());
  Value Old = makePair(H, GC, Value::fixnum(0), Value::nil());
  M.HostRoots.push_back(&Old);
  GC.minorCollect();
  GC.noteStore(Old.asPointer() + 4, Value::fixnum(9));
  GC.noteStore(Old.asPointer() + 4, Old); // old -> old
  EXPECT_EQ(GC.rememberedSlots(), 0u);
}

TEST(Generational, FullCollectionCompactsOldGen) {
  Heap H;
  SimpleMutatorContext M;
  GenerationalCollector GC(H, M, smallGenConfig());
  Value Keep = buildList(H, GC, 20);
  M.HostRoots.push_back(&Keep);
  GC.minorCollect();
  // Promote garbage too, then full-collect it away.
  for (int Round = 0; Round != 5; ++Round) {
    (void)buildList(H, GC, 300);
    GC.minorCollect();
  }
  Address OldFreeBefore = GC.oldSpaceFrontier();
  GC.collect();
  EXPECT_LT(GC.oldSpaceFrontier() - GC.oldSpaceBase(),
            OldFreeBefore - Heap::DynamicBase);
  EXPECT_TRUE(checkList(H, Keep, 20));
  EXPECT_GE(GC.stats().MajorCollections, 1u);
}

TEST(Generational, NurseryFillTriggersMinor) {
  Heap H;
  SimpleMutatorContext M;
  GenerationalCollector GC(H, M, smallGenConfig());
  for (int I = 0; I != 4000; ++I)
    (void)makePair(H, GC, Value::fixnum(I), Value::nil());
  EXPECT_GT(GC.minorCollections(), 0u);
  EXPECT_EQ(GC.stats().MajorCollections, 0u)
      << "garbage-only load needs no major collection";
}

TEST(Generational, LargeObjectsBypassNursery) {
  Heap H;
  SimpleMutatorContext M;
  GenerationalCollector GC(H, M, smallGenConfig());
  // 3000 words > half the 16 KB nursery.
  Value Big = makeVector(H, GC, 3000, Value::fixnum(1));
  M.HostRoots.push_back(&Big);
  EXPECT_GE(Big.asPointer(), GC.oldSpaceBase());
  GC.minorCollect();
  EXPECT_EQ(vectorLength(H, Big), 3000u);
  EXPECT_EQ(vectorRef(H, Big, 2999).asFixnum(), 1);
}

TEST(Generational, WriteBarrierCostAdvertised) {
  Heap H;
  SimpleMutatorContext M;
  GenerationalCollector Gen(H, M, smallGenConfig());
  EXPECT_GT(Gen.writeBarrierCost(), 0u);
  CheneyCollector Cheney(H, M, 64 * 1024);
  EXPECT_EQ(Cheney.writeBarrierCost(), 0u);
}

//===----------------------------------------------------------------------===//
// Randomized property test: mutate a graph, collect, compare to shadow.
//===----------------------------------------------------------------------===//

namespace {

/// Host-side shadow of a simulated pair graph: nodes hold fixnum cars and
/// an index (or -1 for nil) as cdr.
struct ShadowGraph {
  std::vector<int32_t> Cars;
  std::vector<int32_t> Cdrs; // index into nodes, or -1 for nil
};

bool graphMatches(Heap &H, const std::vector<Value> &Nodes,
                  const ShadowGraph &Shadow) {
  for (size_t I = 0; I != Nodes.size(); ++I) {
    if (!isPair(H, Nodes[I]))
      return false;
    if (carOf(H, Nodes[I]).asFixnum() != Shadow.Cars[I])
      return false;
    Value Cdr = cdrOf(H, Nodes[I]);
    int32_t Want = Shadow.Cdrs[I];
    if (Want < 0) {
      if (!Cdr.isNil())
        return false;
    } else if (Cdr.Bits != Nodes[static_cast<size_t>(Want)].Bits) {
      return false;
    }
  }
  return true;
}

} // namespace

class GcGraphProperty : public ::testing::TestWithParam<int> {};

TEST_P(GcGraphProperty, RandomMutationAndCollectionAgreeWithShadow) {
  uint64_t Seed = static_cast<uint64_t>(GetParam());
  Rng R(Seed);
  Heap H;
  SimpleMutatorContext M;
  bool UseGen = R.below(2) == 0;
  std::unique_ptr<Collector> GC;
  if (UseGen)
    GC = std::make_unique<GenerationalCollector>(H, M, smallGenConfig());
  else
    GC = std::make_unique<CheneyCollector>(H, M, 32 * 1024);

  constexpr int NumNodes = 200;
  std::vector<Value> Nodes(NumNodes);
  ShadowGraph Shadow;
  Shadow.Cars.resize(NumNodes);
  Shadow.Cdrs.assign(NumNodes, -1);
  for (int I = 0; I != NumNodes; ++I) {
    Shadow.Cars[I] = static_cast<int32_t>(R.below(1000));
    Nodes[I] =
        makePair(H, *GC, Value::fixnum(Shadow.Cars[I]), Value::nil());
    M.HostRoots.push_back(&Nodes[I]);
  }

  for (int Step = 0; Step != 2000; ++Step) {
    switch (R.below(4)) {
    case 0: { // rewire a cdr
      int A = static_cast<int>(R.below(NumNodes));
      int B = static_cast<int>(R.below(NumNodes));
      GC->noteStore(Nodes[A].asPointer() + 8, Nodes[B]);
      H.storeValue(Nodes[A].asPointer() + 8, Nodes[B]);
      Shadow.Cdrs[A] = B;
      break;
    }
    case 1: { // update a car
      int A = static_cast<int>(R.below(NumNodes));
      int32_t V = static_cast<int32_t>(R.below(1000));
      GC->noteStore(Nodes[A].asPointer() + 4, Value::fixnum(V));
      H.storeValue(Nodes[A].asPointer() + 4, Value::fixnum(V));
      Shadow.Cars[A] = V;
      break;
    }
    case 2: // allocate garbage (may trigger collections)
      (void)buildList(H, *GC, static_cast<int>(R.below(30)) + 1);
      break;
    case 3: // explicit full collection
      if (R.below(10) == 0)
        GC->collect();
      break;
    }
  }
  GC->collect();
  EXPECT_TRUE(graphMatches(H, Nodes, Shadow))
      << "seed " << Seed << " with "
      << (UseGen ? "generational" : "cheney");
}

INSTANTIATE_TEST_SUITE_P(Seeds, GcGraphProperty, ::testing::Range(0, 12));
