//===- test_gc_step.cpp - Stepped GC cycle driver tests ---------------------===//
//
// The phase-stepped collection machinery of gc/Collector.h: phase marker
// sequences, step budgets, in-process interruption (gc-step-abort) with
// resumption, and torture runs of a seeded churning mutator under every
// collector (step budgets, phase certification and the boundary fault
// site must leave everything simulated unchanged).
//
//===----------------------------------------------------------------------===//

#include "gcache/gc/CheneyCollector.h"
#include "gcache/gc/GenerationalCollector.h"
#include "gcache/gc/MarkSweepCollector.h"
#include "gcache/support/FaultInjector.h"
#include "gcache/support/Random.h"
#include "gcache/trace/Sinks.h"
#include "gcache/vm/SchemeSystem.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

using namespace gcache;

namespace {

/// Records the phase markers a cycle emits on the trace bus.
class PhaseRecorder final : public TraceSink {
public:
  std::vector<GcPhase> Marks;
  void onRef(const Ref &) override {}
  void onGcPhase(GcPhase P) override { Marks.push_back(P); }
};

constexpr uint32_t fixnum(uint32_t X) { return X << 2; }

/// A small heap + mutator + collector world for driving cycles by hand.
struct World {
  TraceBus Bus;
  PhaseRecorder Phases;
  CountingSink Counting;
  Heap H{&Bus};
  SimpleMutatorContext Mut;
  std::unique_ptr<Collector> Coll;

  World() {
    Bus.addSink(&Phases);
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
  void make(GcKind K) {
    if (K == GcKind::Cheney)
      makeCheney();
    else if (K == GcKind::Generational)
      makeGenerational();
    else
      makeMarkSweep();
  }

  /// Allocates a vector of \p Payload fixnum slots and roots it in stack
  /// slot \p Slot. Returns the object's address.
  Address allocRooted(uint32_t Slot, uint32_t Payload) {
    Address Obj = Coll->allocate(1 + Payload);
    H.store(Obj, makeHeader(ObjectTag::Vector, Payload));
    for (uint32_t I = 0; I != Payload; ++I)
      H.store(Obj + 4 + I * 4, fixnum(100 + I));
    H.storeValue(H.stackSlotAddr(Slot), Value::pointer(Obj));
    return Obj;
  }

  /// Hashes every live word plus the frontiers — the heap-equality probe
  /// the bit-identity tests compare.
  uint64_t heapFingerprint() const {
    uint64_t Hash = 0x9e3779b97f4a7c15ull;
    auto Mix = [&Hash](uint64_t X) {
      Hash ^= X + 0x9e3779b97f4a7c15ull + (Hash << 6) + (Hash >> 2);
    };
    Mix(H.dynamicFrontier());
    for (uint32_t I = 0; I != 8; ++I)
      Mix(H.peek(H.stackSlotAddr(I)));
    for (const auto &Range : Coll->liveRanges()) {
      Mix(Range.first);
      Mix(Range.second);
      for (Address A = Range.first; A < Range.second; A += 4)
        Mix(H.peek(A));
    }
    return Hash;
  }
};

class GcStep : public ::testing::Test {
protected:
  void TearDown() override {
    faultInjector().disarm();
    faultInjector().resetCounters();
  }
};

//===--- Phase sequencing ---------------------------------------------------===//

TEST_F(GcStep, CheneyCycleEmitsOrderedPhaseMarkers) {
  World W;
  W.makeCheney();
  for (uint32_t I = 0; I != 6; ++I)
    W.allocRooted(I % 4, 3);
  W.Phases.Marks.clear();

  W.Coll->setStepBudget(2);
  W.Coll->collect();

  const std::vector<GcPhase> &M = W.Phases.Marks;
  ASSERT_FALSE(M.empty());
  EXPECT_EQ(M.front(), GcPhase::Begin);
  EXPECT_EQ(M.back(), GcPhase::Finish);
  // Phases never run backwards, and the copying phases all appear.
  for (size_t I = 1; I != M.size(); ++I)
    EXPECT_LE(static_cast<unsigned>(M[I - 1]), static_cast<unsigned>(M[I]));
  EXPECT_NE(std::find(M.begin(), M.end(), GcPhase::RootScan), M.end());
  EXPECT_NE(std::find(M.begin(), M.end(), GcPhase::Trace), M.end());
  EXPECT_EQ(W.Counting.collections(), 1u);
  EXPECT_EQ(W.Mut.PostGcCalls, 1u);
  EXPECT_FALSE(W.Coll->gcActive());
}

TEST_F(GcStep, MarkSweepCycleIncludesSweepPhase) {
  World W;
  W.makeMarkSweep();
  for (uint32_t I = 0; I != 6; ++I)
    W.allocRooted(I % 4, 3);
  W.Phases.Marks.clear();

  W.Coll->setStepBudget(4);
  W.Coll->collect();

  const std::vector<GcPhase> &M = W.Phases.Marks;
  ASSERT_FALSE(M.empty());
  EXPECT_EQ(M.front(), GcPhase::Begin);
  EXPECT_EQ(M.back(), GcPhase::Finish);
  EXPECT_NE(std::find(M.begin(), M.end(), GcPhase::Trace), M.end());
  EXPECT_NE(std::find(M.begin(), M.end(), GcPhase::Sweep), M.end());
}

TEST_F(GcStep, NullCollectorDeclinesCycles) {
  World W;
  W.Coll.reset(new NullCollector(W.H, W.Mut));
  W.Coll->collect();
  EXPECT_FALSE(W.Coll->gcActive());
  EXPECT_EQ(W.Coll->totalSteps(), 0u);
  EXPECT_TRUE(W.Phases.Marks.empty());
  EXPECT_EQ(W.Counting.collections(), 0u);
}

TEST_F(GcStep, BeginWhileActiveIsAMisuseError) {
  World W;
  W.makeCheney();
  W.allocRooted(0, 3);
  W.Coll->setStepBudget(1);
  W.Coll->beginCycle(GcCycleKind::Full);
  ASSERT_TRUE(W.Coll->gcActive());
  try {
    W.Coll->beginCycle(GcCycleKind::Full);
    FAIL() << "nested beginCycle must throw";
  } catch (const StatusError &E) {
    EXPECT_EQ(E.status().code(), StatusCode::GcError);
  }
  while (W.Coll->stepCycle()) {
  }
}

//===--- Step budgets -------------------------------------------------------===//

TEST_F(GcStep, SmallerBudgetMeansMoreStepsSameResult) {
  for (GcKind K :
       {GcKind::Cheney, GcKind::Generational, GcKind::MarkSweep}) {
    SCOPED_TRACE("GcKind " + std::to_string(static_cast<int>(K)));
    uint64_t Fingerprints[2];
    uint64_t Steps[2];
    uint64_t Instructions[2];
    uint64_t Refs[2];
    uint32_t Budgets[2] = {1, 1024};
    for (int Run = 0; Run != 2; ++Run) {
      World W;
      W.make(K);
      W.Coll->setStepBudget(Budgets[Run]);
      for (uint32_t I = 0; I != 10; ++I)
        W.allocRooted(I % 6, 2 + I % 3);
      uint64_t StepsBefore = W.Coll->totalSteps();
      faultInjector().resetCounters();
      W.Coll->collect();
      Fingerprints[Run] = W.heapFingerprint();
      Steps[Run] = W.Coll->totalSteps() - StepsBefore;
      Instructions[Run] = W.Coll->stats().Instructions;
      Refs[Run] = W.Counting.totalRefs();
      // The gc-step-abort site counts once per step boundary, armed or
      // not, so a clean run is the census an abort sweep iterates over.
      EXPECT_EQ(faultInjector().occurrences(FaultSite::GcStepAbort),
                Steps[Run]);
    }
    // Steps only partition the loops: the heap, the instruction count, and
    // the traced stream are all budget-invariant; only the step count
    // moves.
    EXPECT_EQ(Fingerprints[0], Fingerprints[1]);
    EXPECT_EQ(Instructions[0], Instructions[1]);
    EXPECT_EQ(Refs[0], Refs[1]);
    EXPECT_GT(Steps[0], Steps[1]);
  }
}

//===--- In-process interruption (gc-step-abort) ----------------------------===//

TEST_F(GcStep, AbortedCycleResumesInProcessBitIdentically) {
  // Reference: the same workload collected without interference.
  World Ref;
  Ref.makeMarkSweep();
  Ref.Coll->setStepBudget(1);
  for (uint32_t I = 0; I != 10; ++I)
    Ref.allocRooted(I % 6, 2 + I % 3);
  Ref.Coll->collect();
  uint64_t WantFp = Ref.heapFingerprint();
  uint64_t WantRefs = Ref.Counting.totalRefs();

  World W;
  W.makeMarkSweep();
  W.Coll->setStepBudget(1);
  for (uint32_t I = 0; I != 10; ++I)
    W.allocRooted(I % 6, 2 + I % 3);

  ASSERT_TRUE(faultInjector().armFromSpec("gc-step-abort:4").ok());
  try {
    W.Coll->collect();
    FAIL() << "gc-step-abort must interrupt the cycle";
  } catch (const StatusError &E) {
    EXPECT_EQ(E.status().code(), StatusCode::Aborted);
  }
  // The cycle is still in flight and can simply be driven to completion.
  EXPECT_TRUE(W.Coll->gcActive());
  faultInjector().disarm();
  while (W.Coll->stepCycle()) {
  }
  EXPECT_FALSE(W.Coll->gcActive());
  EXPECT_EQ(W.heapFingerprint(), WantFp);
  EXPECT_EQ(W.Counting.totalRefs(), WantRefs);
  EXPECT_EQ(W.Mut.PostGcCalls, 1u);
}

//===--- Torture: a churning mutator under every collector -------------------===//

/// Runs \p Ops seeded mutator operations against \p W: allocate a vector
/// of fixnums and pointers to rooted objects, overwrite a slot of a rooted
/// object through the write barrier, drop a root, or force a full
/// collection. Deterministic in \p Seed, so worlds that differ only in
/// step budget or certification must end identically.
void churn(World &W, uint64_t Seed, uint32_t Ops) {
  auto Root = [&W](uint64_t R) { return W.H.stackSlotAddr(R % 8); };
  auto Store = [&W](Address A, Value V) {
    W.H.storeValue(A, V);
    W.Coll->noteStore(A, V);
  };
  for (uint32_t I = 0; I != Ops; ++I) {
    uint64_t R = Rng::splitmix64(Seed ^ (0x9e3779b97f4a7c15ull * (I + 1)));
    unsigned Action = static_cast<unsigned>(R % 100);
    R = Rng::splitmix64(R);
    if (Action < 55) {
      uint32_t Payload = 1 + static_cast<uint32_t>((R >> 8) % 12);
      Address Obj = W.Coll->allocate(1 + Payload);
      W.H.store(Obj, makeHeader(ObjectTag::Vector, Payload));
      uint64_t Rs = R;
      for (uint32_t J = 0; J != Payload; ++J) {
        Rs = Rng::splitmix64(Rs);
        Value Src = W.H.loadValue(Root(Rs >> 8));
        Store(Obj + 4 + J * 4,
              (Rs & 1) && Src.isPointer()
                  ? Src
                  : Value::fixnum(static_cast<int32_t>((Rs >> 16) & 0xfff)));
      }
      W.H.storeValue(Root(R >> 32), Value::pointer(Obj));
    } else if (Action < 75) {
      Value V = W.H.loadValue(Root(R >> 8));
      if (!V.isPointer())
        continue;
      uint32_t Payload = headerPayloadWords(W.H.load(V.asPointer()));
      uint32_t K = static_cast<uint32_t>((R >> 24) % Payload);
      Value Src = W.H.loadValue(Root(R >> 40));
      Store(V.asPointer() + 4 + K * 4,
            Src.isPointer() ? Src : Value::fixnum(static_cast<int32_t>(K)));
    } else if (Action < 90) {
      W.H.storeValue(Root(R >> 8), Value::fixnum(0));
    } else {
      W.Coll->collect();
    }
  }
}

/// Everything a churn run simulates, plus the step count.
struct ChurnDigest {
  uint64_t HeapFingerprint = 0;
  uint64_t TotalRefs = 0;
  uint64_t MutatorRefs = 0;
  uint64_t AllocBytes = 0;
  GcStats Stats;
  std::vector<GcPhase> Marks;
  uint64_t Steps = 0;
};

ChurnDigest runChurn(GcKind K, uint32_t Budget, bool Certify) {
  World W;
  W.make(K);
  W.Coll->setStepBudget(Budget);
  W.Coll->setPhaseParanoid(Certify);
  churn(W, /*Seed=*/7, /*Ops=*/160);
  ChurnDigest D;
  D.HeapFingerprint = W.heapFingerprint();
  D.TotalRefs = W.Counting.totalRefs();
  D.MutatorRefs = W.Counting.mutatorRefs();
  D.AllocBytes = W.Counting.allocatedBytes();
  D.Stats = W.Coll->stats();
  D.Marks = W.Phases.Marks;
  D.Steps = W.Coll->totalSteps();
  return D;
}

/// The budget-invariant part of two digests must agree: the heap, the
/// traced stream and the collector's work.
void expectSameSimulation(const ChurnDigest &A, const ChurnDigest &B) {
  EXPECT_EQ(A.HeapFingerprint, B.HeapFingerprint);
  EXPECT_EQ(A.TotalRefs, B.TotalRefs);
  EXPECT_EQ(A.MutatorRefs, B.MutatorRefs);
  EXPECT_EQ(A.AllocBytes, B.AllocBytes);
  EXPECT_EQ(A.Stats.Collections, B.Stats.Collections);
  EXPECT_EQ(A.Stats.MajorCollections, B.Stats.MajorCollections);
  EXPECT_EQ(A.Stats.ObjectsCopied, B.Stats.ObjectsCopied);
  EXPECT_EQ(A.Stats.WordsCopied, B.Stats.WordsCopied);
  EXPECT_EQ(A.Stats.Instructions, B.Stats.Instructions);
}

constexpr GcKind AllCollectors[] = {GcKind::Cheney, GcKind::Generational,
                                    GcKind::MarkSweep};

class GcTorture : public GcStep {};

TEST_F(GcTorture, StepBudgetOnlyMovesTheStepCount) {
  for (GcKind K : AllCollectors) {
    SCOPED_TRACE("GcKind " + std::to_string(static_cast<int>(K)));
    ChurnDigest Fine = runChurn(K, /*Budget=*/2, /*Certify=*/false);
    ChurnDigest Coarse = runChurn(K, /*Budget=*/512, /*Certify=*/false);
    ASSERT_GT(Fine.Stats.Collections, 3u)
        << "too few cycles for the budget to matter";
    expectSameSimulation(Fine, Coarse);
    EXPECT_GT(Fine.Steps, Coarse.Steps);
  }
}

TEST_F(GcTorture, PhaseCertificationIsCounterInvisible) {
  for (GcKind K : AllCollectors) {
    SCOPED_TRACE("GcKind " + std::to_string(static_cast<int>(K)));
    ChurnDigest Plain = runChurn(K, /*Budget=*/4, /*Certify=*/false);
    ChurnDigest Certified = runChurn(K, /*Budget=*/4, /*Certify=*/true);
    ASSERT_GT(Certified.Steps, Certified.Stats.Collections)
        << "certification is vacuous without mid-cycle boundaries";
    expectSameSimulation(Plain, Certified);
    // Certification peeks between steps; it must not move them either.
    EXPECT_EQ(Plain.Steps, Certified.Steps);
    EXPECT_EQ(Plain.Marks, Certified.Marks);
  }
}

TEST_F(GcTorture, StepBoundaryFaultSitesCountInCensus) {
  for (GcKind K : AllCollectors) {
    SCOPED_TRACE("GcKind " + std::to_string(static_cast<int>(K)));
    faultInjector().resetCounters();
    ChurnDigest D = runChurn(K, /*Budget=*/4, /*Certify=*/false);
    // The gc-step-abort site counts once per step boundary, armed or not,
    // so a clean run is the census an abort sweep iterates over.
    EXPECT_GT(D.Steps, 0u);
    EXPECT_EQ(faultInjector().occurrences(FaultSite::GcStepAbort), D.Steps);
  }
}

} // namespace
