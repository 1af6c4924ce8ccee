//===- Collector.h - Garbage collector interface ----------------*- C++ -*-===//
//
// Part of the gcache project (Reinhold, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The collector interface and cost accounting of §6. Every collector is
/// also the VM's Allocator; a collection may run inside allocate(). While
/// a collector runs it switches the heap into the Collector phase, so all
/// of its loads and stores are phase-tagged on the trace (yielding M_gc),
/// and it charges an explicit instruction cost model (yielding I_gc):
/// the collector's "executed instructions" are estimated from its memory
/// operations, since the collector itself is simulated rather than
/// emulated.
///
/// Cost model (instructions per abstract operation, roughly a compiled
/// Cheney loop on a MIPS-like machine):
///   ScanSlot = 3   per slot examined (load, tag test, branch)
///   CopyWord = 2   per word copied (load + store; loop overhead amortized)
///   Forward = 4    per pointer forwarded (header check + arithmetic)
///   Setup = 400    per collection (flip, bookkeeping, root registration)
///
/// === Stepped cycles =====================================================
///
/// A collection no longer runs as one opaque call: every collector is a
/// *phase-stepped machine* driven by the shared beginCycle()/stepCycle()
/// loop in this class. A cycle moves through explicit phases
///
///   Begin -> RootScan -> Trace (xN) -> [Sweep (xN)] -> Finish
///
/// where each stepCycle() performs a bounded amount of work (at most
/// stepBudget() objects/slots/entries) and then crosses a *step boundary*.
/// The boundary is, in order:
///
///   1. an optional certification point (--paranoid=phase runs the
///      collector-independent GcCertifier over the cycle's GcCycleView);
///   2. a fault-injection site (gc-step-abort throws Aborted, leaving the
///      cycle in flight for the caller to drive to completion);
///   3. a cooperative cancellation poll ("gc-step").
///
/// Steps only partition the loops the collectors always ran — the traced
/// reference stream is bit-identical to an unstepped collection. Each
/// step emits one OpGcPhase marker (trace v3) naming the phase of the
/// work that follows it, so traces record per-phase reference counts and
/// step shapes.
///
//===----------------------------------------------------------------------===//

#ifndef GCACHE_GC_COLLECTOR_H
#define GCACHE_GC_COLLECTOR_H

#include "gcache/heap/GcCertifier.h"
#include "gcache/heap/Heap.h"
#include "gcache/heap/ObjectModel.h"
#include "gcache/support/Status.h"

#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace gcache {

/// Per-collection instruction cost model (see file comment).
namespace gccost {
constexpr uint64_t ScanSlot = 3;
constexpr uint64_t CopyWord = 2;
constexpr uint64_t Forward = 4;
constexpr uint64_t Setup = 400;
/// Mutator-side cost of one generational write barrier (filter + maybe
/// remembered-set insert); charged to the *program*, not the collector.
constexpr uint64_t WriteBarrier = 3;
} // namespace gccost

/// Aggregate collector activity over a run.
struct GcStats {
  uint64_t Collections = 0;       ///< All collections (minor + major).
  uint64_t MajorCollections = 0;  ///< Full collections only.
  uint64_t ObjectsCopied = 0;
  uint64_t WordsCopied = 0;
  uint64_t Instructions = 0;      ///< I_gc under the cost model.
};

/// How the collector finds the mutator's roots. Implemented by the VM; a
/// simple version exists for unit tests.
class MutatorContext {
public:
  virtual ~MutatorContext();

  /// Number of live words on the simulated value stack (slots 0..N-1 are
  /// scanned as roots through traced heap accesses).
  virtual uint32_t liveStackWords() const = 0;

  /// Visits every host-side root slot (VM registers, C++ temporaries).
  /// These model machine registers, so reading/updating them is untraced.
  virtual void forEachHostRoot(const std::function<void(Value &)> &Fn) = 0;

  /// Called after every collection (the VM uses it to invalidate
  /// address-keyed hash tables, the paper's rehash cost ΔI_prog).
  virtual void onPostGc() {}
};

/// Abstract stepped collector. Concrete collectors: NullCollector (§5
/// control), CheneyCollector (§6), GenerationalCollector (§6 discussion,
/// including the "aggressive" configuration), MarkSweepCollector.
class Collector : public Allocator {
public:
  Collector(Heap &H, MutatorContext &Mutator) : H(H), Mutator(Mutator) {}
  ~Collector() override;

  /// Forces a full collection (one complete stepped cycle).
  virtual void collect() { runCycle(GcCycleKind::Full); }

  virtual std::string name() const = 0;

  const GcStats &stats() const { return Stats; }

  /// Monotone counter bumped after every collection; address-keyed hash
  /// tables compare it to their cached epoch to decide to rehash.
  /// Non-moving collectors override this to a constant (addresses, and so
  /// address hashes, stay valid).
  virtual uint64_t epoch() const { return Stats.Collections; }

  /// Mutator-side instruction cost of one pointer store's write barrier
  /// (0 for non-generational collectors).
  virtual uint64_t writeBarrierCost() const { return 0; }

  /// Cumulative mutator-side instruction cost of allocation beyond a
  /// simple bump (free-list search in the mark-sweep collector; 0 for
  /// linear allocators).
  virtual uint64_t mutatorAllocInstructions() const { return 0; }

  /// Generational hook: the mutator stored \p New into heap slot \p Slot.
  virtual void noteStore(Address Slot, Value New) {}

  //===--- Stepped cycle driver -------------------------------------------===//

  /// Starts a cycle of \p Kind (misuse error if one is already active).
  /// After this returns with gcActive(), stepCycle() until it yields
  /// false. A collector that has nothing to do may decline to start
  /// (gcActive() stays false).
  void beginCycle(GcCycleKind Kind);

  /// Performs one bounded step of the active cycle and crosses a step
  /// boundary (certify / fault site / cancellation poll — see file
  /// comment). Returns true while the cycle has more steps;
  /// false once it finished (or when no cycle is active).
  bool stepCycle();

  /// A whole cycle: beginCycle + drive stepCycle to completion.
  void runCycle(GcCycleKind Kind) {
    beginCycle(Kind);
    while (stepCycle()) {
    }
  }

  /// True while a cycle is in flight (between beginCycle and the finish
  /// step) — in particular after gc-step-abort interrupted it, when the
  /// remaining steps must still be driven.
  bool gcActive() const { return CurPhase != GcPhase::Idle; }
  GcPhase gcPhase() const { return CurPhase; }
  GcCycleKind cycleKind() const { return CurKind; }

  /// Steps taken across all cycles this run.
  uint64_t totalSteps() const { return TotalSteps; }

  /// Work bound per step, in objects/slots/entries (minimum 1). It shapes
  /// step counts, and with them marker streams and boundary-site fault
  /// occurrences.
  void setStepBudget(uint32_t N) { StepBudget = N ? N : 1; }
  uint32_t stepBudget() const { return StepBudget; }

  //===--- Paranoid heap verification -------------------------------------===//

  /// In paranoid mode the collector re-verifies the whole live heap
  /// (structure + pointer targets, via verifyHeapRange) after every
  /// collection and at every injected allocation failure. Verification
  /// uses only untraced peeks, so it is counter-invisible: every
  /// simulated number is bit-identical with or without it (proved by
  /// tests/test_fault_injection.cpp).
  void setParanoid(bool On) { Paranoid = On; }
  bool paranoid() const { return Paranoid; }

  /// Phase-paranoid mode (--paranoid=phase) additionally runs the
  /// GcCertifier over cycleView() at the cycle-begin boundary and every
  /// step boundary with work remaining. Peek-only, counter-invisible.
  void setPhaseParanoid(bool On) { PhaseParanoid = On; }
  bool phaseParanoid() const { return PhaseParanoid; }

  /// The collector's neutral description of the in-flight cycle for the
  /// certifier (phase/kind plus whatever fillCycleView adds).
  GcCycleView cycleView() const {
    GcCycleView V;
    V.Phase = CurPhase;
    V.Kind = CurKind;
    fillCycleView(V);
    return V;
  }

  /// Certifies cycleView() against the mutator's roots right now; throws
  /// StatusError(HeapCorrupt) naming \p When on the first violated law.
  void certifyNowOrThrow(const char *When) const;

  /// The regions currently holding live, walkable objects (used by
  /// paranoid verification). Pointer targets must land in one of these or
  /// in the static area.
  virtual std::vector<std::pair<Address, Address>> liveRanges() const = 0;

  /// Runs verifyHeapRange over every live range now, regardless of the
  /// paranoid flag; throws StatusError(HeapCorrupt) on the first problem.
  /// \p When labels the check in the error message.
  void verifyLiveHeapOrThrow(const char *When) const;

protected:
  /// Fault-injection hook every concrete allocate() calls on entry: fires
  /// the gc-force site (runs a full collection, landing on clean step
  /// boundaries) and the heap-oom site (throws StatusError(OutOfMemory),
  /// after a paranoid heap check so an injected failure also proves the
  /// heap was consistent at that point).
  void checkAllocFaults();

  /// Paranoid-mode epilogue the driver runs when a cycle's finish step
  /// completes: verifies the live heap when paranoid() is on.
  void paranoidPostGcCheck() {
    if (Paranoid)
      verifyLiveHeapOrThrow("after collection");
  }

  /// Moves the machine to \p P. Collectors call this at the *end* of the
  /// step that exhausts a phase, so the next step's marker (emitted
  /// before its work) names the right phase.
  void setGcPhase(GcPhase P) { CurPhase = P; }

  /// Cycle-start hook: bump stats, charge Setup, switch the heap into the
  /// Collector phase, emit onGcBegin, initialize the machine, and
  /// setGcPhase to the first phase. Leaving the phase Idle declines the
  /// cycle (nothing to do).
  virtual void onBeginCycle(GcCycleKind Kind) { (void)Kind; }

  /// One bounded step of cycle work. Returns true while more steps
  /// remain; the step that completes the cycle emits onGcEnd, restores
  /// the Mutator heap phase, calls Mutator.onPostGc(), setGcPhase(Idle),
  /// and returns false.
  virtual bool onCycleStep() { return false; }

  /// Describes the in-flight cycle for the certifier (geometry, scan
  /// progress, worklists). Kind/Phase are pre-filled by cycleView().
  virtual void fillCycleView(GcCycleView &V) const { (void)V; }

  Heap &H;
  MutatorContext &Mutator;
  GcStats Stats;

private:
  bool Paranoid = false;
  bool PhaseParanoid = false;
  GcPhase CurPhase = GcPhase::Idle;
  GcCycleKind CurKind = GcCycleKind::Full;
  uint64_t TotalSteps = 0;
  uint32_t StepBudget = 256;
};

/// No collection at all: linear allocation in the unbounded dynamic area.
/// This is exactly the §5 control experiment ("this is done simply by
/// disabling the collector"). Cycles are declined (onBeginCycle leaves
/// the machine Idle), so collect() is a no-op.
class NullCollector final : public Collector {
public:
  NullCollector(Heap &H, MutatorContext &Mutator) : Collector(H, Mutator) {
    H.setDynamicLimit(0);
  }
  Address allocate(uint32_t Words) override {
    checkAllocFaults();
    return H.allocDynamicRaw(Words);
  }
  std::string name() const override { return "none"; }
  std::vector<std::pair<Address, Address>> liveRanges() const override {
    return {{Heap::DynamicBase, H.dynamicFrontier()}};
  }
};

/// Test helper: fixed stack depth, externally registered host roots.
class SimpleMutatorContext final : public MutatorContext {
public:
  std::vector<Value *> HostRoots;
  uint32_t StackWords = 0;
  uint64_t PostGcCalls = 0;

  uint32_t liveStackWords() const override { return StackWords; }
  void forEachHostRoot(const std::function<void(Value &)> &Fn) override {
    for (Value *V : HostRoots)
      Fn(*V);
  }
  void onPostGc() override { ++PostGcCalls; }
};

/// Raises a StatusError with \p Code; used for unrecoverable-in-place
/// simulation errors such as semispace exhaustion (the paper's runs size
/// semispaces to fit the live set). Unit boundaries (tryRunProgram, the
/// bench drivers) catch it, report the failed unit, and continue.
[[noreturn]] void fatalGcError(StatusCode Code, const char *Fmt, ...)
#if defined(__GNUC__) || defined(__clang__)
    __attribute__((format(printf, 2, 3)))
#endif
    ;

} // namespace gcache

#endif // GCACHE_GC_COLLECTOR_H
