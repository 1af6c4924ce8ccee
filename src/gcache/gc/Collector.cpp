//===- Collector.cpp - Garbage collector interface --------------------------===//

#include "gcache/gc/Collector.h"

#include "gcache/heap/HeapVerifier.h"
#include "gcache/support/Budget.h"
#include "gcache/support/FaultInjector.h"

#include <cstdarg>
#include <cstdio>

using namespace gcache;

MutatorContext::~MutatorContext() = default;
Collector::~Collector() = default;

void gcache::fatalGcError(StatusCode Code, const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  char Buf[512];
  std::vsnprintf(Buf, sizeof(Buf), Fmt, Args);
  va_end(Args);
  throw StatusError(Status::fail(Code, Buf));
}

//===--- Stepped cycle driver ----------------------------------------------===//

void Collector::beginCycle(GcCycleKind Kind) {
  if (gcActive())
    fatalGcError(StatusCode::GcError,
                 "beginCycle while a '%s' cycle is already active (phase %s)",
                 name().c_str(), gcPhaseName(CurPhase));
  CurKind = Kind;
  onBeginCycle(Kind);
  if (!gcActive())
    return; // Declined (nothing to collect).
  H.emitGcPhase(GcPhase::Begin);
  if (PhaseParanoid)
    certifyNowOrThrow("at cycle begin");
}

bool Collector::stepCycle() {
  if (!gcActive())
    return false;
  // The marker precedes its work: every reference until the next marker
  // belongs to the phase named here.
  H.emitGcPhase(CurPhase);
  bool More = onCycleStep();
  ++TotalSteps;
  // Boundary order: certify, then the fault site, then the cancellation
  // poll.
  if (PhaseParanoid && More)
    certifyNowOrThrow("at step boundary");
  FaultInjector &Fi = faultInjector();
  if (Fi.shouldFire(FaultSite::GcStepAbort))
    throw StatusError(Status::failf(
        StatusCode::Aborted,
        "injected GC interruption (site gc-step-abort, occurrence %llu)",
        static_cast<unsigned long long>(
            Fi.occurrences(FaultSite::GcStepAbort))));
  H.flushTrace(); // The --max-refs meter is exact at every poll.
  pollCancellation("gc-step");
  if (!More)
    paranoidPostGcCheck();
  return More;
}

void Collector::certifyNowOrThrow(const char *When) const {
  GcRootSet Roots;
  Mutator.forEachHostRoot([&](Value &V) { Roots.HostRoots.push_back(V); });
  Roots.StackWords = Mutator.liveStackWords();
  certifyGcCycleOrThrow(H, cycleView(), Roots, When);
}

//===--- Verification and fault hooks --------------------------------------===//

void Collector::verifyLiveHeapOrThrow(const char *When) const {
  std::vector<std::pair<Address, Address>> Ranges = liveRanges();
  for (const auto &[Begin, End] : Ranges) {
    VerifyResult R = verifyHeapRange(H, Begin, End, Ranges);
    if (!R.Ok)
      throw StatusError(Status::failf(
          StatusCode::HeapCorrupt,
          "paranoid heap verification failed %s in [0x%08x, 0x%08x): %s",
          When, Begin, End, R.Error.c_str()));
  }
}

void Collector::checkAllocFaults() {
  FaultInjector &Fi = faultInjector();
  if (Fi.shouldFire(FaultSite::GcForce))
    collect();
  if (Fi.shouldFire(FaultSite::HeapOom)) {
    // An injected OOM doubles as a consistency probe: in paranoid mode the
    // heap must verify at the exact allocation point that failed.
    if (paranoid())
      verifyLiveHeapOrThrow("at injected allocation failure");
    throw StatusError(Status::failf(
        StatusCode::OutOfMemory,
        "injected allocation failure (site heap-oom, occurrence %llu)",
        static_cast<unsigned long long>(
            Fi.occurrences(FaultSite::HeapOom))));
  }
}
