//===- FaultInjector.cpp - Deterministic fault injection -------------------===//

#include "gcache/support/FaultInjector.h"

#include "gcache/support/Random.h"
#include "gcache/support/Snapshot.h"

#include <cstdlib>

using namespace gcache;

const char *gcache::faultSiteName(FaultSite Site) {
  switch (Site) {
  case FaultSite::HeapOom:
    return "heap-oom";
  case FaultSite::GcForce:
    return "gc-force";
  case FaultSite::TraceShortWrite:
    return "trace-write";
  case FaultSite::ShardWorker:
    return "shard-worker";
  case FaultSite::StepAbort:
    return "step-abort";
  case FaultSite::SnapshotWrite:
    return "snapshot-write";
  case FaultSite::SnapshotLoad:
    return "snapshot-load";
  case FaultSite::WatchdogTrip:
    return "watchdog-trip";
  case FaultSite::BudgetProbe:
    return "budget-probe";
  case FaultSite::GcStepAbort:
    return "gc-step-abort";
  case FaultSite::IoShortWrite:
    return "io-short-write";
  case FaultSite::IoTornWrite:
    return "io-torn-write";
  case FaultSite::IoEio:
    return "io-eio";
  case FaultSite::IoEnospc:
    return "io-enospc";
  case FaultSite::IoFsyncLost:
    return "io-fsync-lost";
  }
  return "unknown";
}

uint64_t FaultPlan::fireIndex() const {
  if (Seed == 0 || Nth <= 1)
    return Nth;
  // Deterministic pseudo-random pick in [1, Nth]: different seeds explore
  // different injection points without any run-to-run nondeterminism.
  return 1 + Rng::splitmix64(Seed) % Nth;
}

std::string FaultPlan::toString() const {
  std::string S = faultSiteName(Site);
  S += ":" + std::to_string(Nth);
  if (Seed)
    S += ":" + std::to_string(Seed);
  return S;
}

static bool parseUint(const std::string &Text, uint64_t &Out) {
  if (Text.empty())
    return false;
  uint64_t V = 0;
  for (char C : Text) {
    if (C < '0' || C > '9')
      return false;
    uint64_t Next = V * 10 + static_cast<uint64_t>(C - '0');
    if (Next < V)
      return false; // overflow
    V = Next;
  }
  Out = V;
  return true;
}

Expected<FaultPlan> gcache::parseFaultSpec(const std::string &Spec) {
  auto Malformed = [&](const char *Why) {
    return Status::failf(StatusCode::InvalidArgument,
                         "bad fault spec '%s' (%s); expected "
                         "<site>:<n>[:<seed>] with site one of heap-oom, "
                         "gc-force, trace-write, shard-worker, step-abort, "
                         "snapshot-write, snapshot-load, watchdog-trip, "
                         "budget-probe, gc-step-abort, io-short-write, "
                         "io-torn-write, io-eio, io-enospc, io-fsync-lost "
                         "and n >= 1",
                         Spec.c_str(), Why);
  };

  size_t Colon1 = Spec.find(':');
  if (Colon1 == std::string::npos)
    return Malformed("missing ':<n>'");
  std::string SiteName = Spec.substr(0, Colon1);

  FaultPlan Plan;
  bool Known = false;
  for (unsigned I = 0; I != NumFaultSites; ++I) {
    FaultSite S = static_cast<FaultSite>(I);
    if (SiteName == faultSiteName(S)) {
      Plan.Site = S;
      Known = true;
      break;
    }
  }
  if (!Known)
    return Malformed("unknown site");

  size_t Colon2 = Spec.find(':', Colon1 + 1);
  std::string NthText = Spec.substr(
      Colon1 + 1, Colon2 == std::string::npos ? std::string::npos
                                              : Colon2 - Colon1 - 1);
  if (!parseUint(NthText, Plan.Nth) || Plan.Nth == 0)
    return Malformed("n must be a positive integer");

  if (Colon2 != std::string::npos) {
    if (!parseUint(Spec.substr(Colon2 + 1), Plan.Seed))
      return Malformed("seed must be a non-negative integer");
  }
  return Plan;
}

void FaultInjector::arm(const FaultPlan &NewPlan) {
  Armed.store(false, std::memory_order_relaxed);
  Plan = NewPlan;
  FireIndex = NewPlan.fireIndex();
  resetCounters();
  Armed.store(true, std::memory_order_release);
}

void FaultInjector::disarm() { Armed.store(false, std::memory_order_relaxed); }

Status FaultInjector::armFromSpec(const std::string &Spec) {
  if (Spec.empty() || Spec == "off") {
    disarm();
    return Status();
  }
  Expected<FaultPlan> Plan = parseFaultSpec(Spec);
  if (!Plan)
    return Plan.status();
  arm(*Plan);
  return Status();
}

Status FaultInjector::armFromEnv() {
  const char *Spec = std::getenv("GCACHE_FAULT");
  if (!Spec)
    return Status();
  return armFromSpec(Spec);
}

void FaultInjector::resetCounters() {
  for (auto &C : Counts)
    C.store(0, std::memory_order_relaxed);
}

void FaultInjector::saveTo(SnapshotWriter &W) const {
  W.beginSection("fault-injector");
  W.putU8(armed() ? 1 : 0);
  W.putU8(static_cast<uint8_t>(Plan.Site));
  W.putU64(Plan.Nth);
  W.putU64(Plan.Seed);
  W.putU64(FireIndex);
  W.putU32(NumFaultSites);
  for (const auto &C : Counts)
    W.putU64(C.load(std::memory_order_relaxed));
}

Status FaultInjector::loadFrom(const SnapshotReader &R) {
  SnapshotCursor C = R.section("fault-injector");
  uint8_t WasArmed = C.getU8();
  uint8_t Site = C.getU8();
  uint64_t Nth = C.getU64();
  uint64_t Seed = C.getU64();
  uint64_t SavedFireIndex = C.getU64();
  uint32_t NumSites = C.getU32();
  if (C.ok() && (Site >= NumFaultSites || NumSites != NumFaultSites))
    C.fail(Status::failf(StatusCode::Corrupt,
                         "fault-injector snapshot has site %u / %u sites, "
                         "this build has %u",
                         Site, NumSites, NumFaultSites));
  uint64_t SavedCounts[NumFaultSites] = {};
  for (unsigned I = 0; C.ok() && I != NumFaultSites; ++I)
    SavedCounts[I] = C.getU64();
  if (Status S = C.finish(); !S.ok())
    return S;

  Armed.store(false, std::memory_order_relaxed);
  Plan.Site = static_cast<FaultSite>(Site);
  Plan.Nth = Nth;
  Plan.Seed = Seed;
  FireIndex = SavedFireIndex;
  for (unsigned I = 0; I != NumFaultSites; ++I)
    Counts[I].store(SavedCounts[I], std::memory_order_relaxed);
  if (WasArmed)
    Armed.store(true, std::memory_order_release);
  return Status();
}

FaultInjector &gcache::faultInjector() {
  static FaultInjector Injector;
  return Injector;
}
