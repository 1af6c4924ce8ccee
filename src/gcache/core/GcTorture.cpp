//===- GcTorture.cpp - Kill/resume torture driver for stepped GC -----------===//

#include "gcache/core/GcTorture.h"

#include "gcache/gc/CheneyCollector.h"
#include "gcache/gc/GenerationalCollector.h"
#include "gcache/gc/MarkSweepCollector.h"
#include "gcache/support/FaultInjector.h"
#include "gcache/support/Random.h"
#include "gcache/support/Snapshot.h"

#include <cassert>
#include <cstdio>
#include <unordered_set>

using namespace gcache;

namespace {

/// Simulated stack slots used as roots. Small enough that root-scan steps
/// interleave with tracing at torture step budgets.
constexpr uint32_t NumRoots = 48;
constexpr uint64_t Golden = 0x9e3779b97f4a7c15ull;

/// Torture runs feed a tiny bank: one cache small enough to thrash and
/// one paper-typical geometry. The point is covering the simulation
/// machinery under kills, not the paper's grid.
void addTortureConfigs(CacheBank &Bank) {
  CacheConfig Small;
  Small.SizeBytes = 16 * 1024;
  Small.BlockBytes = 16;
  Bank.addConfig(Small);
  CacheConfig Typical;
  Typical.SizeBytes = 64 * 1024;
  Typical.BlockBytes = 64;
  Bank.addConfig(Typical);
}

uint32_t fixnum(uint64_t X) {
  return static_cast<uint32_t>(X) << 2; // Tag 00: never a pointer.
}

} // namespace

bool GcTortureDigest::operator==(const GcTortureDigest &O) const {
  return OpsRun == O.OpsRun && TotalRefs == O.TotalRefs &&
         MutatorRefs == O.MutatorRefs && AllocBytes == O.AllocBytes &&
         Collections == O.Collections &&
         GcInstructions == O.GcInstructions && GcSteps == O.GcSteps &&
         HeapHash == O.HeapHash && CacheHash == O.CacheHash;
}

std::string GcTortureDigest::toString() const {
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "ops=%llu refs=%llu mrefs=%llu alloc=%llu gcs=%llu "
                "igc=%llu steps=%llu heap=%016llx cache=%016llx",
                (unsigned long long)OpsRun, (unsigned long long)TotalRefs,
                (unsigned long long)MutatorRefs,
                (unsigned long long)AllocBytes,
                (unsigned long long)Collections,
                (unsigned long long)GcInstructions,
                (unsigned long long)GcSteps, (unsigned long long)HeapHash,
                (unsigned long long)CacheHash);
  return Buf;
}

GcTortureRun::GcTortureRun(const GcTortureConfig &Config)
    : Cfg(Config), H(&Bus) {
  addTortureConfigs(Bank);
  if (Cfg.CrossCheckEvery)
    Bank.enableCrossCheck(Cfg.CrossCheckEvery);
  Bank.setThreads(Cfg.Threads, /*BatchRefs=*/1024);
  Bus.addSink(&Bank);
  Bus.addSink(&Counting);
  if (Cfg.Audit) {
    Auditor.reset(new AuditSink(&Bank, &Counting));
    Bus.addSink(Auditor.get());
  }

  Mutator.StackWords = NumRoots;
  Mutator.HostRoots = {&HostA, &HostB};

  switch (Cfg.Gc) {
  case GcKind::Cheney:
    Coll.reset(new CheneyCollector(H, Mutator, Cfg.HeapBytes));
    break;
  case GcKind::Generational:
    Coll.reset(new GenerationalCollector(
        H, Mutator, GenerationalConfig{Cfg.NurseryBytes, Cfg.HeapBytes}));
    break;
  case GcKind::MarkSweep:
    Coll.reset(new MarkSweepCollector(H, Mutator, Cfg.HeapBytes));
    break;
  case GcKind::None:
    throw StatusError(Status::fail(
        StatusCode::InvalidArgument,
        "gc-torture needs a collector (none has no cycles to step)"));
  }
  Coll->setStepBudget(Cfg.StepBudget);
  Coll->setPhaseParanoid(Cfg.PhaseParanoid);
  Coll->setStepObserver([this](Collector &, bool) {
    ++BoundariesSeen;
    if (!Cfg.SnapshotPath.empty())
      cutSnapshot();
    if (Cfg.KillAtStep && BoundariesSeen == Cfg.KillAtStep)
      throw StatusError(Status::failf(
          StatusCode::Aborted, "gc-torture kill at step boundary %llu",
          (unsigned long long)BoundariesSeen));
  });
}

GcTortureRun::~GcTortureRun() = default;

Address GcTortureRun::stackSlot(uint32_t I) const {
  return H.stackSlotAddr(I);
}

void GcTortureRun::storeHeapValue(Address A, Value V) {
  H.storeValue(A, V);
  Coll->noteStore(A, V); // The generational write barrier.
}

void GcTortureRun::executeOp(uint32_t I, bool Resuming) {
  uint64_t R0 = Rng::splitmix64(Cfg.Seed ^ (Golden * (I + 1)));
  unsigned Action = static_cast<unsigned>(R0 % 100);
  uint64_t R1 = Rng::splitmix64(R0);

  if (Action < 55) {
    // Allocate a vector, fill it with a deterministic mix of fixnums and
    // pointers to current roots, and root it in a stack slot. The split
    // around allocate()/finishAllocate() is the resume protocol: a kill
    // inside the triggered collection resumes by finishing the cycle and
    // then re-entering here with Resuming set, which replays exactly the
    // post-collection tail of the op.
    uint32_t Payload = 1 + static_cast<uint32_t>((R1 >> 8) % 12);
    uint32_t Dest = static_cast<uint32_t>((R1 >> 32) % NumRoots);
    uint32_t Words = 1 + Payload;
    Address Obj;
    if (!Resuming) {
      Pending = PendingKind::Alloc;
      PendingWords = Words;
      Obj = Coll->allocate(Words);
    } else {
      assert(PendingWords == Words && "resumed op disagrees with snapshot");
      Obj = Coll->finishAllocate(Words);
    }
    H.store(Obj, makeHeader(ObjectTag::Vector, Payload));
    uint64_t Rs = R1;
    for (uint32_t J = 0; J != Payload; ++J) {
      Rs = Rng::splitmix64(Rs);
      Value V;
      if (Rs & 1) {
        V = Value{fixnum(Rs >> 8)};
      } else {
        Value Src = H.loadValue(
            stackSlot(static_cast<uint32_t>((Rs >> 8) % NumRoots)));
        V = Src.isPointer() ? Src : Value{fixnum(Rs >> 16)};
      }
      storeHeapValue(Obj + 4 + J * 4, V);
    }
    H.storeValue(stackSlot(Dest), Value::pointer(Obj));
    Pending = PendingKind::None;
    PendingWords = 0;
    return;
  }
  assert(!Resuming && "only allocation ops resume through executeOp");

  if (Action < 70) {
    // Mutate a random slot of a random rooted object — the op that plants
    // old-to-young pointers for the generational write barrier.
    Value V =
        H.loadValue(stackSlot(static_cast<uint32_t>((R1 >> 8) % NumRoots)));
    if (!V.isPointer())
      return;
    Address Obj = V.asPointer();
    uint32_t Header = H.load(Obj);
    uint32_t First, Count;
    objectValueSlots(headerTag(Header), headerPayloadWords(Header), First,
                     Count);
    if (!Count)
      return;
    uint32_t K = First + static_cast<uint32_t>((R1 >> 24) % Count);
    uint64_t R2 = Rng::splitmix64(R1);
    Value Src =
        H.loadValue(stackSlot(static_cast<uint32_t>((R2 >> 4) % NumRoots)));
    Value NewV =
        ((R2 & 1) && Src.isPointer()) ? Src : Value{fixnum(R2 >> 8)};
    storeHeapValue(Obj + 4 + K * 4, NewV);
    return;
  }

  if (Action < 80) {
    // Drop a root (garbage creation).
    H.storeValue(stackSlot(static_cast<uint32_t>((R1 >> 8) % NumRoots)),
                 Value{0});
    return;
  }

  if (Action < 90) {
    // Rotate the host registers through a stack value.
    Value V =
        H.loadValue(stackSlot(static_cast<uint32_t>((R1 >> 8) % NumRoots)));
    if (R1 & 1) {
      HostB = HostA;
      HostA = V;
    } else {
      HostB = V;
    }
    return;
  }

  // Force a full collection.
  Pending = PendingKind::ForceGc;
  Coll->collect();
  Pending = PendingKind::None;
}

void GcTortureRun::run() {
  for (; OpIndex < Cfg.Ops; ++OpIndex)
    executeOp(OpIndex, /*Resuming=*/false);
}

void GcTortureRun::cutSnapshot() {
  SnapshotWriter W;
  W.beginSection("gc-torture");
  W.putU8(static_cast<uint8_t>(Cfg.Gc));
  W.putU64(Cfg.Seed);
  W.putU32(Cfg.Ops);
  W.putU32(Cfg.StepBudget);
  W.putU32(Cfg.HeapBytes);
  W.putU32(Cfg.NurseryBytes);
  W.putU32(OpIndex);
  W.putU8(static_cast<uint8_t>(Pending));
  W.putU32(PendingWords);
  W.putU32(HostA.Bits);
  W.putU32(HostB.Bits);
  W.putU64(BoundariesSeen);
  Counting.save(W);
  H.saveTo(W);
  Coll->saveCycleState(W);
  Bank.saveTo(W);
  faultInjector().saveTo(W);
  Status S = W.writeFile(Cfg.SnapshotPath);
  if (!S.ok())
    throw StatusError(S);
}

Status GcTortureRun::resume(const std::string &Path) {
  SnapshotReader R;
  Status S = R.open(Path);
  if (!S.ok())
    return S;
  SnapshotCursor C = R.section("gc-torture");
  uint8_t SavedGc = C.getU8();
  uint64_t SavedSeed = C.getU64();
  uint32_t SavedOps = C.getU32();
  uint32_t SavedBudget = C.getU32();
  uint32_t SavedHeap = C.getU32();
  uint32_t SavedNursery = C.getU32();
  uint32_t SavedOp = C.getU32();
  uint8_t SavedPending = C.getU8();
  uint32_t SavedWords = C.getU32();
  uint32_t SavedHostA = C.getU32();
  uint32_t SavedHostB = C.getU32();
  uint64_t SavedBoundaries = C.getU64();
  Counting.load(C);
  if (C.ok() &&
      (SavedGc != static_cast<uint8_t>(Cfg.Gc) || SavedSeed != Cfg.Seed ||
       SavedOps != Cfg.Ops || SavedBudget != Cfg.StepBudget ||
       SavedHeap != Cfg.HeapBytes || SavedNursery != Cfg.NurseryBytes ||
       SavedPending > static_cast<uint8_t>(PendingKind::ForceGc) ||
       SavedOp > SavedOps))
    C.fail(Status::fail(StatusCode::Corrupt,
                        "gc-torture snapshot belongs to a different "
                        "configuration"));
  S = C.finish();
  if (!S.ok())
    return S;
  S = H.loadFrom(R);
  if (!S.ok())
    return S;
  S = Coll->loadCycleState(R);
  if (!S.ok())
    return S;
  S = Bank.loadFrom(R);
  if (!S.ok())
    return S;
  S = faultInjector().loadFrom(R);
  if (!S.ok())
    return S;
  // The cut that a gc-step fault killed us at was written *before* the
  // site fired (boundary order: cut, then fault sites), so the restored
  // counters sit exactly one occurrence short of the fire index — leaving
  // the plan armed would re-kill the resumed run at its first boundary,
  // forever. The injected kill already happened; keep the counters (they
  // are simulation state) and drop the plan (it is environment).
  faultInjector().disarm();
  OpIndex = SavedOp;
  Pending = static_cast<PendingKind>(SavedPending);
  PendingWords = SavedWords;
  HostA = Value{SavedHostA};
  HostB = Value{SavedHostB};
  BoundariesSeen = SavedBoundaries;
  // The auditor's independent recount necessarily restarts mid-stream.
  if (Auditor)
    Auditor->adoptBaseline();

  // Finish the interrupted cycle (no-op if the kill landed on the finish
  // boundary), then the interrupted operation, then the rest of the run.
  while (Coll->stepCycle()) {
  }
  if (Pending == PendingKind::Alloc) {
    executeOp(OpIndex, /*Resuming=*/true);
    ++OpIndex;
  } else if (Pending == PendingKind::ForceGc) {
    Pending = PendingKind::None;
    ++OpIndex;
  }
  run();
  return Status();
}

GcTortureDigest GcTortureRun::digest() {
  Bank.flush();
  if (Auditor) {
    Status S = Auditor->finalCheck();
    if (!S.ok())
      throw StatusError(S);
  }
  if (Bank.crossCheckEnabled()) {
    Status S = Bank.crossCheckNow();
    if (!S.ok())
      throw StatusError(S);
  }
  Status S = Bank.auditAll();
  if (!S.ok())
    throw StatusError(S);

  GcTortureDigest D;
  D.OpsRun = OpIndex;
  D.TotalRefs = Counting.totalRefs();
  D.MutatorRefs = Counting.mutatorRefs();
  D.AllocBytes = Counting.allocatedBytes();
  D.Collections = Counting.collections();
  D.GcInstructions = Coll->stats().Instructions;
  D.GcSteps = Coll->totalSteps();

  uint64_t Hash = 0x243f6a8885a308d3ull;
  auto Mix = [&Hash](uint64_t X) { Hash = Rng::splitmix64(Hash ^ X); };
  Mix(H.staticFrontier());
  Mix(H.dynamicFrontier());
  Mix(HostA.Bits);
  Mix(HostB.Bits);
  for (uint32_t I = 0; I != NumRoots; ++I)
    Mix(H.peek(stackSlot(I)));
  for (const auto &Range : Coll->liveRanges()) {
    Mix(Range.first);
    Mix(Range.second);
    for (Address A = Range.first; A < Range.second; A += 4)
      Mix(H.peek(A));
  }
  D.HeapHash = Hash;

  Hash = 0x13198a2e03707344ull;
  for (size_t I = 0; I != Bank.size(); ++I) {
    for (unsigned P = 0; P != 2; ++P) {
      const CacheCounters &CC = Bank.cache(I).counters(static_cast<Phase>(P));
      Mix(CC.Loads);
      Mix(CC.Stores);
      Mix(CC.FetchMisses);
      Mix(CC.NoFetchMisses);
      Mix(CC.Writebacks);
      Mix(CC.WriteThroughs);
    }
  }
  D.CacheHash = Hash;
  return D;
}

GcTortureDigest gcache::runGcTorture(const GcTortureConfig &Config) {
  GcTortureRun R(Config);
  R.run();
  return R.digest();
}
