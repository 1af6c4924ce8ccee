//===- test_fault_injection.cpp - Deterministic fault-injection tests ----------===//
//
// Exercises the FaultInjector and every named injection site end to end:
// spec parsing, census counting, the OOM-at-every-allocation sweep, forced
// collections, shard-worker failure capture, trace-write short writes,
// workload-step aborts, and the paranoid-mode bit-identical equivalence
// proof.
//
//===----------------------------------------------------------------------===//

#include "gcache/core/Checkpoint.h"
#include "gcache/core/Experiment.h"
#include "gcache/memsys/CacheBank.h"
#include "gcache/support/FaultInjector.h"
#include "gcache/support/Random.h"
#include "gcache/support/Snapshot.h"
#include "gcache/trace/TraceFile.h"
#include "gcache/vm/SchemeSystem.h"
#include "gcache/workloads/Workload.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>

using namespace gcache;

namespace {

/// Every test arms the process-wide injector, so each one must leave it
/// disarmed for whatever runs next in this binary.
class FaultInjection : public ::testing::Test {
protected:
  void TearDown() override {
    faultInjector().disarm();
    faultInjector().resetCounters();
  }
};

/// Runs \p Source on \p S, converting a raised StatusError back into its
/// Status; returns ok when the run succeeds.
Status runCatching(SchemeSystem &S, const std::string &Source) {
  try {
    S.run(Source);
  } catch (const StatusError &E) {
    return E.status();
  }
  return Status();
}

// A deliberately tiny allocating program: small enough that the
// OOM-at-every-allocation sweep (one fresh system per dynamic allocation)
// stays fast, large enough to allocate through conses, boxed arithmetic,
// and closure environments.
constexpr const char *SweepDefs = R"scheme(
  (define (build n) (if (= n 0) '() (cons n (build (- n 1)))))
  (define (sum l) (fold-left + 0 l))
)scheme";
constexpr const char *SweepExpr = "(sum (build 24))";

std::unique_ptr<SchemeSystem> makeSweepSystem(GcKind Gc, bool Paranoid) {
  SchemeSystemConfig C;
  C.Gc = Gc;
  C.SemispaceBytes = 512 << 10;
  C.Paranoid = Paranoid;
  auto S = std::make_unique<SchemeSystem>(C);
  S->loadDefinitions(SweepDefs);
  return S;
}

} // namespace

//===----------------------------------------------------------------------===//
// Spec grammar and plan derivation
//===----------------------------------------------------------------------===//

TEST_F(FaultInjection, ParsesPlainSpec) {
  Expected<FaultPlan> P = parseFaultSpec("heap-oom:3");
  ASSERT_TRUE(P.ok()) << P.status().toString();
  EXPECT_EQ(P->Site, FaultSite::HeapOom);
  EXPECT_EQ(P->Nth, 3u);
  EXPECT_EQ(P->Seed, 0u);
  EXPECT_EQ(P->fireIndex(), 3u) << "seedless plans fire exactly at Nth";
  EXPECT_EQ(P->toString(), "heap-oom:3");
}

TEST_F(FaultInjection, ParsesSeededSpecDeterministically) {
  Expected<FaultPlan> P = parseFaultSpec("trace-write:100:42");
  ASSERT_TRUE(P.ok());
  EXPECT_EQ(P->Site, FaultSite::TraceShortWrite);
  EXPECT_EQ(P->Seed, 42u);
  uint64_t Fire = P->fireIndex();
  EXPECT_GE(Fire, 1u);
  EXPECT_LE(Fire, 100u);
  EXPECT_EQ(Fire, parseFaultSpec("trace-write:100:42")->fireIndex())
      << "same spec, same injection point";
  EXPECT_EQ(P->toString(), "trace-write:100:42");
}

TEST_F(FaultInjection, RejectsMalformedSpecs) {
  for (const char *Bad :
       {"", "heap-oom", "heap-oom:", "heap-oom:0", "heap-oom:-1",
        "heap-oom:x", "heap-oom:3:sow", "disk-full:1", ":3", "heap-oom:3 "}) {
    Expected<FaultPlan> P = parseFaultSpec(Bad);
    ASSERT_FALSE(P.ok()) << "accepted '" << Bad << "'";
    EXPECT_EQ(P.status().code(), StatusCode::InvalidArgument);
    EXPECT_NE(P.status().message().find("<site>:<n>[:<seed>]"),
              std::string::npos)
        << "error must teach the grammar: " << P.status().message();
  }
}

TEST_F(FaultInjection, ArmFromSpecAndEnv) {
  FaultInjector &Fi = faultInjector();
  ASSERT_TRUE(Fi.armFromSpec("step-abort:7").ok());
  EXPECT_TRUE(Fi.armed());
  EXPECT_EQ(Fi.plan().Site, FaultSite::StepAbort);

  // Empty and "off" disarm without error; garbage is rejected and leaves
  // the injector disarmed from the "off" above.
  ASSERT_TRUE(Fi.armFromSpec("off").ok());
  EXPECT_FALSE(Fi.armed());
  ASSERT_TRUE(Fi.armFromSpec("").ok());
  EXPECT_FALSE(Fi.armFromSpec("junk").ok());
  EXPECT_FALSE(Fi.armed());

  ASSERT_EQ(setenv("GCACHE_FAULT", "gc-force:2:9", 1), 0);
  EXPECT_TRUE(Fi.armFromEnv().ok());
  EXPECT_TRUE(Fi.armed());
  EXPECT_EQ(Fi.plan().Site, FaultSite::GcForce);
  EXPECT_EQ(Fi.plan().Seed, 9u);

  ASSERT_EQ(setenv("GCACHE_FAULT", "nope", 1), 0);
  EXPECT_FALSE(Fi.armFromEnv().ok());
  ASSERT_EQ(unsetenv("GCACHE_FAULT"), 0);
  EXPECT_TRUE(Fi.armFromEnv().ok()) << "unset variable is a no-op";
}

TEST_F(FaultInjection, CountsOccurrencesWhileDisarmed) {
  FaultInjector &Fi = faultInjector();
  Fi.disarm();
  Fi.resetCounters();
  for (int I = 0; I != 5; ++I)
    EXPECT_FALSE(Fi.shouldFire(FaultSite::HeapOom));
  EXPECT_EQ(Fi.occurrences(FaultSite::HeapOom), 5u)
      << "census mode: disarmed sites still count";
  EXPECT_EQ(Fi.occurrences(FaultSite::GcForce), 0u);
}

TEST_F(FaultInjection, FiresExactlyOnceAtTheNthOccurrence) {
  FaultInjector &Fi = faultInjector();
  Fi.arm({FaultSite::StepAbort, 4, 0});
  for (uint64_t I = 1; I <= 10; ++I)
    EXPECT_EQ(Fi.shouldFire(FaultSite::StepAbort), I == 4) << "occurrence "
                                                           << I;
  EXPECT_FALSE(Fi.shouldFire(FaultSite::HeapOom))
      << "other sites never fire from this plan";
}

//===----------------------------------------------------------------------===//
// heap-oom: the OOM-at-every-allocation sweep
//===----------------------------------------------------------------------===//

// The headline robustness test: fail every single dynamic allocation of a
// small workload, one run per allocation, and require a structured
// OutOfMemory error every time — never a crash, never a different code.
// Paranoid mode verifies the live heap before each injected failure
// throws, so StatusCode::OutOfMemory (rather than HeapCorrupt) also
// proves the heap was consistent at the moment of every failure.
TEST_F(FaultInjection, OomAtEveryAllocationIsStructured) {
  FaultInjector &Fi = faultInjector();

  // Census pass: a clean run counts every heap-oom occurrence, i.e. every
  // dynamic allocation made between system construction and run end.
  Fi.disarm();
  Fi.resetCounters();
  {
    auto S = makeSweepSystem(GcKind::Cheney, /*Paranoid=*/true);
    ASSERT_TRUE(runCatching(*S, SweepExpr).ok());
  }
  const uint64_t Allocations = Fi.occurrences(FaultSite::HeapOom);
  ASSERT_GT(Allocations, 0u) << "sweep program must allocate";

  for (uint64_t N = 1; N <= Allocations; ++N) {
    // arm() zeroes the counters, so occurrence N here is the same
    // allocation as occurrence N of the census run.
    Fi.arm({FaultSite::HeapOom, N, 0});
    Status S;
    try {
      auto Sys = makeSweepSystem(GcKind::Cheney, /*Paranoid=*/true);
      Sys->run(SweepExpr);
    } catch (const StatusError &E) {
      S = E.status();
    }
    ASSERT_FALSE(S.ok()) << "allocation " << N << " of " << Allocations
                         << " did not fail";
    ASSERT_EQ(S.code(), StatusCode::OutOfMemory)
        << "allocation " << N << ": " << S.toString();
  }
}

TEST_F(FaultInjection, InjectedOomIsDeterministic) {
  FaultInjector &Fi = faultInjector();
  std::string First, Second;
  for (std::string *Message : {&First, &Second}) {
    Fi.arm({FaultSite::HeapOom, 5, 0});
    auto S = makeSweepSystem(GcKind::Cheney, /*Paranoid=*/false);
    Status St = runCatching(*S, SweepExpr);
    ASSERT_EQ(St.code(), StatusCode::OutOfMemory);
    *Message = St.toString();
  }
  EXPECT_EQ(First, Second) << "same plan, same failure";
}

//===----------------------------------------------------------------------===//
// gc-force
//===----------------------------------------------------------------------===//

TEST_F(FaultInjection, GcForceRunsOneExtraCollection) {
  // A semispace big enough that the sweep program never collects on its
  // own; the injected gc-force must be the only collection, and it must
  // not change the program's result.
  auto Clean = [&] {
    SchemeSystemConfig C;
    C.Gc = GcKind::Cheney;
    C.SemispaceBytes = 4 << 20;
    C.Paranoid = true;
    auto S = std::make_unique<SchemeSystem>(C);
    S->loadDefinitions(SweepDefs);
    return S;
  };

  faultInjector().disarm();
  auto Base = Clean();
  Value BaseResult = Base->run(SweepExpr);
  std::string Want = Base->vm().valueToString(BaseResult, true);
  uint64_t BaseCollections = Base->lastRunStats().Gc.Collections;

  faultInjector().arm({FaultSite::GcForce, 10, 0});
  auto Forced = Clean();
  Value ForcedResult = Forced->run(SweepExpr);
  EXPECT_EQ(Forced->vm().valueToString(ForcedResult, true), Want)
      << "a forced collection must preserve program semantics";
  EXPECT_EQ(Forced->lastRunStats().Gc.Collections, BaseCollections + 1)
      << "exactly one extra, injected collection";
}

//===----------------------------------------------------------------------===//
// step-abort
//===----------------------------------------------------------------------===//

TEST_F(FaultInjection, StepAbortStopsBeforeTheNthForm) {
  auto S = makeSweepSystem(GcKind::None, /*Paranoid=*/false);
  faultInjector().arm({FaultSite::StepAbort, 2, 0});
  // Three top-level forms; the second must never run.
  Status St = runCatching(
      *S, "(display (sum (build 4))) (display 'never) (display 'never2)");
  ASSERT_FALSE(St.ok());
  EXPECT_EQ(St.code(), StatusCode::Aborted);
  EXPECT_NE(St.message().find("step-abort"), std::string::npos)
      << St.message();
  EXPECT_EQ(S->vm().output().find("never"), std::string::npos)
      << "aborted forms must not have executed: " << S->vm().output();
}

//===----------------------------------------------------------------------===//
// trace-write
//===----------------------------------------------------------------------===//

TEST_F(FaultInjection, TraceWriteFaultLatchesStickyIoError) {
  TraceWriter W;
  std::string Path = ::testing::TempDir() + "/gcache_fault_trace.gctr";
  ASSERT_TRUE(W.open(Path).ok());

  faultInjector().arm({FaultSite::TraceShortWrite, 3, 0});
  Ref R{0x10000000, AccessKind::Load, Phase::Mutator};
  for (int I = 0; I != 6; ++I)
    W.onRef(R);

  // Two records made it out; the third hit the injected disk-full and the
  // writer stopped emitting instead of cascading failures.
  EXPECT_EQ(W.recordCount(), 2u);
  ASSERT_FALSE(W.status().ok());
  EXPECT_EQ(W.status().code(), StatusCode::IoError);
  EXPECT_NE(W.status().message().find("injected"), std::string::npos);

  Status Close = W.close();
  ASSERT_FALSE(Close.ok()) << "close must surface the sticky stream error";
  EXPECT_EQ(Close.code(), StatusCode::IoError);
}

// Records are buffered and written one 64 KiB chunk at a time, but the
// trace-write site still counts every record: a fault in the middle of the
// first chunk stops the stream at exactly that record, the site stops
// counting with it, and close() installs nothing.
TEST_F(FaultInjection, TraceWriteFaultMidChunkKeepsRecordCountExact) {
  TraceWriter W;
  std::string Path = ::testing::TempDir() + "/gcache_fault_mid_chunk.gct";
  ASSERT_TRUE(W.open(Path).ok());

  faultInjector().arm({FaultSite::TraceShortWrite, 1000, 0});
  Ref R{0x10000000, AccessKind::Load, Phase::Mutator};
  for (int I = 0; I != 30000; ++I) // More than two chunks of 5-byte records.
    W.onRef(R);

  EXPECT_EQ(W.recordCount(), 999u);
  EXPECT_EQ(faultInjector().occurrences(FaultSite::TraceShortWrite), 1000u);
  ASSERT_FALSE(W.status().ok());
  EXPECT_NE(W.status().message().find("trace record 999"), std::string::npos)
      << W.status().message();

  ASSERT_FALSE(W.close().ok());
  auto exists = [](const std::string &P) {
    std::FILE *F = std::fopen(P.c_str(), "rb");
    if (F)
      std::fclose(F);
    return F != nullptr;
  };
  EXPECT_FALSE(exists(Path));
  EXPECT_FALSE(exists(Path + ".tmp"));
}

//===----------------------------------------------------------------------===//
// snapshot-write / snapshot-load
//===----------------------------------------------------------------------===//

namespace {

/// A small synthetic trace with GC phases, so a checkpointed replay cuts
/// several snapshots (at each GC end and periodically).
std::string makeSyntheticTrace(const char *Name) {
  std::string Path = ::testing::TempDir() + "/" + Name;
  TraceWriter W;
  EXPECT_TRUE(W.open(Path).ok());
  Rng R(13);
  for (int Block = 0; Block != 6; ++Block) {
    for (int I = 0; I != 300; ++I)
      W.onRef({0x10000000 + (static_cast<Address>(R.below(1u << 18)) & ~3u),
               AccessKind::Load, Phase::Mutator});
    W.onGcBegin();
    for (int I = 0; I != 50; ++I)
      W.onRef({0x20000000 + (static_cast<Address>(R.below(1u << 16)) & ~3u),
               AccessKind::Store, Phase::Collector});
    W.onGcEnd();
  }
  EXPECT_TRUE(W.close().ok());
  return Path;
}

void addOneCache(CacheBank &Bank) {
  CacheConfig C;
  C.SizeBytes = 16 << 10;
  C.BlockBytes = 32;
  Bank.addConfig(C);
}

} // namespace

// An injected write failure must surface as a structured IoError and must
// not clobber the previous good snapshot (atomicity: tmp+rename).
TEST_F(FaultInjection, SnapshotWriteFaultIsStructuredAndAtomic) {
  std::string Path = ::testing::TempDir() + "/gcache_fault_snapwrite.snap";
  SnapshotWriter Good;
  Good.beginSection("probe");
  Good.putU64(42);
  ASSERT_TRUE(Good.writeFile(Path).ok());

  faultInjector().arm({FaultSite::SnapshotWrite, 1, 0});
  SnapshotWriter Update;
  Update.beginSection("probe");
  Update.putU64(99);
  Status S = Update.writeFile(Path);
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.code(), StatusCode::IoError);
  EXPECT_NE(S.message().find("injected snapshot-write"), std::string::npos);

  // The old snapshot is untouched and still loads.
  faultInjector().disarm();
  SnapshotReader Rd;
  ASSERT_TRUE(Rd.open(Path).ok());
  SnapshotCursor C = Rd.section("probe");
  EXPECT_EQ(C.getU64(), 42u);
  EXPECT_TRUE(C.finish().ok());
  std::remove(Path.c_str());
}

TEST_F(FaultInjection, SnapshotLoadFaultIsStructured) {
  std::string Path = ::testing::TempDir() + "/gcache_fault_snapload.snap";
  SnapshotWriter W;
  W.beginSection("probe");
  W.putU64(7);
  ASSERT_TRUE(W.writeFile(Path).ok());

  faultInjector().arm({FaultSite::SnapshotLoad, 1, 0});
  SnapshotReader Rd;
  Status S = Rd.open(Path);
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.code(), StatusCode::IoError);
  EXPECT_NE(S.message().find("injected snapshot-load"), std::string::npos);

  faultInjector().disarm();
  EXPECT_TRUE(Rd.open(Path).ok()) << "one-shot fault: next open succeeds";
  std::remove(Path.c_str());
}

// Replay checkpoints store one counter per fault site. A snapshot from a
// build with another number of sites cannot map its counters onto this
// build's, so loading it is Corrupt, names both counts, and leaves the
// injector's plan and counters as they were.
TEST_F(FaultInjection, SnapshotWithAnotherSiteCountIsRefused) {
  FaultInjector &Fi = faultInjector();
  Fi.arm({FaultSite::StepAbort, 5, 0});
  for (int I = 0; I != 3; ++I)
    Fi.shouldFire(FaultSite::HeapOom);
  EXPECT_FALSE(Fi.shouldFire(FaultSite::StepAbort));

  const unsigned SavedSites = NumFaultSites + 9;
  SnapshotWriter W;
  W.beginSection("fault-injector");
  W.putU8(1);                                        // armed
  W.putU8(static_cast<uint8_t>(FaultSite::GcForce)); // plan site
  W.putU64(2);                                       // Nth
  W.putU64(0);                                       // seed
  W.putU64(2);                                       // fire index
  W.putU32(SavedSites);
  for (unsigned I = 0; I != SavedSites; ++I)
    W.putU64(100 + I);
  SnapshotReader R;
  ASSERT_TRUE(R.openBuffer(W.image()).ok());

  Status S = Fi.loadFrom(R);
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.code(), StatusCode::Corrupt);
  EXPECT_NE(S.message().find("/ " + std::to_string(SavedSites) + " sites"),
            std::string::npos)
      << S.message();
  EXPECT_NE(S.message().find("this build has " +
                             std::to_string(NumFaultSites)),
            std::string::npos)
      << S.message();

  EXPECT_TRUE(Fi.armed());
  EXPECT_EQ(Fi.plan().Site, FaultSite::StepAbort);
  EXPECT_EQ(Fi.plan().Nth, 5u);
  EXPECT_EQ(Fi.plan().Seed, 0u);
  for (unsigned I = 0; I != NumFaultSites; ++I) {
    FaultSite Site = static_cast<FaultSite>(I);
    uint64_t Want = Site == FaultSite::HeapOom     ? 3
                    : Site == FaultSite::StepAbort ? 1
                                                   : 0;
    EXPECT_EQ(Fi.occurrences(Site), Want) << faultSiteName(Site);
  }
  for (uint64_t I = 2; I <= 6; ++I)
    EXPECT_EQ(Fi.shouldFire(FaultSite::StepAbort), I == 5)
        << "the plan still fires at occurrence 5, not " << I;
}

// The OOM-style sweep for the snapshot sites: fail every single checkpoint
// write of a checkpointed replay, one run per write, and require a
// structured IoError every time — never a crash, never a half-written
// file accepted later.
TEST_F(FaultInjection, SnapshotWriteFaultAtEveryCheckpointIsStructured) {
  FaultInjector &Fi = faultInjector();
  std::string Trace = makeSyntheticTrace("gcache_fault_sweep.gct");
  std::string Snap = ::testing::TempDir() + "/gcache_fault_sweep.snap";

  ReplayCheckpointOptions Opts;
  Opts.SnapshotPath = Snap;
  Opts.EveryRefs = 200;

  // Census pass: count how many checkpoint writes a clean replay makes.
  Fi.disarm();
  Fi.resetCounters();
  {
    std::remove(Snap.c_str());
    CacheBank Bank;
    addOneCache(Bank);
    CountingSink Counts;
    ASSERT_TRUE(replayTraceCheckpointed(Trace, Bank, Counts, Opts).ok());
  }
  const uint64_t Writes = Fi.occurrences(FaultSite::SnapshotWrite);
  ASSERT_GT(Writes, 5u) << "sweep needs several checkpoints to be meaningful";

  for (uint64_t N = 1; N <= Writes; ++N) {
    std::remove(Snap.c_str());
    Fi.arm({FaultSite::SnapshotWrite, N, 0});
    CacheBank Bank;
    addOneCache(Bank);
    CountingSink Counts;
    Expected<ReplayCheckpointResult> R =
        replayTraceCheckpointed(Trace, Bank, Counts, Opts);
    ASSERT_FALSE(R.ok()) << "checkpoint write " << N << " did not fail";
    ASSERT_EQ(R.status().code(), StatusCode::IoError)
        << "write " << N << ": " << R.status().toString();

    // The failing write never tears the on-disk state: either no snapshot
    // exists yet (the first write failed) or the previous complete
    // checkpoint still opens and validates.
    Fi.disarm();
    Fi.resetCounters();
    if (FILE *F = std::fopen(Snap.c_str(), "rb")) {
      std::fclose(F);
      SnapshotReader Rd;
      EXPECT_TRUE(Rd.open(Snap).ok()) << "write " << N;
    }
  }

  // Injector state rides in the checkpoint, so a resumed replay re-fires
  // a mid-trace fault at the same global occurrence — the crash is
  // reproduced, not silently skipped.
  {
    std::remove(Snap.c_str());
    Fi.arm({FaultSite::SnapshotWrite, Writes / 2, 0});
    CacheBank Bank;
    addOneCache(Bank);
    CountingSink Counts;
    ASSERT_EQ(replayTraceCheckpointed(Trace, Bank, Counts, Opts)
                  .status()
                  .code(),
              StatusCode::IoError);

    Fi.disarm();
    Fi.resetCounters();
    CacheBank Resumed;
    addOneCache(Resumed);
    CountingSink ResumedCounts;
    ReplayCheckpointOptions ResumeOpts = Opts;
    ResumeOpts.Resume = true;
    Expected<ReplayCheckpointResult> R =
        replayTraceCheckpointed(Trace, Resumed, ResumedCounts, ResumeOpts);
    ASSERT_FALSE(R.ok()) << "the restored injector must re-fire";
    EXPECT_EQ(R.status().code(), StatusCode::IoError);
    EXPECT_NE(R.status().message().find("injected snapshot-write"),
              std::string::npos);
  }
  std::remove(Snap.c_str());
}

// And the load side: a replay that resumes through an injected load fault
// reports it; the snapshot itself is fine on the next attempt.
TEST_F(FaultInjection, SnapshotLoadFaultDuringResumeIsStructured) {
  FaultInjector &Fi = faultInjector();
  std::string Trace = makeSyntheticTrace("gcache_fault_resume.gct");
  std::string Snap = ::testing::TempDir() + "/gcache_fault_resume.snap";
  std::remove(Snap.c_str());

  ReplayCheckpointOptions Opts;
  Opts.SnapshotPath = Snap;
  Opts.EveryRefs = 200;
  Opts.StopAfterRecords = 900; // killed mid-replay, snapshot left behind
  {
    CacheBank Bank;
    addOneCache(Bank);
    CountingSink Counts;
    ASSERT_EQ(
        replayTraceCheckpointed(Trace, Bank, Counts, Opts).status().code(),
        StatusCode::Aborted);
  }

  Fi.arm({FaultSite::SnapshotLoad, 1, 0});
  ReplayCheckpointOptions ResumeOpts;
  ResumeOpts.SnapshotPath = Snap;
  ResumeOpts.Resume = true;
  CacheBank Bank;
  addOneCache(Bank);
  CountingSink Counts;
  Expected<ReplayCheckpointResult> R =
      replayTraceCheckpointed(Trace, Bank, Counts, ResumeOpts);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.status().code(), StatusCode::IoError);
  EXPECT_NE(R.status().message().find("injected snapshot-load"),
            std::string::npos);

  Fi.disarm();
  CacheBank Bank2;
  addOneCache(Bank2);
  CountingSink Counts2;
  EXPECT_TRUE(replayTraceCheckpointed(Trace, Bank2, Counts2, ResumeOpts).ok());
  std::remove(Snap.c_str());
}

//===----------------------------------------------------------------------===//
// shard-worker
//===----------------------------------------------------------------------===//

TEST_F(FaultInjection, ShardWorkerFailureRethrownAtFlushThenConsumed) {
  CacheBank Bank;
  for (uint32_t SizeKb : {16u, 64u, 256u}) {
    CacheConfig C;
    C.SizeBytes = SizeKb << 10;
    C.BlockBytes = 64;
    Bank.addConfig(C);
  }
  Bank.setThreads(2, /*BatchRefs=*/256);

  faultInjector().arm({FaultSite::ShardWorker, 1, 0});
  Rng R(7);
  for (int I = 0; I != 4096; ++I)
    Bank.onRef({0x10000000 + (static_cast<Address>(R.below(1u << 20)) & ~3u),
                AccessKind::Load, Phase::Mutator});

  // The failed worker keeps consuming (and discarding) batches, so the
  // pool never wedges; its captured exception surfaces at the flush.
  Status St;
  try {
    Bank.flush();
  } catch (const StatusError &E) {
    St = E.status();
  }
  ASSERT_FALSE(St.ok()) << "flush must rethrow the worker failure";
  EXPECT_EQ(St.code(), StatusCode::WorkerFailure);

  // The failure is consumed: later work and flushes proceed normally (and
  // the destructor must not throw either way).
  faultInjector().disarm();
  for (int I = 0; I != 1024; ++I)
    Bank.onRef({0x10000000 + (static_cast<Address>(R.below(1u << 20)) & ~3u),
                AccessKind::Store, Phase::Mutator});
  EXPECT_NO_THROW(Bank.flush());
  EXPECT_NO_THROW(Bank.flush()) << "no double rethrow";
}

// After the failure has been rethrown, resetAll() restarts every cache,
// including the ones whose worker or lane failed: the bank must simulate
// all of them again instead of discarding their batches forever.
TEST_F(FaultInjection, ShardWorkerFailureClearedByResetAll) {
  CacheBank Bank;
  for (uint32_t SizeKb : {16u, 64u, 256u}) {
    CacheConfig C;
    C.SizeBytes = SizeKb << 10;
    C.BlockBytes = 64;
    Bank.addConfig(C);
  }
  Bank.setThreads(2, /*BatchRefs=*/256);

  faultInjector().arm({FaultSite::ShardWorker, 1, 0});
  Rng R(7);
  for (int I = 0; I != 4096; ++I)
    Bank.onRef({0x10000000 + (static_cast<Address>(R.below(1u << 20)) & ~3u),
                AccessKind::Load, Phase::Mutator});
  EXPECT_THROW(Bank.flush(), StatusError);
  faultInjector().disarm();

  Bank.resetAll();
  for (int I = 0; I != 1000; ++I)
    Bank.onRef({0x10000000 + (static_cast<Address>(R.below(1u << 20)) & ~3u),
                AccessKind::Load, Phase::Mutator});
  EXPECT_NO_THROW(Bank.flush());
  for (size_t I = 0; I != Bank.size(); ++I)
    EXPECT_EQ(Bank.cache(I).totalCounters().refs(), 1000u)
        << Bank.cache(I).config().label();
  EXPECT_TRUE(Bank.auditAll().ok());
}

// shard-worker is the one site hit by several threads at once; its census
// stays exact: one occurrence per lane batch, with four workers racing.
TEST_F(FaultInjection, ShardWorkerCensusExactWithFourWorkers) {
  CacheBank Bank;
  for (uint32_t BlockBytes : {16u, 32u, 64u, 128u}) { // One lane each.
    CacheConfig C;
    C.SizeBytes = 16 << 10;
    C.BlockBytes = BlockBytes;
    Bank.addConfig(C);
  }
  constexpr size_t BatchRefs = 64, Batches = 5000;
  Bank.setThreads(4, BatchRefs);
  ASSERT_EQ(Bank.threads(), 4u);

  faultInjector().resetCounters();
  Rng R(11);
  for (size_t I = 0; I != BatchRefs * Batches; ++I)
    Bank.onRef({0x10000000 + (static_cast<Address>(R.below(1u << 20)) & ~3u),
                AccessKind::Load, Phase::Mutator});
  Bank.flush();
  EXPECT_EQ(faultInjector().occurrences(FaultSite::ShardWorker), 4 * Batches);
}

//===----------------------------------------------------------------------===//
// Unit-boundary degradation: tryRunProgram
//===----------------------------------------------------------------------===//

TEST_F(FaultInjection, TryRunProgramFailsOneUnitThenRecovers) {
  ExperimentOptions O;
  O.Scale = 0.05;
  O.Grid = CacheGridKind::None;

  faultInjector().arm({FaultSite::StepAbort, 1, 0});
  Expected<ProgramRun> Bad = tryRunProgram(nbodyWorkload(), O);
  ASSERT_FALSE(Bad.ok());
  EXPECT_EQ(Bad.status().code(), StatusCode::Aborted);

  // The failure is confined to that unit: the next run of the same
  // workload in the same process succeeds.
  faultInjector().disarm();
  Expected<ProgramRun> Good = tryRunProgram(nbodyWorkload(), O);
  ASSERT_TRUE(Good.ok()) << Good.status().toString();
  EXPECT_FALSE(Good->Output.empty());
}

//===----------------------------------------------------------------------===//
// Paranoid mode
//===----------------------------------------------------------------------===//

TEST_F(FaultInjection, VerifyLiveHeapAcceptsAHealthySystem) {
  auto S = makeSweepSystem(GcKind::Cheney, /*Paranoid=*/true);
  ASSERT_TRUE(runCatching(*S, SweepExpr).ok());
  EXPECT_NO_THROW(S->collector().verifyLiveHeapOrThrow("unit test"));
}

// The tentpole equivalence proof: paranoid verification only peeks at the
// heap (untraced reads), so a paranoid run must be bit-identical to a
// normal run in every simulated counter — references, misses, writebacks,
// instruction counts, GC activity, and program output.
TEST_F(FaultInjection, ParanoidModeIsCounterInvisible) {
  for (GcKind Kind :
       {GcKind::Cheney, GcKind::Generational, GcKind::MarkSweep}) {
    ExperimentOptions Base;
    Base.Scale = 0.05;
    Base.Gc = Kind;
    Base.SemispaceBytes = 768 << 10; // small: force real collections
    Base.Grid = CacheGridKind::SizeSweep;
    ProgramRun Normal = runProgram(nbodyWorkload(), Base);

    // --paranoid verifies the heap after every collection; --paranoid=phase
    // also certifies every step boundary of every cycle.
    for (bool Certify : {false, true}) {
      ExperimentOptions Paranoid = Base;
      Paranoid.Paranoid = true;
      Paranoid.ParanoidPhase = Certify;
      ProgramRun Checked = runProgram(nbodyWorkload(), Paranoid);
      SCOPED_TRACE("GcKind " + std::to_string(static_cast<int>(Kind)) +
                   (Certify ? ", --paranoid=phase" : ", --paranoid"));
      ASSERT_GT(Checked.Collections, 0u)
          << "equivalence is vacuous unless paranoid checks actually ran";

      EXPECT_EQ(Normal.Output, Checked.Output);
      EXPECT_EQ(Normal.TotalRefs, Checked.TotalRefs);
      EXPECT_EQ(Normal.MutatorRefs, Checked.MutatorRefs);
      EXPECT_EQ(Normal.AllocBytes, Checked.AllocBytes);
      EXPECT_EQ(Normal.Collections, Checked.Collections);
      EXPECT_EQ(Normal.StaticBytes, Checked.StaticBytes);
      EXPECT_EQ(Normal.Stats.Instructions, Checked.Stats.Instructions);
      EXPECT_EQ(Normal.Stats.ExtraInstructions,
                Checked.Stats.ExtraInstructions);
      EXPECT_EQ(Normal.Stats.DynamicBytes, Checked.Stats.DynamicBytes);
      EXPECT_EQ(Normal.Stats.Gc.Collections, Checked.Stats.Gc.Collections);
      EXPECT_EQ(Normal.Stats.Gc.ObjectsCopied, Checked.Stats.Gc.ObjectsCopied);
      EXPECT_EQ(Normal.Stats.Gc.WordsCopied, Checked.Stats.Gc.WordsCopied);
      EXPECT_EQ(Normal.Stats.Gc.Instructions, Checked.Stats.Gc.Instructions);

      ASSERT_EQ(Normal.Bank->size(), Checked.Bank->size());
      for (size_t I = 0; I != Normal.Bank->size(); ++I) {
        const Cache &N = Normal.Bank->cache(I);
        const Cache &P = Checked.Bank->cache(I);
        std::string Where = N.config().label();
        for (Phase Ph : {Phase::Mutator, Phase::Collector}) {
          const CacheCounters &Nc = N.counters(Ph);
          const CacheCounters &Pc = P.counters(Ph);
          EXPECT_EQ(Nc.Loads, Pc.Loads) << Where;
          EXPECT_EQ(Nc.Stores, Pc.Stores) << Where;
          EXPECT_EQ(Nc.FetchMisses, Pc.FetchMisses) << Where;
          EXPECT_EQ(Nc.NoFetchMisses, Pc.NoFetchMisses) << Where;
          EXPECT_EQ(Nc.Writebacks, Pc.Writebacks) << Where;
          EXPECT_EQ(Nc.WriteThroughs, Pc.WriteThroughs) << Where;
        }
      }
    }
  }
}
