//===- test_budget.cpp - Resource governance tests ------------------------===//
//
// The correctness harness for the budget layer (support/Budget.h and
// friends): flag parsing with env fallback, the cancel-token discipline,
// watchdog, memory and signal trips, and — the headline guarantee — that
// a replay drained mid-flight by a deadline, signal, or injected watchdog
// trip leaves an auditable checkpoint from which a resume finishes
// bit-identical to an uninterrupted run, serially and threaded.
//
//===----------------------------------------------------------------------===//

#include "../bench/BenchCommon.h"

#include "gcache/core/Checkpoint.h"
#include "gcache/memsys/CacheBank.h"
#include "gcache/support/Budget.h"
#include "gcache/support/FaultInjector.h"
#include "gcache/support/Options.h"
#include "gcache/support/SignalGuard.h"
#include "gcache/support/Watchdog.h"
#include "gcache/trace/Sinks.h"
#include "gcache/trace/TraceFile.h"

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace gcache;

namespace {

/// Every test in this binary touches process-wide governance state; this
/// guard restores a clean slate on entry and exit.
struct GovernanceReset {
  GovernanceReset() { resetAll(); }
  ~GovernanceReset() { resetAll(); }
  static void resetAll() {
    processBudget().setMemoryProbe(nullptr);
    processBudget().reset(); // also re-arms the cancel token
    faultInjector().disarm();
    SignalGuard::uninstall();
  }
};

Options optionsFrom(std::vector<const char *> Flags) {
  std::vector<const char *> Argv = {"bench"};
  Argv.insert(Argv.end(), Flags.begin(), Flags.end());
  return Options::parse(static_cast<int>(Argv.size()),
                        const_cast<char **>(Argv.data()));
}

std::string readWholeFile(const std::string &Path) {
  FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return std::string();
  std::string Data;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Data.append(Buf, N);
  std::fclose(F);
  return Data;
}

/// Records one small collected nbody run once, shared by the drain tests.
const std::string &recordedTracePath() {
  static const std::string Path = [] {
    std::string P = std::string(::testing::TempDir()) + "/budget_nbody.gct";
    TraceWriter W;
    EXPECT_TRUE(W.open(P).ok());
    ExperimentOptions O;
    O.Scale = 0.05;
    O.Gc = GcKind::Cheney;
    O.SemispaceBytes = 512 << 10;
    O.Grid = CacheGridKind::None;
    O.ExtraSinks = {&W};
    ProgramRun Run = runProgram(nbodyWorkload(), O);
    EXPECT_GT(Run.Collections, 0u) << "trace must contain GC phases";
    EXPECT_TRUE(W.close().ok());
    return P;
  }();
  return Path;
}

void addSmallBank(CacheBank &Bank) {
  CacheConfig A;
  A.SizeBytes = 16 << 10;
  A.BlockBytes = 32;
  A.TrackPerBlockStats = true;
  Bank.addConfig(A);
  CacheConfig B; // defaults: 64K / 64B
  Bank.addConfig(B);
}

void expectCountersEqual(const CacheCounters &S, const CacheCounters &P,
                         const std::string &Where) {
  EXPECT_EQ(S.Loads, P.Loads) << Where;
  EXPECT_EQ(S.Stores, P.Stores) << Where;
  EXPECT_EQ(S.FetchMisses, P.FetchMisses) << Where;
  EXPECT_EQ(S.NoFetchMisses, P.NoFetchMisses) << Where;
  EXPECT_EQ(S.Writebacks, P.Writebacks) << Where;
  EXPECT_EQ(S.WriteThroughs, P.WriteThroughs) << Where;
}

void expectBanksEqual(const CacheBank &Want, const CacheBank &Got) {
  ASSERT_EQ(Want.size(), Got.size());
  for (size_t I = 0; I != Want.size(); ++I) {
    const Cache &S = Want.cache(I);
    const Cache &P = Got.cache(I);
    std::string Where = S.config().label();
    expectCountersEqual(S.counters(Phase::Mutator), P.counters(Phase::Mutator),
                        Where + " (mutator)");
    expectCountersEqual(S.counters(Phase::Collector),
                        P.counters(Phase::Collector), Where + " (collector)");
    EXPECT_EQ(S.perBlockRefs(), P.perBlockRefs()) << Where;
    EXPECT_EQ(S.perBlockMisses(), P.perBlockMisses()) << Where;
  }
}

void expectSinksEqual(const CountingSink &Want, const CountingSink &Got) {
  EXPECT_EQ(Want.totalRefs(), Got.totalRefs());
  EXPECT_EQ(Want.mutatorRefs(), Got.mutatorRefs());
  EXPECT_EQ(Want.allocatedBytes(), Got.allocatedBytes());
  EXPECT_EQ(Want.collections(), Got.collections());
}

/// Runs the uninterrupted reference replay once.
void cleanReplay(CacheBank &Bank, CountingSink &Counts) {
  addSmallBank(Bank);
  Expected<ReplayCheckpointResult> R =
      replayTraceCheckpointed(recordedTracePath(), Bank, Counts, {});
  ASSERT_TRUE(R.ok()) << R.status().message();
  ASSERT_GT(R->RecordsReplayed, 0u);
}

/// Resumes the drained replay in fresh objects and checks the final state
/// against the clean run.
void resumeAndCompare(const std::string &Snap, unsigned Threads,
                      const CacheBank &CleanBank,
                      const CountingSink &CleanCounts) {
  cancelToken().reset();
  CacheBank Bank;
  addSmallBank(Bank);
  if (Threads)
    Bank.setThreads(Threads, /*BatchRefs=*/1024);
  CountingSink Counts;
  ReplayCheckpointOptions Opts;
  Opts.SnapshotPath = Snap;
  Opts.EveryRefs = 50000;
  Opts.Resume = true;
  Opts.Audit = true;
  Expected<ReplayCheckpointResult> R =
      replayTraceCheckpointed(recordedTracePath(), Bank, Counts, Opts);
  ASSERT_TRUE(R.ok()) << R.status().message();
  EXPECT_FALSE(R->partial());
  EXPECT_TRUE(R->Resumed);
  EXPECT_DOUBLE_EQ(R->Coverage, 1.0);
  expectBanksEqual(CleanBank, Bank);
  expectSinksEqual(CleanCounts, Counts);
}

std::string freshDir(const char *Name) {
  std::string Dir = std::string(::testing::TempDir()) + "/" + Name;
  mkdir(Dir.c_str(), 0755);
  return Dir;
}

} // namespace

//===----------------------------------------------------------------------===//
// Token, names, and flag parsing
//===----------------------------------------------------------------------===//

TEST(CancelToken, FirstReasonWinsAndResets) {
  GovernanceReset Guard;
  CancelToken T;
  EXPECT_FALSE(T.requested());
  EXPECT_TRUE(T.request(CancelReason::Deadline));
  EXPECT_FALSE(T.request(CancelReason::Signal)) << "second trip must lose";
  EXPECT_EQ(T.reason(), CancelReason::Deadline);
  T.reset();
  EXPECT_FALSE(T.requested());
  EXPECT_TRUE(T.request(CancelReason::Signal));
  EXPECT_EQ(T.reason(), CancelReason::Signal);
}

TEST(Outcomes, NamesRoundTripAndUnknownIsFailed) {
  EXPECT_STREQ(unitOutcomeName(UnitOutcome::Ok), "ok");
  EXPECT_STREQ(unitOutcomeName(UnitOutcome::PartialDeadline),
               "partial-deadline");
  EXPECT_STREQ(unitOutcomeName(UnitOutcome::PartialMem), "partial-mem");

  EXPECT_EQ(outcomeForReason(CancelReason::Deadline),
            UnitOutcome::PartialDeadline);
  EXPECT_EQ(outcomeForReason(CancelReason::RefBudget),
            UnitOutcome::PartialDeadline);
  EXPECT_EQ(outcomeForReason(CancelReason::Signal),
            UnitOutcome::PartialDeadline);
  EXPECT_EQ(outcomeForReason(CancelReason::MemBudget), UnitOutcome::PartialMem);
  EXPECT_EQ(outcomeForReason(CancelReason::None), UnitOutcome::Ok);
}

TEST(BudgetFlags, ParseByteSizeAcceptsSuffixesRejectsGarbage) {
  EXPECT_EQ(*parseByteSize("512", "x"), 512u);
  EXPECT_EQ(*parseByteSize("64k", "x"), 64u << 10);
  EXPECT_EQ(*parseByteSize("3M", "x"), 3ull << 20);
  EXPECT_EQ(*parseByteSize("2g", "x"), 2ull << 30);
  for (const char *Bad : {"", "k", "0", "0k", "-5", "12q", "abc",
                          "99999999999999999999", "20000000000g"}) {
    Expected<uint64_t> V = parseByteSize(Bad, "mem-budget");
    ASSERT_FALSE(V.ok()) << Bad;
    EXPECT_EQ(V.status().code(), StatusCode::InvalidArgument) << Bad;
    EXPECT_NE(V.status().message().find("mem-budget"), std::string::npos)
        << "diagnostic must name the flag";
  }
}

TEST(BudgetFlags, ParsesAllThreeFlags) {
  Options O = optionsFrom({"--deadline=0.25", "--max-refs=2m",
                           "--mem-budget=64k"});
  Expected<BudgetSpec> S = parseBudgetFlags(O);
  ASSERT_TRUE(S.ok()) << S.status().message();
  EXPECT_DOUBLE_EQ(S->DeadlineSec, 0.25);
  EXPECT_EQ(S->MaxRefs, 2ull << 20);
  EXPECT_EQ(S->MemBudgetBytes, 64u << 10);
  EXPECT_TRUE(S->any());

  EXPECT_FALSE(parseBudgetFlags(optionsFrom({})).take().any());
}

TEST(BudgetFlags, RejectsNonPositiveAndMalformed) {
  for (std::vector<const char *> Bad :
       {std::vector<const char *>{"--deadline=0"},
        std::vector<const char *>{"--deadline=-1"},
        std::vector<const char *>{"--deadline=abc"},
        std::vector<const char *>{"--max-refs=0"},
        std::vector<const char *>{"--max-refs=1x"},
        std::vector<const char *>{"--mem-budget=-64k"}}) {
    Expected<BudgetSpec> S = parseBudgetFlags(optionsFrom(Bad));
    ASSERT_FALSE(S.ok()) << Bad[0];
    EXPECT_EQ(S.status().code(), StatusCode::InvalidArgument) << Bad[0];
  }
}

TEST(BudgetFlags, EnvFallbackAndFlagPrecedence) {
  setenv("GCACHE_DEADLINE", "2.5", 1);
  setenv("GCACHE_MAX_REFS", "4k", 1);
  Expected<BudgetSpec> FromEnv = parseBudgetFlags(optionsFrom({}));
  ASSERT_TRUE(FromEnv.ok()) << FromEnv.status().message();
  EXPECT_DOUBLE_EQ(FromEnv->DeadlineSec, 2.5);
  EXPECT_EQ(FromEnv->MaxRefs, 4096u);

  // An explicit flag beats the environment.
  Expected<BudgetSpec> FromFlag =
      parseBudgetFlags(optionsFrom({"--deadline=1.5"}));
  ASSERT_TRUE(FromFlag.ok());
  EXPECT_DOUBLE_EQ(FromFlag->DeadlineSec, 1.5);

  // A malformed env value is a hard error, same as a malformed flag.
  setenv("GCACHE_MAX_REFS", "0", 1);
  Expected<BudgetSpec> BadEnv = parseBudgetFlags(optionsFrom({}));
  ASSERT_FALSE(BadEnv.ok());
  EXPECT_EQ(BadEnv.status().code(), StatusCode::InvalidArgument);

  unsetenv("GCACHE_DEADLINE");
  unsetenv("GCACHE_MAX_REFS");
}

namespace {

/// Parses \p Flags as a bench binary's command line.
BenchArgs parseFlags(std::vector<const char *> Flags) {
  Flags.insert(Flags.begin(), "bench");
  return parseBenchArgs(static_cast<int>(Flags.size()),
                        const_cast<char **>(Flags.data()));
}

} // namespace

TEST(BudgetFlagsDeath, BenchBinariesExitTwoOnBadBudgetFlags) {
  GovernanceReset Guard;
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(parseFlags({"--deadline=-1"}), testing::ExitedWithCode(2),
              "deadline");
  EXPECT_EXIT(parseFlags({"--max-refs=0"}), testing::ExitedWithCode(2),
              "max-refs");
  EXPECT_EXIT(parseFlags({"--mem-budget=abc"}), testing::ExitedWithCode(2),
              "mem-budget");
}

// A bare valued flag would parse as "1" — a one-reference batch, one
// worker, scale 1, a one-reference or one-byte budget, a one-second
// deadline, a workload named "1" — so it exits 2 naming the flag. A bare
// --crosscheck is a boolean switched on.
// The checkpoint, resume and supervision flags and --on-budget are not
// shared flags at all: each is an unknown flag (trace_inspect declares
// the checkpoint ones itself).
TEST(BudgetFlagsDeath, BenchBinariesExitTwoOnBareValuedFlags) {
  GovernanceReset Guard;
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(parseFlags({"--batch"}), testing::ExitedWithCode(2),
              "--batch");
  EXPECT_EXIT(parseFlags({"--threads", "--csv"}), testing::ExitedWithCode(2),
              "--threads");
  EXPECT_EXIT(parseFlags({"--scale"}), testing::ExitedWithCode(2), "--scale");
  for (const char *Flag : {"--max-refs", "--mem-budget", "--deadline",
                           "--workload", "--fault"}) {
    std::string Want = std::string(Flag) + " needs a value";
    EXPECT_EXIT(parseFlags({Flag, "--csv"}), testing::ExitedWithCode(2), Want)
        << Flag;
  }
  for (std::string Flag :
       {"--checkpoint-dir=d", "--checkpoint-every=5", "--resume",
        "--supervise", "--retries=1", "--timeout=1", "--grace=1",
        "--on-budget=stop"}) {
    std::string Want = "unknown flag " + Flag.substr(0, Flag.find('='));
    EXPECT_EXIT(parseFlags({Flag.c_str()}), testing::ExitedWithCode(2), Want)
        << Flag;
  }
  EXPECT_EXIT(
      {
        parseFlags({"--crosscheck", "--batch=1"});
        std::exit(0);
      },
      testing::ExitedWithCode(0), "");
}

// A GCACHE_<FLAG> variable stands in for --<flag>, so one that stands for
// no flag is as wrong as an unknown flag: the retired GCACHE_ON_BUDGET and
// a misspelt GCACHE_SCAL exit 2 naming the variable, while GCACHE_SCALE
// is still read as --scale.
TEST(BudgetFlagsDeath, BenchBinariesExitTwoOnUnknownEnvVariables) {
  GovernanceReset Guard;
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const char *Var : {"GCACHE_ON_BUDGET", "GCACHE_SCAL"}) {
    std::string Want = std::string("unknown environment variable ") + Var;
    EXPECT_EXIT(
        {
          setenv(Var, "stop", 1);
          parseFlags({"--scale=0.02"});
        },
        testing::ExitedWithCode(2), Want)
        << Var;
  }
  EXPECT_EXIT(
      {
        setenv("GCACHE_SCALE", "0.02", 1);
        const char *Argv[] = {"bench"};
        BenchArgs A = parseBenchArgs(1, const_cast<char **>(Argv));
        std::exit(A.Scale == 0.02 ? 0 : 1);
      },
      testing::ExitedWithCode(0), "");
}

// A value that would parse into a silent nonsense run exits 2 naming its
// flag: a workload that is none of the five programs (an empty table), a
// scale that is not a positive finite number (a table at scale -1), a
// boolean other than bare, 1/true or 0/false (--csv=maybe read as true,
// --crosscheck=1024 read as a sampling rate the flag does not take), and an
// empty value.
TEST(BudgetFlagsDeath, BenchBinariesExitTwoOnNonsenseValues) {
  GovernanceReset Guard;
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(parseFlags({"--workload", "nosuch"}),
              testing::ExitedWithCode(2), "--workload.*nosuch");
  for (const char *Scale : {"-1", "0", "inf", "nan"})
    EXPECT_EXIT(parseFlags({"--scale", Scale}), testing::ExitedWithCode(2),
                "--scale expects a positive finite number")
        << Scale;
  EXPECT_EXIT(parseFlags({"--csv=maybe"}), testing::ExitedWithCode(2),
              "--csv takes no value, 1/true or 0/false, got 'maybe'");
  EXPECT_EXIT(parseFlags({"--audit=yes"}), testing::ExitedWithCode(2),
              "--audit takes no value");
  EXPECT_EXIT(parseFlags({"--crosscheck=1024"}), testing::ExitedWithCode(2),
              "--crosscheck takes no value, 1/true or 0/false, got '1024'");
  EXPECT_EXIT(parseFlags({"--csv="}), testing::ExitedWithCode(2),
              "--csv takes no value");
  // An empty value would read as the flag's absence: the default scale,
  // all five programs.
  for (std::string Flag :
       {"--scale=", "--workload=", "--max-refs=", "--paranoid="})
    EXPECT_EXIT(parseFlags({Flag.c_str()}), testing::ExitedWithCode(2),
                Flag.substr(0, Flag.size() - 1) + " needs a value")
        << Flag;
  EXPECT_EXIT(
      {
        setenv("GCACHE_SCALE", "-0.5", 1);
        parseFlags({});
      },
      testing::ExitedWithCode(2), "--scale");
  EXPECT_EXIT(
      {
        BenchArgs A = parseFlags(
            {"--workload=lp", "--scale=0.02", "--csv=false", "--audit=1"});
        std::exit(A.Workload == "lp" && !A.Csv && A.Audit ? 0 : 1);
      },
      testing::ExitedWithCode(0), "");
}

//===----------------------------------------------------------------------===//
// Poll sites, watchdog, and memory budgets
//===----------------------------------------------------------------------===//

TEST(Poll, ThrowsCancelledNamingReasonAndSite) {
  GovernanceReset Guard;
  EXPECT_NO_THROW(pollCancellation("unit-test"));
  cancelToken().request(CancelReason::Signal);
  try {
    pollCancellation("unit-test");
    FAIL() << "tripped token must throw";
  } catch (const StatusError &E) {
    EXPECT_EQ(E.status().code(), StatusCode::Cancelled);
    EXPECT_NE(E.status().message().find("signal"), std::string::npos);
    EXPECT_NE(E.status().message().find("unit-test"), std::string::npos);
  }
}

TEST(Poll, RefBudgetTripsOnceConsumed) {
  GovernanceReset Guard;
  BudgetSpec Spec;
  Spec.MaxRefs = 100;
  processBudget().configure(Spec);
  EXPECT_NO_THROW(pollCancellation("refs"));
  processBudget().noteRefs(100);
  EXPECT_THROW(pollCancellation("refs"), StatusError);
  EXPECT_EQ(cancelToken().reason(), CancelReason::RefBudget);
}

TEST(Watchdog, TripsDeadlineFromMonitorThread) {
  GovernanceReset Guard;
  BudgetSpec Spec;
  Spec.DeadlineSec = 0.05;
  processBudget().configure(Spec);
  Watchdog W(/*PeriodMs=*/5);
  W.start();
  W.start(); // idempotent
  EXPECT_TRUE(W.running());
  auto Give = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!cancelToken().requested() && std::chrono::steady_clock::now() < Give)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(cancelToken().requested()) << "watchdog never tripped";
  EXPECT_EQ(cancelToken().reason(), CancelReason::Deadline);
  EXPECT_GT(W.ticks(), 0u);
  W.stop();
  W.stop(); // idempotent
  EXPECT_FALSE(W.running());
}

TEST(MemoryBudget, BreachDrainsAsPartialMem) {
  GovernanceReset Guard;
  BudgetSpec Spec;
  Spec.MemBudgetBytes = 1000;
  processBudget().configure(Spec);
  uint64_t Resident = 999;
  processBudget().setMemoryProbe([&Resident] { return Resident; });

  processBudget().checkMemory();
  EXPECT_FALSE(cancelToken().requested());
  EXPECT_NO_THROW(pollCancellation("mem"));

  // Reaching the budget trips the token with the memory reason.
  Resident = 1000;
  processBudget().checkMemory();
  EXPECT_TRUE(cancelToken().requested());
  EXPECT_EQ(cancelToken().reason(), CancelReason::MemBudget);
  EXPECT_EQ(outcomeForReason(cancelToken().reason()), UnitOutcome::PartialMem);
  EXPECT_THROW(pollCancellation("mem"), StatusError);
}

//===----------------------------------------------------------------------===//
// Drain-and-resume equivalence
//===----------------------------------------------------------------------===//

namespace {

/// Drains a checkpointed replay via the watchdog-trip fault site at its
/// Nth poll, audits the drained state, then resumes in fresh objects and
/// checks bit-identity with the clean run.
void drainAtPollAndResume(uint64_t Nth, unsigned Threads,
                          const CacheBank &CleanBank,
                          const CountingSink &CleanCounts) {
  SCOPED_TRACE("watchdog-trip at poll " + std::to_string(Nth) +
               (Threads ? ", threads=" + std::to_string(Threads) : ""));
  std::string Snap = std::string(::testing::TempDir()) + "/budget_drain.snap";
  std::remove(Snap.c_str());
  faultInjector().arm({FaultSite::WatchdogTrip, Nth, 0});
  cancelToken().reset();

  ReplayCheckpointOptions Opts;
  Opts.SnapshotPath = Snap;
  Opts.EveryRefs = 50000;
  Opts.Audit = true;
  {
    CacheBank Bank;
    addSmallBank(Bank);
    if (Threads)
      Bank.setThreads(Threads, /*BatchRefs=*/1024);
    CountingSink Counts;
    Expected<ReplayCheckpointResult> R =
        replayTraceCheckpointed(recordedTracePath(), Bank, Counts, Opts);
    ASSERT_TRUE(R.ok()) << R.status().message();
    ASSERT_TRUE(R->partial());
    EXPECT_EQ(R->Outcome, UnitOutcome::PartialDeadline);
    EXPECT_NE(R->OutcomeNote.find("replay"), std::string::npos)
        << "note must name the poll site";
    EXPECT_GE(R->Coverage, 0.0);
    EXPECT_LT(R->Coverage, 1.0);
  }

  // The "restarted process": injector disarmed (the snapshot carries the
  // plan and its counters, so the already-fired occurrence never refires).
  faultInjector().disarm();
  resumeAndCompare(Snap, Threads, CleanBank, CleanCounts);
  std::remove(Snap.c_str());
}

} // namespace

// The acceptance guarantee: a deadline-style trip at various poll sites
// drains to an auditable checkpoint, and resuming finishes bit-identical
// to the uninterrupted replay — serially and with shard workers.
TEST(BudgetDrain, DrainedReplayResumesBitIdentical) {
  GovernanceReset Guard;
  CacheBank CleanBank;
  CountingSink CleanCounts;
  cleanReplay(CleanBank, CleanCounts);

  for (uint64_t Nth : {uint64_t(1), uint64_t(2), uint64_t(7), uint64_t(23)})
    drainAtPollAndResume(Nth, /*Threads=*/0, CleanBank, CleanCounts);
  for (uint64_t Nth : {uint64_t(2), uint64_t(11)})
    drainAtPollAndResume(Nth, /*Threads=*/4, CleanBank, CleanCounts);
}

// A real SIGTERM (through the installed handler) requests the same drain:
// partial result attributed to the signal, resumable to bit-identity.
TEST(BudgetDrain, SigtermDrainsAndResumesBitIdentical) {
  GovernanceReset Guard;
  CacheBank CleanBank;
  CountingSink CleanCounts;
  cleanReplay(CleanBank, CleanCounts);

  std::string Snap = std::string(::testing::TempDir()) + "/sigterm_drain.snap";
  std::remove(Snap.c_str());
  SignalGuard::install();
  ASSERT_EQ(std::raise(SIGTERM), 0);
  EXPECT_EQ(SignalGuard::signalsSeen(), 1u);
  ASSERT_TRUE(cancelToken().requested());
  EXPECT_EQ(cancelToken().reason(), CancelReason::Signal);

  ReplayCheckpointOptions Opts;
  Opts.SnapshotPath = Snap;
  Opts.EveryRefs = 50000;
  Opts.Audit = true;
  {
    CacheBank Bank;
    addSmallBank(Bank);
    CountingSink Counts;
    Expected<ReplayCheckpointResult> R =
        replayTraceCheckpointed(recordedTracePath(), Bank, Counts, Opts);
    ASSERT_TRUE(R.ok()) << R.status().message();
    ASSERT_TRUE(R->partial());
    EXPECT_EQ(R->Outcome, UnitOutcome::PartialDeadline);
    EXPECT_NE(R->OutcomeNote.find("signal"), std::string::npos);
  }
  SignalGuard::uninstall();
  resumeAndCompare(Snap, /*Threads=*/0, CleanBank, CleanCounts);
  std::remove(Snap.c_str());
}

// The full experiment path: a reference budget trips mid-run and the
// program run comes back partial (not failed), with coverage below 1.
TEST(BudgetDrain, ExperimentDrainsToPartialProgramRun) {
  GovernanceReset Guard;
  BudgetSpec Spec;
  Spec.MaxRefs = 50000;
  processBudget().configure(Spec);

  ExperimentOptions O;
  O.Scale = 0.05;
  O.Grid = CacheGridKind::None;
  ProgramRun Run = runProgram(nbodyWorkload(), O);
  EXPECT_TRUE(Run.partial());
  EXPECT_EQ(Run.Outcome, UnitOutcome::PartialDeadline);
  EXPECT_FALSE(Run.OutcomeNote.empty());
  EXPECT_LT(Run.Coverage, 1.0);
}

// The budget-probe fault site stands in for a memory breach at its Nth
// poll: the program run drains to a partial-mem result, as a reference
// budget drains to partial-deadline.
TEST(BudgetDrain, BudgetProbeDrainsToPartialMem) {
  GovernanceReset Guard;
  faultInjector().arm({FaultSite::BudgetProbe, 3, 0});

  ExperimentOptions O;
  O.Scale = 0.05;
  O.Grid = CacheGridKind::None;
  ProgramRun Run = runProgram(nbodyWorkload(), O);
  EXPECT_EQ(Run.Outcome, UnitOutcome::PartialMem);
  EXPECT_NE(Run.OutcomeNote.find("mem-budget"), std::string::npos)
      << Run.OutcomeNote;
  EXPECT_LT(Run.Coverage, 1.0);
}

namespace {

/// Runs nbody at scale 0.05 without caches, recording its trace to \p Path.
ProgramRun tracedNbodyRun(const std::string &Path) {
  TraceWriter W;
  EXPECT_TRUE(W.open(Path).ok());
  ExperimentOptions O;
  O.Scale = 0.05;
  O.Grid = CacheGridKind::None;
  O.ExtraSinks = {&W};
  ProgramRun Run = runProgram(nbodyWorkload(), O);
  EXPECT_TRUE(W.close().ok());
  return Run;
}

std::vector<TraceRecord> traceRecords(const std::string &Path) {
  std::vector<TraceRecord> Out;
  TraceStream S;
  EXPECT_TRUE(S.open(Path).ok()) << Path;
  TraceRecord Rec{};
  while (S.next(Rec))
    Out.push_back(Rec);
  return Out;
}

/// Compares the fields valid for the records' kind.
bool sameRecord(const TraceRecord &A, const TraceRecord &B) {
  if (A.Op != B.Op)
    return false;
  switch (A.Op) {
  case TraceRecord::Kind::Ref:
    return A.R.Addr == B.R.Addr && A.R.Kind == B.R.Kind &&
           A.R.ExecPhase == B.R.ExecPhase;
  case TraceRecord::Kind::Alloc:
    return A.AllocAddr == B.AllocAddr && A.AllocBytes == B.AllocBytes;
  case TraceRecord::Kind::GcPhase:
    return A.PhaseMark == B.PhaseMark;
  default:
    return true;
  }
}

} // namespace

// The heap delivers its buffered references before each poll, so the
// reference meter is exact when a --max-refs trip drains the run: every
// reference counted is one the run's sinks received, and the drained trace
// is a record prefix of the full run's.
TEST(BudgetDrain, RefBudgetDrainIsAnExactTracePrefix) {
  GovernanceReset Guard;
  std::string Dir = ::testing::TempDir();
  ProgramRun Clean = tracedNbodyRun(Dir + "/drain_full.gct");
  ASSERT_FALSE(Clean.partial());

  BudgetSpec Spec;
  Spec.MaxRefs = Clean.TotalRefs / 3;
  processBudget().configure(Spec);
  ProgramRun Drained = tracedNbodyRun(Dir + "/drain_part.gct");
  ASSERT_TRUE(Drained.partial());
  EXPECT_EQ(processBudget().refsSeen(), Drained.TotalRefs);
  EXPECT_GE(Drained.TotalRefs, Spec.MaxRefs);
  EXPECT_LT(Drained.TotalRefs, Clean.TotalRefs);

  std::vector<TraceRecord> Full = traceRecords(Dir + "/drain_full.gct");
  std::vector<TraceRecord> Part = traceRecords(Dir + "/drain_part.gct");
  ASSERT_LT(Part.size(), Full.size());
  uint64_t PartRefs = 0;
  for (size_t I = 0; I != Part.size(); ++I) {
    ASSERT_TRUE(sameRecord(Part[I], Full[I])) << "record " << I;
    PartRefs += Part[I].Op == TraceRecord::Kind::Ref;
  }
  EXPECT_EQ(PartRefs, Drained.TotalRefs);
}

// A reference budget trips at the first poll whose count reaches it. Set
// to exactly the references a run drained by an injected trip at its Nth
// poll, the budget drains the run at that same poll, with the same count;
// a meter that lagged the heap's buffer would read short there and trip a
// poll later.
TEST(BudgetDrain, RefBudgetTripsAtTheFirstPollThatReachesIt) {
  ExperimentOptions O;
  O.Scale = 0.05;
  O.Grid = CacheGridKind::None;
  for (uint64_t Nth : {2, 3, 5}) {
    GovernanceReset Guard;
    faultInjector().arm({FaultSite::WatchdogTrip, Nth, 0});
    ProgramRun AtPoll = runProgram(nbodyWorkload(), O);
    ASSERT_TRUE(AtPoll.partial()) << Nth;
    faultInjector().disarm();

    BudgetSpec Spec;
    Spec.MaxRefs = AtPoll.TotalRefs;
    processBudget().configure(Spec);
    ProgramRun ByBudget = runProgram(nbodyWorkload(), O);
    ASSERT_TRUE(ByBudget.partial()) << Nth;
    EXPECT_EQ(ByBudget.TotalRefs, AtPoll.TotalRefs) << "poll " << Nth;
    EXPECT_EQ(processBudget().refsSeen(), ByBudget.TotalRefs) << Nth;
  }
}

// The interpreter polls after every 16,384th bytecode, apply's primitive op
// counting when the call it made returns. A trip injected at the Nth poll
// of a program that runs mostly inside apply drains it at fixed
// references: a poll that moved against the reference stream would move
// where --max-refs trips.
TEST(BudgetDrain, PollsInsideApplyFallAtFixedReferences) {
  const char *Src = "(define (sum . xs)"
                    "  (if (null? xs) 0 (+ (car xs) (apply sum (cdr xs)))))"
                    "(define (loop i acc)"
                    "  (if (= i 0) acc"
                    "      (loop (- i 1) (+ acc (apply sum (list i 1 2 3))))))"
                    "(loop 2000 0)";
  struct Trip {
    uint64_t Nth, Refs, Instructions;
    const char *Where;
  };
  for (const Trip &T : {Trip{1, 71882, 74718, "vm-step"},
                        Trip{4, 288565, 299029, "vm-step"},
                        Trip{9, 367483, 379534, "gc-step"}}) {
    GovernanceReset Guard;
    CountingSink Counts;
    TraceBus Bus;
    Bus.addSink(&Counts);
    SchemeSystemConfig C;
    C.Gc = GcKind::Cheney;
    C.SemispaceBytes = 192 * 1024;
    C.Bus = &Bus;
    SchemeSystem S(C);
    faultInjector().arm({FaultSite::WatchdogTrip, T.Nth, 0});
    Status St;
    try {
      S.run(Src);
    } catch (const StatusError &E) {
      St = E.status();
    }
    EXPECT_EQ(St.code(), StatusCode::Cancelled) << T.Nth;
    EXPECT_NE(St.message().find(T.Where), std::string::npos) << St.message();
    EXPECT_EQ(Counts.totalRefs(), T.Refs) << "poll " << T.Nth;
    EXPECT_EQ(S.vm().instructions(), T.Instructions) << "poll " << T.Nth;
  }
}

//===----------------------------------------------------------------------===//
// Checkpoint directory hygiene
//===----------------------------------------------------------------------===//

TEST(BudgetSupervisor, SweepsStaleTmpFilesOnStartup) {
  GovernanceReset Guard;
  std::string Dir = freshDir("budget_tmp_sweep");
  auto Touch = [&](const char *Name) {
    FILE *F = std::fopen((Dir + "/" + Name).c_str(), "wb");
    ASSERT_NE(F, nullptr);
    std::fputs("torn", F);
    std::fclose(F);
  };
  Touch("unit_a.snap.tmp");
  Touch("unit_b.snap");
  Touch("other.tmp");
  EXPECT_EQ(sweepStaleTmpFiles(Dir), 2u);
  EXPECT_TRUE(readWholeFile(Dir + "/unit_a.snap.tmp").empty());
  EXPECT_TRUE(readWholeFile(Dir + "/other.tmp").empty());
  EXPECT_EQ(readWholeFile(Dir + "/unit_b.snap"), "torn");
  EXPECT_EQ(sweepStaleTmpFiles(Dir), 0u) << "second sweep finds nothing";
}

//===----------------------------------------------------------------------===//
// BENCH_*.json history files
//===----------------------------------------------------------------------===//

// A history file is a JSON array: a missing file starts one, each call
// appends an entry, and a file that is not an array is refused and left
// as it was.
TEST(BenchJson, AppendsToArrayAndRefusesOtherFiles) {
  std::string Path = std::string(::testing::TempDir()) + "/bench_hist.json";
  std::remove(Path.c_str());
  ASSERT_TRUE(appendBenchJson(Path, "{\"run\": 1}"));
  ASSERT_TRUE(appendBenchJson(Path, "{\"run\": 2}"));
  EXPECT_EQ(readWholeFile(Path), "[\n{\"run\": 1},\n{\"run\": 2}\n]\n");

  for (std::string Other : {"{\"run\": 0}\n", "[{\"run\": 0}] trailing\n"}) {
    FILE *F = std::fopen(Path.c_str(), "wb");
    ASSERT_NE(F, nullptr);
    std::fputs(Other.c_str(), F);
    std::fclose(F);
    EXPECT_FALSE(appendBenchJson(Path, "{\"run\": 3}")) << Other;
    EXPECT_EQ(readWholeFile(Path), Other);
  }
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Signal storms: the second-signal escalation contract. The first SIGTERM
// requests a drain; the second restores the default disposition and
// re-raises — immediate termination for an operator who stopped waiting.
// Both run in a forked child so the death is observed, not simulated.
//===----------------------------------------------------------------------===//

TEST(SignalStorm, SecondSigtermRestoresDefaultAndKills) {
  GovernanceReset Guard;
  pid_t P = fork();
  ASSERT_GE(P, 0);
  if (P == 0) {
    SignalGuard::install();
    std::raise(SIGTERM); // first: handled, trips the cancel token
    if (!cancelToken().requested())
      _exit(1);
    std::raise(SIGTERM); // second: default disposition re-raised
    _exit(0);            // must never be reached
  }
  int St = 0;
  ASSERT_EQ(waitpid(P, &St, 0), P);
  ASSERT_TRUE(WIFSIGNALED(St))
      << "second SIGTERM must terminate the process, but it exited "
      << (WIFEXITED(St) ? WEXITSTATUS(St) : -1);
  EXPECT_EQ(WTERMSIG(St), SIGTERM);
}

TEST(SignalStorm, SecondSigtermDuringDrainWithWorkersInFlight) {
  GovernanceReset Guard;
  // A signal storm lands while a drain is in progress and forked children
  // are still alive. The second signal must still kill promptly — the
  // drain must not swallow it. The child leads its own process group, and
  // this process becomes the subreaper of the grandchildren it orphans, so
  // the test kills and reaps them all before it returns.
  ASSERT_EQ(prctl(PR_SET_CHILD_SUBREAPER, 1), 0);
  pid_t P = fork();
  ASSERT_GE(P, 0);
  if (P == 0) {
    setpgid(0, 0);
    SignalGuard::install();
    for (int I = 0; I != 2; ++I) {
      pid_t Worker = fork();
      if (Worker < 0)
        _exit(1);
      if (Worker == 0)
        for (;;)
          pause();
    }
    std::raise(SIGTERM); // operator requests a drain
    if (!cancelToken().requested())
      _exit(1);
    std::raise(SIGTERM); // operator stops waiting, workers in flight
    _exit(0);            // must never be reached
  }
  setpgid(P, P); // Whichever side runs first creates the group.
  int St = 0;
  pid_t Reaped = waitpid(P, &St, 0);
  kill(-P, SIGKILL);
  while (waitpid(-P, nullptr, 0) > 0) {
  }
  prctl(PR_SET_CHILD_SUBREAPER, 0);
  ASSERT_EQ(Reaped, P);
  ASSERT_TRUE(WIFSIGNALED(St));
  EXPECT_EQ(WTERMSIG(St), SIGTERM);
}
