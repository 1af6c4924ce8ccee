//===- test_core.cpp - Experiment-driver integration tests ---------------------===//
//
// End-to-end checks that the core drivers wire the whole stack together
// consistently: cache banks see exactly the references the counter sees,
// control overheads obey the paper's structural relationships, and the
// O_gc accounting is self-consistent between control and collected runs.
//
//===----------------------------------------------------------------------===//

#include "gcache/core/Experiment.h"

#include "gcache/support/Table.h"
#include "gcache/trace/Sinks.h"
#include "gcache/trace/TraceFile.h"

#include <cstdio>

#include <gtest/gtest.h>

using namespace gcache;

namespace {
ExperimentOptions quickOpts(CacheGridKind Grid = CacheGridKind::SizeSweep) {
  ExperimentOptions O;
  O.Scale = 0.05;
  O.Grid = Grid;
  return O;
}
} // namespace

TEST(Experiment, BankSeesEveryReference) {
  ProgramRun Run = runProgram(orbitWorkload(), quickOpts());
  ASSERT_GT(Run.Bank->size(), 0u);
  for (size_t I = 0; I != Run.Bank->size(); ++I)
    EXPECT_EQ(Run.Bank->cache(I).totalCounters().refs(), Run.TotalRefs);
}

TEST(Experiment, NoCollectorMeansMutatorOnly) {
  ProgramRun Run = runProgram(impsWorkload(), quickOpts());
  EXPECT_EQ(Run.TotalRefs, Run.MutatorRefs);
  EXPECT_EQ(Run.Collections, 0u);
}

TEST(Experiment, AllMissesWithinRefs) {
  ProgramRun Run = runProgram(gambitWorkload(), quickOpts());
  for (size_t I = 0; I != Run.Bank->size(); ++I) {
    CacheCounters C = Run.Bank->cache(I).totalCounters();
    EXPECT_LE(C.allMisses(), C.refs());
  }
}

TEST(Experiment, BiggerCacheNeverWorseOnSweep) {
  // Not a theorem for direct-mapped caches, but it holds for these
  // workloads and guards against indexing bugs: fetch misses should not
  // increase when the cache size doubles.
  ProgramRun Run = runProgram(orbitWorkload(), quickOpts());
  uint64_t Prev = UINT64_MAX;
  for (uint32_t Size : paperCacheSizes()) {
    uint64_t Misses =
        Run.Bank->find(Size, 64)->counters(Phase::Mutator).FetchMisses;
    EXPECT_LE(Misses, Prev + Prev / 8) << fmtSize(Size);
    Prev = Misses;
  }
}

TEST(Experiment, OverheadScalesWithPenalty) {
  ProgramRun Run = runProgram(lpWorkload(), quickOpts());
  const Cache *C = Run.Bank->find(64 << 10, 64);
  double Slow = controlOverhead(*C, Run, slowMachine());
  double Fast = controlOverhead(*C, Run, fastMachine());
  // Same miss count; penalties are 11 vs 165 cycles.
  EXPECT_NEAR(Fast / Slow, 165.0 / 11.0, 1e-9);
}

TEST(Experiment, GcAccountingConsistency) {
  ExperimentOptions Ctrl = quickOpts();
  ProgramRun Control = runProgram(nbodyWorkload(), Ctrl);

  ExperimentOptions Gc = Ctrl;
  Gc.Gc = GcKind::Cheney;
  Gc.SemispaceBytes = 512 << 10;
  ProgramRun GcRun = runProgram(nbodyWorkload(), Gc);

  EXPECT_GT(GcRun.Collections, 0u);
  EXPECT_EQ(GcRun.Output, Control.Output) << "GC must not change results";
  EXPECT_GT(GcRun.TotalRefs, GcRun.MutatorRefs) << "collector made refs";

  const Cache *GcC = GcRun.Bank->find(128 << 10, 64);
  const Cache *CtC = Control.Bank->find(128 << 10, 64);
  GcOverheadInputs In = gcInputsFor(*GcC, *CtC, GcRun, slowMachine());
  EXPECT_EQ(In.CollectorFetchMisses,
            GcC->counters(Phase::Collector).FetchMisses);
  EXPECT_GT(In.CollectorInstructions, 0u);
  EXPECT_EQ(In.PenaltyCycles, 11u);
  // The mutator's own reference stream is identical in both runs.
  EXPECT_EQ(GcRun.MutatorRefs, Control.MutatorRefs);
}

TEST(Experiment, OppositePolicyBankHoldsBothPolicies) {
  ExperimentOptions O = quickOpts();
  O.AlsoOppositePolicy = true;
  ProgramRun Run = runProgram(impsWorkload(), O);
  size_t WV = 0, FW = 0;
  for (size_t I = 0; I != Run.Bank->size(); ++I) {
    if (Run.Bank->cache(I).config().WriteMiss ==
        WriteMissPolicy::WriteValidate)
      ++WV;
    else
      ++FW;
  }
  EXPECT_EQ(WV, FW);
  EXPECT_GT(WV, 0u);
}

TEST(Experiment, FetchOnWriteNeverBeatsWriteValidateHere) {
  // For these allocation-heavy programs, fetch-on-write can only add
  // penalty-bearing misses (§5: "write-validate always outperforms").
  ExperimentOptions O = quickOpts();
  O.AlsoOppositePolicy = true;
  ProgramRun Run = runProgram(orbitWorkload(), O);
  for (uint32_t Size : paperCacheSizes()) {
    uint64_t WvMisses = 0, FwMisses = 0;
    for (size_t I = 0; I != Run.Bank->size(); ++I) {
      const Cache &C = Run.Bank->cache(I);
      if (C.config().SizeBytes != Size || C.config().BlockBytes != 64)
        continue;
      if (C.config().WriteMiss == WriteMissPolicy::WriteValidate)
        WvMisses = C.totalCounters().FetchMisses;
      else
        FwMisses = C.totalCounters().FetchMisses;
    }
    EXPECT_LE(WvMisses, FwMisses) << fmtSize(Size);
  }
}

TEST(Experiment, EffectiveSemispaceScalesAndClamps) {
  ExperimentOptions O;
  O.Scale = 1.0;
  EXPECT_EQ(O.effectiveSemispace(), 4u << 20);
  O.Scale = 0.01;
  EXPECT_EQ(O.effectiveSemispace(), 2u << 20) << "clamped at the floor";
  O.SemispaceBytes = 123 << 10;
  EXPECT_EQ(O.effectiveSemispace(), 123u << 10) << "explicit wins";
}

TEST(Experiment, MachinesMatchPaper) {
  EXPECT_EQ(slowMachine().Processor.CycleNs, 30u);
  EXPECT_EQ(fastMachine().Processor.CycleNs, 2u);
  EXPECT_EQ(slowMachine().penaltyCycles(64), 11u);
  EXPECT_EQ(fastMachine().penaltyCycles(64), 165u);
}

TEST(Experiment, RecordedTraceReplaysIdentically) {
  // Record a run to a binary trace file, then replay the file into a
  // fresh cache: counters must match the live-simulated cache exactly.
  // This validates the decoupled (stored-trace) methodology against the
  // execution-driven one.
  std::string Path = std::string(::testing::TempDir()) + "/orbit.gct";
  TraceWriter Writer;
  ASSERT_TRUE(Writer.open(Path).ok());
  Cache Live({.SizeBytes = 32 << 10, .BlockBytes = 64});
  ExperimentOptions O = quickOpts(CacheGridKind::None);
  O.ExtraSinks = {&Writer, &Live};
  ProgramRun Run = runProgram(orbitWorkload(), O);
  ASSERT_TRUE(Writer.close().ok());

  Cache Replayed({.SizeBytes = 32 << 10, .BlockBytes = 64});
  Expected<uint64_t> N = TraceReader::replayEx(Path, Replayed);
  ASSERT_TRUE(N.ok()) << N.status().message();
  ASSERT_GT(*N, 0u);
  EXPECT_EQ(Replayed.totalCounters().refs(), Run.TotalRefs);
  EXPECT_EQ(Replayed.totalCounters().FetchMisses,
            Live.totalCounters().FetchMisses);
  EXPECT_EQ(Replayed.totalCounters().NoFetchMisses,
            Live.totalCounters().NoFetchMisses);
  EXPECT_EQ(Replayed.totalCounters().Writebacks,
            Live.totalCounters().Writebacks);
  std::remove(Path.c_str());
}

TEST(Experiment, LayoutSeedIsDeterministicAndDistinct) {
  auto MissesWithSeed = [](uint64_t Seed) {
    Cache Sim({.SizeBytes = 32 << 10, .BlockBytes = 64});
    ExperimentOptions O = quickOpts(CacheGridKind::None);
    O.LayoutSeed = Seed;
    O.ExtraSinks = {&Sim};
    ProgramRun Run = runProgram(impsWorkload(), O);
    EXPECT_FALSE(Run.Output.empty());
    return Sim.totalCounters().FetchMisses;
  };
  EXPECT_EQ(MissesWithSeed(42), MissesWithSeed(42));
  // Different layouts virtually always differ in miss counts.
  EXPECT_NE(MissesWithSeed(42), MissesWithSeed(43));
}

TEST(Experiment, RuntimeVectorIsHot) {
  // The paper's hot runtime vector: a noticeable fraction of all
  // references (6.7% in T; ours is within a factor of a few).
  CountingSink RtRefs;
  struct RtCounter final : TraceSink {
    uint64_t Count = 0;
    void onRef(const Ref &R) override {
      if (R.Addr >= Heap::StaticBase && R.Addr < Heap::StaticBase + 68)
        ++Count;
    }
  } Counter;
  ExperimentOptions O = quickOpts(CacheGridKind::None);
  O.ExtraSinks = {&Counter};
  ProgramRun Run = runProgram(orbitWorkload(), O);
  double Frac = static_cast<double>(Counter.Count) / Run.TotalRefs;
  EXPECT_GT(Frac, 0.005);
  EXPECT_LT(Frac, 0.15);
}
