//===- Pipeline.cpp - The four measured pipelines and their checks -------===//
//
// Part of the gcache project (Reinhold, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//

#include "PerfBench.h"
#include "Pins.h"

#include "gcache/analysis/BlockTracker.h"
#include "gcache/analysis/LocalMissStats.h"
#include "gcache/analysis/MissPlot.h"
#include "gcache/core/Checkpoint.h"
#include "gcache/trace/Sinks.h"
#include "gcache/trace/TraceFile.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>

using namespace gcache;
using namespace perfbench;

double perfbench::nowSeconds() {
  using namespace std::chrono;
  return duration<double>(steady_clock::now().time_since_epoch()).count();
}

double perfbench::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

void Digest::addDouble(double D) {
  uint64_t Bits;
  std::memcpy(&Bits, &D, sizeof Bits);
  add(Bits);
}

void Digest::addString(const std::string &S) {
  add(S.size());
  for (unsigned char Ch : S)
    add(Ch);
}

void Digest::addCache(const Cache &C) {
  const CacheConfig &Cfg = C.config();
  add(Cfg.SizeBytes);
  add(Cfg.BlockBytes);
  add(Cfg.Ways);
  add(static_cast<uint64_t>(Cfg.WriteMiss));
  for (Phase P : {Phase::Mutator, Phase::Collector}) {
    const CacheCounters &K = C.counters(P);
    for (uint64_t V : {K.Loads, K.Stores, K.FetchMisses, K.NoFetchMisses,
                       K.Writebacks, K.WriteThroughs})
      add(V);
  }
  for (const std::vector<uint64_t> *Vec :
       {&C.perBlockRefs(), &C.perBlockMisses(), &C.perBlockFetchMisses()}) {
    add(Vec->size());
    for (uint64_t V : *Vec)
      add(V);
  }
}

void Digest::addRun(const ProgramRun &Run) {
  addString(Run.Name);
  for (uint64_t V :
       {Run.TotalRefs, Run.MutatorRefs, Run.AllocBytes, Run.Collections,
        Run.Stats.Instructions, Run.Stats.ExtraInstructions,
        Run.Stats.DynamicBytes, Run.Stats.Gc.Collections,
        Run.Stats.Gc.MajorCollections, Run.Stats.Gc.ObjectsCopied,
        Run.Stats.Gc.WordsCopied, Run.Stats.Gc.Instructions})
    add(V);
  add(Run.RuntimeVectorAddr);
  add(Run.StaticBytes);
  addString(Run.Output);
  if (Run.Bank)
    for (size_t I = 0; I != Run.Bank->size(); ++I)
      addCache(Run.Bank->cache(I));
}

/// The workload's ExperimentOptions before per-program sizing.
static ExperimentOptions baseOptions(const BenchConfig &C) {
  ExperimentOptions O;
  O.Scale = C.Scale;
  O.LayoutSeed = C.Seed;
  O.Threads = C.Threads;
  O.Grid = CacheGridKind::None;
  switch (C.Kind) {
  case WorkloadKind::Grid:
    O.Grid = CacheGridKind::PaperGrid;
    break;
  case WorkloadKind::Mutator:
    // The aggressive collector: a nursery the size of the paper's
    // smallest cache, old semispaces sized from the scale.
    O.Gc = GcKind::Generational;
    O.Generational = GenerationalConfig{32u << 10, 0};
    break;
  case WorkloadKind::Section7:
    break;
  case WorkloadKind::Replay:
    O.Gc = GcKind::Cheney;
    break;
  }
  return O;
}

SchemeSystemConfig perfbench::systemConfig(const ExperimentOptions &O,
                                           TraceSink *Bus) {
  SchemeSystemConfig S;
  S.Gc = O.Gc;
  S.SemispaceBytes = O.effectiveSemispace();
  S.Generational = O.Generational;
  if (S.Generational.OldSemispaceBytes == 0)
    S.Generational.OldSemispaceBytes = O.effectiveSemispace();
  S.Bus = Bus;
  S.LayoutSeed = O.LayoutSeed;
  return S;
}

std::vector<const Workload *> perfbench::programsOf(WorkloadKind K) {
  if (K == WorkloadKind::Replay)
    return {&lpWorkload(), &nbodyWorkload()};
  std::vector<const Workload *> Out;
  for (const Workload &W : allWorkloads())
    Out.push_back(&W);
  return Out;
}

/// fig2's semispace sizing: a fifth of the control run's allocation (a
/// tenth for lp), rounded up to 64 KB, at least 512 KB.
static uint32_t semispaceFor(const ProgramRun &Control) {
  uint64_t Divisor = Control.Name == "lp" ? 10 : 5;
  uint64_t Bytes = (Control.AllocBytes / Divisor + 0xffff) & ~0xffffull;
  return static_cast<uint32_t>(std::max<uint64_t>(Bytes, 512u << 10));
}

std::vector<Prepared> perfbench::prepare(const BenchConfig &C) {
  std::vector<Prepared> Out;
  for (const Workload *W : programsOf(C.Kind)) {
    Prepared P;
    P.W = W;
    ExperimentOptions O = baseOptions(C);
    if (C.Kind == WorkloadKind::Replay) {
      ExperimentOptions Control = O;
      Control.Gc = GcKind::None;
      Control.Threads = 0;
      Expected<ProgramRun> Run = tryRunProgram(*W, Control);
      if (!Run.ok())
        throw StatusError(Run.status());
      P.SemispaceBytes = semispaceFor(*Run);
      O.SemispaceBytes = P.SemispaceBytes;
    }
    CountingSink Counts;
    SchemeSystem Sys(systemConfig(O, &Counts));
    Sys.loadDefinitions(W->Definitions);
    Out.push_back(P);
  }
  return Out;
}

ExperimentOptions perfbench::unitOptions(const BenchConfig &C,
                                         const Prepared &P) {
  ExperimentOptions O = baseOptions(C);
  O.SemispaceBytes = P.SemispaceBytes;
  return O;
}

/// Every cache of \p Bank must have seen each of the run's references.
static std::string checkBank(CacheBank &Bank, uint64_t Refs) {
  if (Status S = Bank.auditAll(); !S.ok())
    return S.message();
  for (size_t I = 0; I != Bank.size(); ++I)
    if (Bank.cache(I).totalCounters().refs() != Refs)
      return "cache " + Bank.cache(I).config().label() + " saw " +
             std::to_string(Bank.cache(I).totalCounters().refs()) +
             " references of " + std::to_string(Refs);
  return "";
}

static std::string runError(const Expected<ProgramRun> &Run) {
  if (!Run.ok())
    return Run.status().message();
  if (Run->partial())
    return "partial run: " + Run->OutcomeNote;
  return "";
}

static UnitResult liveUnit(const BenchConfig &C, const Prepared &P) {
  UnitResult U;
  U.Program = P.W->Name;
  double T0 = nowSeconds();
  Expected<ProgramRun> Run = tryRunProgram(*P.W, unitOptions(C, P));
  U.Seconds = nowSeconds() - T0;
  if ((U.Error = runError(Run)) != "")
    return U;
  Digest D;
  D.addRun(*Run);
  U.Refs = Run->TotalRefs;
  U.Digest = D.value();
  Digest O;
  O.addString(Run->Output);
  U.OutputDigest = O.value();
  U.Error = checkBank(*Run->Bank, Run->TotalRefs);
  return U;
}

static UnitResult section7Unit(const BenchConfig &C, const Prepared &P) {
  UnitResult U;
  U.Program = P.W->Name;
  CacheConfig PlotConfig;
  PlotConfig.SizeBytes = 64u << 10;
  PlotConfig.BlockBytes = 64;
  CacheConfig BlockConfig = PlotConfig;
  BlockConfig.TrackPerBlockStats = true;

  double T0 = nowSeconds();
  // The hot runtime vector is the VM's first static allocation.
  BlockTracker Tracker(64, 64u << 10, Heap::StaticBase);
  MissPlot Plot(PlotConfig);
  Cache PerBlock(BlockConfig);
  ExperimentOptions O = unitOptions(C, P);
  O.ExtraSinks = {&Tracker, &Plot, &PerBlock};
  Expected<ProgramRun> Run = tryRunProgram(*P.W, O);
  if ((U.Error = runError(Run)) != "")
    return U;
  BlockSummary Summary = Tracker.computeSummary();
  LocalMissCurves Curves = computeLocalMissCurves(PerBlock);
  std::string Pgm = Plot.renderPgm();
  U.Seconds = nowSeconds() - T0;

  Digest D;
  D.addRun(*Run);
  for (uint64_t V :
       {Summary.TotalRefs, Summary.DynamicBlocks, Summary.OneCycleBlocks,
        Summary.MultiCycleBlocks, Summary.MultiCycleActiveLe4,
        Summary.StaticBlocks, Summary.BusyStaticBlocks,
        Summary.BusyDynamicBlocks, Summary.BusyRefs, Summary.RuntimeVectorRefs,
        Summary.StackRefs, uint64_t(Summary.SampleStride)})
    D.add(V);
  for (const Log2Histogram *H : {&Tracker.lifetimeHistogram(),
                                 &Tracker.cycleLengths(),
                                 &Tracker.dynamicRefCounts()})
    for (uint64_t V : H->buckets())
      D.add(V);
  for (const LocalBlockPoint &Pt : Curves.Points) {
    D.add(Pt.BlockIndex);
    D.add(Pt.Refs);
    D.add(Pt.Misses);
    D.addDouble(Pt.LocalMissRatio);
    D.addDouble(Pt.CumMissFraction);
    D.addDouble(Pt.CumRefFraction);
    D.addDouble(Pt.CumMissRatio);
  }
  D.addDouble(Curves.GlobalMissRatio);
  D.addDouble(Curves.PeakCumMissRatio);
  D.addCache(Plot.cache());
  D.add(Plot.columns());
  D.addDouble(Plot.fillFraction());
  D.addString(Pgm);
  D.addCache(PerBlock);
  U.Refs = Run->TotalRefs;
  U.Digest = D.value();
  Digest Out;
  Out.addString(Run->Output);
  U.OutputDigest = Out.value();
  if (Summary.TotalRefs != Run->TotalRefs ||
      PerBlock.totalCounters().refs() != Run->TotalRefs ||
      Plot.refsSeen() != Run->TotalRefs)
    U.Error = "an analysis sink missed references";
  else if (Summary.Degraded || Plot.degraded())
    U.Error = "an analysis sink degraded";
  return U;
}

/// The replay bank: every paper size at 64 B blocks, both write-miss
/// policies, with per-block statistics.
void perfbench::addReplayCaches(CacheBank &Bank) {
  CacheConfig Proto;
  Proto.TrackPerBlockStats = true;
  Bank.addSizeSweep(Proto, 64);
  Proto.WriteMiss = WriteMissPolicy::FetchOnWrite;
  Bank.addSizeSweep(Proto, 64);
}

ReplayCheckpointOptions perfbench::replayCuts(const BenchConfig &C) {
  ReplayCheckpointOptions RO;
  RO.SnapshotPath = C.WorkDir + "/replay-ckpt";
  RO.EveryRefs = ReplayCutEvery;
  return RO;
}

static UnitResult replayUnit(const BenchConfig &C, const Prepared &P) {
  UnitResult U;
  U.Program = P.W->Name;
  std::string TracePath = C.WorkDir + "/" + P.W->Name + ".gct";

  double T0 = nowSeconds();
  TraceWriter Writer;
  if (Status S = Writer.open(TracePath); !S.ok()) {
    U.Error = S.message();
    return U;
  }
  ExperimentOptions O = unitOptions(C, P);
  O.ExtraSinks = {&Writer};
  Expected<ProgramRun> Run = tryRunProgram(*P.W, O);
  Status Closed = Writer.close();
  if ((U.Error = runError(Run)) != "")
    return U;
  if (!Closed.ok()) {
    U.Error = Closed.message();
    return U;
  }
  CacheBank Bank;
  addReplayCaches(Bank);
  Bank.setThreads(C.Threads);
  CountingSink Counts;
  Expected<ReplayCheckpointResult> R =
      replayTraceCheckpointed(TracePath, Bank, Counts, replayCuts(C));
  U.Seconds = nowSeconds() - T0;
  removeReplayFiles(C, TracePath);
  if (!R.ok()) {
    U.Error = R.status().message();
    return U;
  }

  Digest D;
  D.addRun(*Run);
  for (Phase Ph : {Phase::Mutator, Phase::Collector}) {
    D.add(Counts.loads(Ph));
    D.add(Counts.stores(Ph));
  }
  D.add(Counts.allocatedBytes());
  D.add(Counts.collections());
  for (size_t I = 0; I != Bank.size(); ++I)
    D.addCache(Bank.cache(I));
  U.Refs = Run->TotalRefs;
  U.Digest = D.value();
  Digest Out;
  Out.addString(Run->Output);
  U.OutputDigest = Out.value();
  if (Counts.totalRefs() != Run->TotalRefs ||
      Counts.collections() != Run->Collections)
    U.Error = "replay disagrees with the live run";
  else
    U.Error = checkBank(Bank, Run->TotalRefs);
  return U;
}

void perfbench::removeReplayFiles(const BenchConfig &C,
                                  const std::string &TracePath) {
  std::string Slot = replayCuts(C).SnapshotPath;
  for (const std::string &F : {TracePath, Slot, Slot + ".a", Slot + ".b"})
    std::remove(F.c_str());
}

UnitResult perfbench::runUnit(const BenchConfig &C, const Prepared &P) {
  switch (C.Kind) {
  case WorkloadKind::Grid:
  case WorkloadKind::Mutator:
    return liveUnit(C, P);
  case WorkloadKind::Section7:
    return section7Unit(C, P);
  case WorkloadKind::Replay:
    return replayUnit(C, P);
  }
  return {};
}

std::string Checker::check(const UnitResult &U) {
  if (!U.Error.empty())
    return U.Error;
  for (const OutputPin &Pin : OutputPins)
    if (Pin.Scale == Config.Scale && U.Program == Pin.Program &&
        U.OutputDigest != Pin.Digest)
      return "checksum output differs from the pinned output";
  if (Config.Seed == 0)
    for (const DigestPin &Pin : DigestPins)
      if (Pin.Scale == Config.Scale && Config.Name == Pin.Workload &&
          U.Program == Pin.Program) {
        ++PinnedChecks;
        if (U.Digest != Pin.Digest)
          return "counter digest differs from the pinned digest";
      }
  auto [It, Fresh] = FirstDigest.emplace(U.Program, U.Digest);
  if (!Fresh && It->second != U.Digest)
    return "counter digest changed between iterations";
  return "";
}
