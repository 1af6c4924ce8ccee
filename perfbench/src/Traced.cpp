//===- Traced.cpp - Per-layer timings on a recorded reference stream -----===//
//
// Part of the gcache project (Reinhold, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
//
// The traced run times every layer from outside, by timing calls into the
// layer's public functions:
//
//  - the VM (with its heap) runs each program on a bus holding only a
//    counting sink that also opens a span per collection and per collector
//    phase, so collector time splits off;
//  - the same run is recorded once, in memory, onto a Tape; each later
//    layer (bus fan-out, cache bank, analysis sinks, trace writer) is then
//    timed on that same real stream, less the cost of walking the tape
//    (measured by playing it into an empty sink);
//  - the trace reader and checkpointed replay are timed on the trace file
//    written from the tape, with and without checkpoint cuts.
//
// Spans (name, start, end, parent, unit) are kept in memory and written to
// --spans when the run ends.
//
//===----------------------------------------------------------------------===//

#include "PerfBench.h"

#include "gcache/analysis/BlockTracker.h"
#include "gcache/analysis/LocalMissStats.h"
#include "gcache/analysis/MissPlot.h"
#include "gcache/trace/Sinks.h"
#include "gcache/trace/TraceFile.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>

using namespace gcache;
using namespace perfbench;

namespace {

/// Spans of the traced run, in opening order.
class SpanLog {
public:
  struct Span {
    std::string Name;
    double Start = 0;
    double End = 0;
    int Parent = -1;
    int Unit = -1;
  };

  int open(std::string Name, int Unit) {
    int Id = static_cast<int>(Spans.size());
    Spans.push_back({std::move(Name), nowSeconds(), 0,
                     Open.empty() ? -1 : Open.back(), Unit});
    Open.push_back(Id);
    return Id;
  }

  /// Closes \p Id, and first any span still open inside it (a collection
  /// cut short by an error); returns its duration in seconds.
  double close(int Id) {
    double Now = nowSeconds();
    while (!Open.empty()) {
      int Top = Open.back();
      Open.pop_back();
      Spans[Top].End = Now;
      if (Top == Id)
        break;
    }
    return Spans[Id].End - Spans[Id].Start;
  }

  /// Sum over spans named \p Name of their duration less their children's.
  double selfSeconds(const std::string &Name) const {
    std::vector<double> Self(Spans.size());
    for (size_t I = 0; I != Spans.size(); ++I) {
      Self[I] += Spans[I].End - Spans[I].Start;
      if (Spans[I].Parent >= 0)
        Self[Spans[I].Parent] -= Spans[I].End - Spans[I].Start;
    }
    double Sum = 0;
    for (size_t I = 0; I != Spans.size(); ++I)
      if (Spans[I].Name == Name)
        Sum += Self[I];
    return Sum;
  }

  /// Sum of the durations of spans named \p Name.
  double totalSeconds(const std::string &Name) const {
    double Sum = 0;
    for (const Span &S : Spans)
      if (S.Name == Name)
        Sum += S.End - S.Start;
    return Sum;
  }

  bool write(const std::string &Path) const {
    FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    double Base = Spans.empty() ? 0 : Spans.front().Start;
    std::fprintf(F, "{\"spans\": [");
    for (size_t I = 0; I != Spans.size(); ++I)
      std::fprintf(F,
                   "%s\n{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %.0f, "
                   "\"end_ns\": %.0f, \"parent\": %d, \"unit\": %d}",
                   I ? "," : "", I, Spans[I].Name.c_str(),
                   (Spans[I].Start - Base) * 1e9, (Spans[I].End - Base) * 1e9,
                   Spans[I].Parent, Spans[I].Unit);
    std::fprintf(F, "\n]}\n");
    return std::fclose(F) == 0;
  }

private:
  std::vector<Span> Spans;
  std::vector<int> Open;
};

/// A span open for the lifetime of the object.
class ScopedSpan {
public:
  ScopedSpan(SpanLog &Log, std::string Name, int Unit)
      : Log(Log), Id(Log.open(std::move(Name), Unit)) {}
  ~ScopedSpan() {
    if (!Closed)
      Log.close(Id);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  double close() {
    Closed = true;
    return Log.close(Id);
  }

private:
  SpanLog &Log;
  int Id;
  bool Closed = false;
};

/// A counting sink that also opens a span per collection and per collector
/// phase. It stands in for the counting sink, so the traced VM run
/// dispatches each reference exactly as often as the untraced one.
class GcTimer final : public TraceSink {
public:
  GcTimer(SpanLog &Log, int Unit) : Log(Log), Unit(Unit) {}

  const CountingSink &counts() const { return Counts; }

  void onRef(const Ref &R) override { Counts.onRef(R); }
  void onAlloc(Address Addr, uint32_t Bytes) override {
    Counts.onAlloc(Addr, Bytes);
  }
  void onGcBegin() override {
    Counts.onGcBegin();
    Cycle = Log.open("gc.cycle", Unit);
  }
  void onGcPhase(GcPhase P) override {
    if (Cycle < 0)
      return;
    closePhase();
    PhaseSpan = Log.open(std::string("gc.phase.") + gcPhaseName(P), Unit);
  }
  void onGcEnd() override {
    if (Cycle < 0)
      return;
    closePhase();
    Log.close(Cycle);
    Cycle = -1;
  }

private:
  void closePhase() {
    if (PhaseSpan >= 0)
      Log.close(PhaseSpan);
    PhaseSpan = -1;
  }

  CountingSink Counts;
  SpanLog &Log;
  int Unit;
  int Cycle = -1;
  int PhaseSpan = -1;
};

/// A program's whole event stream, recorded in memory: the references in
/// columns, every other event as a mark at its position among them.
class Tape final : public TraceSink {
public:
  void onRef(const Ref &R) override { Refs.push_back(R); }
  void onAlloc(Address Addr, uint32_t Bytes) override {
    mark(Op::Alloc, Addr, Bytes);
  }
  void onGcBegin() override { mark(Op::GcBegin, 0, 0); }
  void onGcEnd() override { mark(Op::GcEnd, 0, 0); }
  void onGcPhase(GcPhase P) override {
    mark(Op::GcPhase, 0, static_cast<uint32_t>(P));
  }

  /// Delivers the recorded events to \p S in their original order.
  void play(TraceSink &S) const {
    size_t I = 0;
    for (const Mark &M : Marks) {
      for (; I < M.At; ++I)
        S.onRef(Refs.get(I));
      switch (M.Kind) {
      case Op::Alloc:
        S.onAlloc(M.A, M.B);
        break;
      case Op::GcBegin:
        S.onGcBegin();
        break;
      case Op::GcEnd:
        S.onGcEnd();
        break;
      case Op::GcPhase:
        S.onGcPhase(static_cast<GcPhase>(M.B));
        break;
      }
    }
    for (; I < Refs.size(); ++I)
      S.onRef(Refs.get(I));
  }

  uint64_t refs() const { return Refs.size(); }
  uint64_t events() const { return Refs.size() + Marks.size(); }

  /// Checkpoint cuts a replay of this stream makes: one at every GC end
  /// and one whenever \p Every records passed since the last cut.
  uint64_t cutsEvery(uint64_t Every) const {
    uint64_t Cuts = 0;
    uint64_t Since = 0;
    size_t I = 0;
    auto Records = [&](uint64_t N) {
      Since += N;
      Cuts += Since / Every;
      Since %= Every;
    };
    for (const Mark &M : Marks) {
      Records(M.At - I);
      I = M.At;
      if (M.Kind == Op::GcEnd) {
        ++Cuts;
        Since = 0;
      } else {
        Records(1);
      }
    }
    Records(Refs.size() - I);
    return Cuts;
  }

private:
  enum class Op : uint8_t { Alloc, GcBegin, GcEnd, GcPhase };
  struct Mark {
    uint32_t At; ///< Number of references recorded before the event.
    Address A;
    uint32_t B;
    Op Kind;
  };

  void mark(Op Kind, Address A, uint32_t B) {
    if (Refs.size() > UINT32_MAX)
      throw StatusError(Status::failf(StatusCode::InvalidArgument,
                                      "stream too long for the tape"));
    Marks.push_back({static_cast<uint32_t>(Refs.size()), A, B, Kind});
  }

  RefColumns Refs;
  std::vector<Mark> Marks;
};

class NullSink final : public TraceSink {
public:
  void onRef(const Ref &) override {}
};

/// Forwards a stream to a cache bank, with a span around every call that
/// waits for the bank to drain.
class TimedBank final : public TraceSink {
public:
  TimedBank(CacheBank &Bank, SpanLog &Log, int Unit)
      : Bank(Bank), Log(Log), Unit(Unit) {}

  void onRef(const Ref &R) override { Bank.onRef(R); }
  void onAlloc(Address Addr, uint32_t Bytes) override {
    Bank.onAlloc(Addr, Bytes);
  }
  void onGcBegin() override {
    ScopedSpan S(Log, "memsys.flush", Unit);
    Bank.onGcBegin();
  }
  void onGcEnd() override {
    ScopedSpan S(Log, "memsys.flush", Unit);
    Bank.onGcEnd();
  }
  void onGcPhase(GcPhase P) override { Bank.onGcPhase(P); }
  void flush() {
    ScopedSpan S(Log, "memsys.flush", Unit);
    Bank.flush();
  }

private:
  CacheBank &Bank;
  SpanLog &Log;
  int Unit;
};

[[noreturn]] void fail(const std::string &Why) {
  throw StatusError(Status::failf(StatusCode::AuditFailure, "%s", Why.c_str()));
}

uint64_t fileBytes(const std::string &Path) {
  std::error_code Ec;
  uint64_t N = std::filesystem::file_size(Path, Ec);
  return Ec ? 0 : N;
}

void require(const Status &S) {
  if (!S.ok())
    throw StatusError(S);
}

/// Per-layer accumulators over the programs of one traced pass.
struct Layers {
  double VmLoad = 0, VmWall = 0, VmUntracedWall = 0;
  uint64_t Instructions = 0, ExtraInstructions = 0, Refs = 0, AllocBytes = 0;
  GcStats Gc;
  double Fanout = 0, Write = 0, Open = 0, Decode = 0;
  uint64_t Records = 0, TraceBytes = 0;
  double Bank = 0;
  uint64_t Caches = 0, FetchMisses = 0, Writebacks = 0, CacheRefs = 0;
  double BlockTracker = 0, MissPlot = 0, PerBlockCache = 0, Finalize = 0;
  double Replay = 0, ReplayCut = 0;
  uint64_t Cuts = 0, SnapshotBytes = 0, SlotFallbacks = 0;
};

class TracedRun {
public:
  explicit TracedRun(const BenchConfig &C) : C(C) {}

  void program(const Prepared &P, int Unit);
  std::vector<Metric> metrics(double ReferenceRunS) const;
  const SpanLog &spans() const { return Log; }

private:
  /// Runs the program on a fresh system whose bus holds the counting sink
  /// and \p Extra, under a span named \p Name; returns the run's wall time
  /// (loading excluded).
  double liveRun(const Prepared &P, TraceSink *Extra, const char *Name,
                 int Unit);
  /// Times playing \p T into \p S, less the tape's own cost.
  double timedPlay(const Tape &T, TraceSink &S, const char *Name, int Unit);
  /// Loads and runs the program with the collector timed by spans.
  void vmLayer(const Prepared &P, int Unit);
  void bankLayer(const Tape &T, int Unit);
  void analysisLayers(const Tape &T, int Unit);
  void replayLayers(const Prepared &P, const Tape &T, int Unit);

  const BenchConfig &C;
  SpanLog Log;
  Layers L;
  double TapeSeconds = 0; ///< Cost of walking the current program's tape.
};

/// Sinks on the workload's bus in the untraced pipeline: the counting sink
/// plus the bank, the three section 7 sinks, or the trace writer.
size_t busSinks(WorkloadKind K) {
  switch (K) {
  case WorkloadKind::Mutator:
    return 1;
  case WorkloadKind::Section7:
    return 4;
  case WorkloadKind::Grid:
  case WorkloadKind::Replay:
    return 2;
  }
  return 1;
}

double TracedRun::liveRun(const Prepared &P, TraceSink *Extra,
                          const char *Name, int Unit) {
  CountingSink Counts;
  TraceBus Bus;
  Bus.addSink(&Counts);
  if (Extra)
    Bus.addSink(Extra);
  SchemeSystem Sys(systemConfig(unitOptions(C, P), &Bus));
  Sys.loadDefinitions(P.W->Definitions);
  ScopedSpan Run(Log, Name, Unit);
  Sys.run(P.W->RunExpr(C.Scale));
  return Run.close();
}

void TracedRun::vmLayer(const Prepared &P, int Unit) {
  GcTimer Timer(Log, Unit);
  TraceBus Bus;
  Bus.addSink(&Timer);
  ScopedSpan Load(Log, "vm.load", Unit);
  SchemeSystem Sys(systemConfig(unitOptions(C, P), &Bus));
  Sys.loadDefinitions(P.W->Definitions);
  L.VmLoad += Load.close();
  ScopedSpan Run(Log, "vm.run", Unit);
  Sys.run(P.W->RunExpr(C.Scale));
  L.VmWall += Run.close();
  const RunStats &S = Sys.lastRunStats();
  L.Instructions += S.Instructions;
  L.ExtraInstructions += S.ExtraInstructions;
  L.Gc.Collections += S.Gc.Collections;
  L.Gc.WordsCopied += S.Gc.WordsCopied;
  L.Gc.Instructions += S.Gc.Instructions;
  L.Refs += Timer.counts().totalRefs();
  L.AllocBytes += Timer.counts().allocatedBytes();
}

double TracedRun::timedPlay(const Tape &T, TraceSink &S, const char *Name,
                            int Unit) {
  ScopedSpan Span(Log, Name, Unit);
  T.play(S);
  return std::max(0.0, Span.close() - TapeSeconds);
}

void TracedRun::program(const Prepared &P, int Unit) {
  ScopedSpan UnitSpan(Log, "unit:" + P.W->Name, Unit);

  // The VM with the collector timed by spans, between two runs without
  // the timing sink (the faster of those is the untraced time; the first
  // also warms the allocator), then once more to record the stream.
  double Untraced = liveRun(P, nullptr, "vm.untraced", Unit);
  vmLayer(P, Unit);
  L.VmUntracedWall +=
      std::min(Untraced, liveRun(P, nullptr, "vm.untraced", Unit));
  Tape T;
  liveRun(P, &T, "trace.record", Unit);
  L.Records += T.events();

  NullSink Null;
  {
    ScopedSpan Span(Log, "tape.play", Unit);
    T.play(Null);
    TapeSeconds = Span.close();
  }

  // Bus fan-out: what delivering every event to the workload's further
  // sinks costs (counting sinks stand in for them), beyond the one sink
  // the VM's own bus already feeds.
  if (size_t Sinks = busSinks(C.Kind); Sinks > 1) {
    std::vector<CountingSink> Counters(Sinks);
    TraceBus One, Many;
    One.addSink(&Counters[0]);
    for (CountingSink &S : Counters)
      Many.addSink(&S);
    double OneSeconds = timedPlay(T, One, "trace.bus_one", Unit);
    double ManySeconds = timedPlay(T, Many, "trace.fanout", Unit);
    L.Fanout += std::max(0.0, ManySeconds - OneSeconds);
    if (Counters.back().totalRefs() != T.refs())
      fail("fan-out lost references");
  }

  if (C.Kind == WorkloadKind::Grid || C.Kind == WorkloadKind::Replay)
    bankLayer(T, Unit);
  if (C.Kind == WorkloadKind::Section7)
    analysisLayers(T, Unit);
  if (C.Kind == WorkloadKind::Replay)
    replayLayers(P, T, Unit);
}

void TracedRun::bankLayer(const Tape &T, int Unit) {
  CacheBank Bank;
  if (C.Kind == WorkloadKind::Grid)
    Bank.addPaperGrid(CacheConfig());
  else
    addReplayCaches(Bank);
  Bank.setThreads(C.Threads);
  TimedBank Timed(Bank, Log, Unit);
  {
    ScopedSpan Span(Log, "memsys.bank", Unit);
    T.play(Timed);
    Timed.flush();
    L.Bank += std::max(0.0, Span.close() - TapeSeconds);
  }
  L.Caches = Bank.size();
  for (size_t I = 0; I != Bank.size(); ++I) {
    CacheCounters K = Bank.cache(I).totalCounters();
    if (K.refs() != T.refs())
      fail("cache " + Bank.cache(I).config().label() + " lost references");
    L.FetchMisses += K.FetchMisses;
    L.Writebacks += K.Writebacks;
    L.CacheRefs += K.refs();
  }
}

void TracedRun::analysisLayers(const Tape &T, int Unit) {
  CacheConfig PlotConfig;
  PlotConfig.SizeBytes = 64u << 10;
  PlotConfig.BlockBytes = 64;
  CacheConfig BlockConfig = PlotConfig;
  BlockConfig.TrackPerBlockStats = true;
  BlockTracker Tracker(64, 64u << 10, Heap::StaticBase);
  MissPlot Plot(PlotConfig);
  Cache PerBlock(BlockConfig);
  L.BlockTracker += timedPlay(T, Tracker, "analysis.blocktracker", Unit);
  L.MissPlot += timedPlay(T, Plot, "analysis.missplot", Unit);
  L.PerBlockCache += timedPlay(T, PerBlock, "analysis.perblock_cache", Unit);
  ScopedSpan Span(Log, "analysis.finalize", Unit);
  BlockSummary Summary = Tracker.computeSummary();
  LocalMissCurves Curves = computeLocalMissCurves(PerBlock);
  std::string Pgm = Plot.renderPgm();
  L.Finalize += Span.close();
  if (Summary.TotalRefs != T.refs() || Curves.Points.empty() || Pgm.empty())
    fail("an analysis sink lost references");
}

void TracedRun::replayLayers(const Prepared &P, const Tape &T, int Unit) {
  std::string Path = C.WorkDir + "/traced-" + P.W->Name + ".gct";
  {
    ScopedSpan Span(Log, "trace.write", Unit);
    TraceWriter Writer;
    require(Writer.open(Path));
    T.play(Writer);
    require(Writer.close());
    L.Write += std::max(0.0, Span.close() - TapeSeconds);
  }
  L.TraceBytes += fileBytes(Path);

  TraceStream Stream;
  {
    ScopedSpan Span(Log, "trace.open", Unit);
    require(Stream.open(Path));
    L.Open += Span.close();
  }
  {
    ScopedSpan Span(Log, "trace.decode", Unit);
    TraceRecord Rec;
    uint64_t N = 0;
    while (Stream.next(Rec))
      ++N;
    L.Decode += Span.close();
    if (N != T.events())
      fail("the trace file lost records");
  }

  auto Replay = [&](const ReplayCheckpointOptions &RO, const char *Name) {
    CacheBank Bank;
    addReplayCaches(Bank);
    Bank.setThreads(C.Threads);
    CountingSink Counts;
    ScopedSpan Span(Log, Name, Unit);
    Expected<ReplayCheckpointResult> R =
        replayTraceCheckpointed(Path, Bank, Counts, RO);
    double Seconds = Span.close();
    if (!R.ok())
      throw StatusError(R.status());
    if (Counts.totalRefs() != T.refs())
      fail("replay lost references");
    L.SlotFallbacks += R->SlotFellBack;
    return Seconds;
  };
  double Plain = Replay(ReplayCheckpointOptions(), "ckpt.replay");
  ReplayCheckpointOptions Cuts = replayCuts(C);
  double WithCuts = Replay(Cuts, "ckpt.replay_with_cuts");
  L.Replay += Plain;
  L.ReplayCut += std::max(0.0, WithCuts - Plain);
  L.Cuts += T.cutsEvery(Cuts.EveryRefs);
  L.SnapshotBytes += std::max(fileBytes(Cuts.SnapshotPath + ".a"),
                              fileBytes(Cuts.SnapshotPath + ".b"));
  removeReplayFiles(C, Path);
}

std::vector<Metric> TracedRun::metrics(double ReferenceRunS) const {
  double GcBusy = Log.totalSeconds("gc.cycle");
  double VmRun = Log.selfSeconds("vm.run");
  auto Phase = [&](const char *Name) {
    return Log.totalSeconds(std::string("gc.phase.") + Name);
  };
  double FlushWait = Log.totalSeconds("memsys.flush");

  // The layers each workload's pipeline is made of; their self times
  // against the untraced run_s show how much of it the trace explains.
  double Layered = L.VmLoad + VmRun + GcBusy + L.Fanout;
  switch (C.Kind) {
  case WorkloadKind::Grid:
    Layered += L.Bank;
    break;
  case WorkloadKind::Mutator:
    break;
  case WorkloadKind::Section7:
    Layered += L.BlockTracker + L.MissPlot + L.PerBlockCache + L.Finalize;
    break;
  case WorkloadKind::Replay:
    Layered += L.Write + L.Replay + L.ReplayCut;
    break;
  }

  auto D = [](uint64_t V) { return static_cast<double>(V); };
  return {
      {"vm.run_s", VmRun, "s"},
      {"vm.ns_per_instr", L.Instructions ? VmRun * 1e9 / D(L.Instructions) : 0,
       "ns"},
      {"vm.load_s", L.VmLoad, "s"},
      {"vm.instructions", D(L.Instructions), "count"},
      {"heap.refs", D(L.Refs), "count"},
      {"heap.alloc_bytes", D(L.AllocBytes), "bytes"},
      {"gc.busy_s", GcBusy, "s"},
      {"gc.phase.root-scan_s", Phase("root-scan"), "s"},
      {"gc.phase.trace_s", Phase("trace"), "s"},
      {"gc.phase.sweep_s", Phase("sweep"), "s"},
      {"gc.phase.finish_s", Phase("finish"), "s"},
      {"gc.collections", D(L.Gc.Collections), "count"},
      {"gc.words_copied", D(L.Gc.WordsCopied), "count"},
      {"gc.instructions", D(L.Gc.Instructions), "count"},
      {"gc.extra_instructions", D(L.ExtraInstructions), "count"},
      {"trace.fanout_s", L.Fanout, "s"},
      {"trace.write_s", L.Write, "s"},
      {"trace.open_s", L.Open, "s"},
      {"trace.decode_s", L.Decode, "s"},
      {"trace.records", D(L.Records), "count"},
      {"trace.bytes", D(L.TraceBytes), "bytes"},
      {"memsys.bank_s", L.Bank, "s"},
      {"memsys.flush_wait_s", FlushWait, "s"},
      {"memsys.cache_refs_per_s", L.Bank > 0 ? D(L.CacheRefs) / L.Bank : 0,
       "1/s"},
      {"memsys.caches", D(L.Caches), "count"},
      {"memsys.fetch_misses", D(L.FetchMisses), "count"},
      {"memsys.writebacks", D(L.Writebacks), "count"},
      {"analysis.blocktracker_s", L.BlockTracker, "s"},
      {"analysis.missplot_s", L.MissPlot, "s"},
      {"analysis.perblock_cache_s", L.PerBlockCache, "s"},
      {"analysis.finalize_s", L.Finalize, "s"},
      {"ckpt.replay_s", L.Replay, "s"},
      {"ckpt.cut_s", L.ReplayCut, "s"},
      {"ckpt.cuts", D(L.Cuts), "count"},
      {"ckpt.snapshot_bytes", D(L.SnapshotBytes), "bytes"},
      {"ckpt.slot_fallbacks", D(L.SlotFallbacks), "count"},
      {"layers.reference_run_s", ReferenceRunS, "s"},
      {"layers.run_share", ReferenceRunS > 0 ? Layered / ReferenceRunS : 0,
       "ratio"},
      {"tracing.overhead_ratio",
       L.VmUntracedWall > 0 ? L.VmWall / L.VmUntracedWall - 1 : 0, "ratio"},
  };
}

} // namespace

RunReport perfbench::runTraced(const BenchConfig &C,
                               const std::vector<Prepared> &Ps,
                               Checker &Check) {
  RunReport R;
  // The reference: one untraced, checked iteration of the pipeline.
  double ReferenceRunS = 0;
  for (const Prepared &P : Ps) {
    UnitResult U = runUnit(C, P);
    ++R.Attempted;
    if (std::string Err = Check.check(U); !Err.empty()) {
      ++R.Failed;
      std::fprintf(stderr, "FAILED %s/%s: %s\n", C.Name.c_str(),
                   U.Program.c_str(), Err.c_str());
    }
    ReferenceRunS += U.Seconds;
  }

  TracedRun Traced(C);
  for (size_t I = 0; I != Ps.size(); ++I) {
    ++R.Attempted;
    try {
      Traced.program(Ps[I], static_cast<int>(I));
    } catch (const StatusError &E) {
      ++R.Failed;
      std::fprintf(stderr, "FAILED %s/%s (traced): %s\n", C.Name.c_str(),
                   Ps[I].W->Name.c_str(), E.status().message().c_str());
    }
  }
  R.Metrics = Traced.metrics(ReferenceRunS);
  if (!C.SpansPath.empty() && !Traced.spans().write(C.SpansPath))
    throw StatusError(Status::failf(StatusCode::IoError,
                                    "cannot write spans to %s",
                                    C.SpansPath.c_str()));
  return R;
}
