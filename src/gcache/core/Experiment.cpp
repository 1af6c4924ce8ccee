//===- Experiment.cpp - The paper's experiment drivers ----------------------===//

#include "gcache/core/Experiment.h"

#include "gcache/core/Audit.h"
#include "gcache/trace/Sinks.h"

#include <algorithm>

using namespace gcache;

uint32_t ExperimentOptions::effectiveSemispace() const {
  if (SemispaceBytes)
    return SemispaceBytes;
  double Scaled = Scale * (16.0 * 1024 * 1024) / 4.0;
  return std::max<uint32_t>(2u << 20, static_cast<uint32_t>(Scaled));
}

ProgramRun gcache::runProgram(const Workload &W,
                              const ExperimentOptions &Opts) {
  ProgramRun Run;
  Run.Name = W.Name;

  auto Bank = std::make_unique<CacheBank>();
  std::vector<CacheConfig> Prototypes = {CacheConfig()};
  if (Opts.AlsoOppositePolicy)
    Prototypes.push_back({.WriteMiss = WriteMissPolicy::FetchOnWrite});
  for (const CacheConfig &Prototype : Prototypes) {
    if (Opts.Grid == CacheGridKind::PaperGrid)
      Bank->addPaperGrid(Prototype);
    else if (Opts.Grid == CacheGridKind::SizeSweep)
      Bank->addSizeSweep(Prototype, 64);
  }
  if (Opts.CrossCheckEvery)
    Bank->enableCrossCheck(Opts.CrossCheckEvery);
  Bank->setThreads(Opts.Threads, Opts.BatchRefs);

  CountingSink Counts;
  BudgetRefMeter Meter;
  TraceBus Bus;
  if (processBudget().active())
    Bus.addSink(&Meter);
  Bus.addSink(&Counts);
  if (Bank->size())
    Bus.addSink(Bank.get());
  for (TraceSink *S : Opts.ExtraSinks)
    Bus.addSink(S);
  // The auditor rides last so GC boundaries reach it after the bank has
  // flushed (bus order is delivery order).
  AuditSink Auditor(Bank->size() ? Bank.get() : nullptr, &Counts);
  if (Opts.Audit)
    Bus.addSink(&Auditor);

  SchemeSystemConfig SysConfig;
  SysConfig.Gc = Opts.Gc;
  SysConfig.SemispaceBytes = Opts.effectiveSemispace();
  SysConfig.Generational = Opts.Generational;
  if (SysConfig.Generational.OldSemispaceBytes == 0)
    SysConfig.Generational.OldSemispaceBytes = Opts.effectiveSemispace();
  SysConfig.Bus = &Bus;
  SysConfig.LayoutSeed = Opts.LayoutSeed;
  SysConfig.Paranoid = Opts.Paranoid;
  SysConfig.ParanoidPhase = Opts.ParanoidPhase;
  SchemeSystem Sys(SysConfig);

  try {
    Sys.loadDefinitions(W.Definitions);
    Sys.run(W.RunExpr(Opts.Scale));
  } catch (const StatusError &E) {
    if (E.status().code() != StatusCode::Cancelled)
      throw;
    // Cooperative cancellation: the run stops at a poll site, not at a
    // random instruction, so the trace delivered so far is a consistent
    // prefix. Drain the bank, re-audit the drained state, and
    // report a partial result instead of a failure.
    Bank->setThreads(0);
    if (Opts.Audit)
      if (Status S = Auditor.finalCheck("cancel-drain"); !S.ok())
        throw StatusError(std::move(S));
    if (Opts.CrossCheckEvery)
      if (Status S = Bank->crossCheckNow(); !S.ok())
        throw StatusError(std::move(S));
    Run.Outcome = outcomeForReason(cancelToken().reason());
    Run.OutcomeNote = E.status().message();
    Run.Coverage = Sys.lastRunCoverage();
  }

  // Drain the workers and return the bank with its lanes inline: callers
  // read counters (and may keep feeding it) without joining any thread.
  Bank->setThreads(0);

  if (Run.Outcome == UnitOutcome::Ok) {
    if (Opts.Audit)
      if (Status S = Auditor.finalCheck(); !S.ok())
        throw StatusError(std::move(S));
    if (Opts.CrossCheckEvery)
      if (Status S = Bank->crossCheckNow(); !S.ok())
        throw StatusError(std::move(S));
    Run.Coverage = 1.0;
  }

  Run.Stats = Sys.lastRunStats();
  Run.TotalRefs = Counts.totalRefs();
  Run.MutatorRefs = Counts.mutatorRefs();
  Run.AllocBytes = Counts.allocatedBytes();
  Run.Collections = Counts.collections();
  Run.Output = Sys.vm().output();
  Run.RuntimeVectorAddr = Sys.vm().runtimeVectorAddr();
  Run.StaticBytes = Sys.heap().staticFrontier() - Heap::StaticBase;
  Run.Bank = std::move(Bank);
  return Run;
}

Expected<ProgramRun> gcache::tryRunProgram(const Workload &W,
                                           const ExperimentOptions &Opts) {
  try {
    return runProgram(W, Opts);
  } catch (const StatusError &E) {
    return E.status();
  }
}

Machine gcache::slowMachine() { return {MemoryTiming(), ProcessorModel::slow()}; }
Machine gcache::fastMachine() { return {MemoryTiming(), ProcessorModel::fast()}; }

double gcache::controlOverhead(const Cache &Sim, const ProgramRun &Run,
                               const Machine &M) {
  uint64_t Penalty = M.penaltyCycles(Sim.config().BlockBytes);
  return cacheOverhead(Sim.counters(Phase::Mutator).FetchMisses, Penalty,
                       Run.Stats.Instructions);
}

GcOverheadInputs gcache::gcInputsFor(const Cache &GcCache,
                                     const Cache &ControlCache,
                                     const ProgramRun &GcRun,
                                     const Machine &M) {
  GcOverheadInputs In;
  In.CollectorFetchMisses = GcCache.counters(Phase::Collector).FetchMisses;
  In.MutatorFetchMissesWithGc = GcCache.counters(Phase::Mutator).FetchMisses;
  In.MutatorFetchMissesControl =
      ControlCache.counters(Phase::Mutator).FetchMisses;
  In.CollectorInstructions = GcRun.Stats.Gc.Instructions;
  In.ExtraMutatorInstructions = GcRun.Stats.ExtraInstructions;
  // I_prog: the program's own instructions, net of collector-caused work.
  In.MutatorInstructions =
      GcRun.Stats.Instructions - GcRun.Stats.ExtraInstructions;
  In.PenaltyCycles = M.penaltyCycles(GcCache.config().BlockBytes);
  return In;
}

double gcache::writeOverheadFor(const Cache &Sim, const ProgramRun &Run,
                                const Machine &M) {
  uint64_t Wb = Sim.totalCounters().Writebacks;
  uint64_t Ns = M.Memory.writebackNs(Sim.config().BlockBytes);
  return writeOverhead(Wb, Ns, M.Processor.CycleNs, Run.Stats.Instructions);
}
