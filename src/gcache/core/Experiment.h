//===- Experiment.h - The paper's experiment drivers ------------*- C++ -*-===//
//
// Part of the gcache project (Reinhold, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reusable core of the paper: run a workload on the Scheme system
/// under a chosen collector while simulating a bank of cache
/// configurations and any extra analysis sinks in a single pass, then
/// evaluate the §5/§6 overhead metrics against the slow and fast
/// processor models.
///
/// Typical use (the control experiment of §5):
/// \code
///   ExperimentOptions Opts;                 // no GC, paper cache grid
///   ProgramRun Run = runProgram(orbitWorkload(), Opts);
///   const Cache *C = Run.Bank->find(64 << 10, 64);
///   double O = controlOverhead(*C, Run, slowMachine());
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef GCACHE_CORE_EXPERIMENT_H
#define GCACHE_CORE_EXPERIMENT_H

#include "gcache/gc/GenerationalCollector.h"
#include "gcache/memsys/CacheBank.h"
#include "gcache/memsys/Overhead.h"
#include "gcache/support/Budget.h"
#include "gcache/vm/SchemeSystem.h"
#include "gcache/workloads/Workload.h"

#include <memory>
#include <string>
#include <vector>

namespace gcache {

/// Which cache configurations a run simulates.
enum class CacheGridKind : uint8_t {
  PaperGrid, ///< All §4 sizes x all block sizes (the §5 control figure).
  SizeSweep, ///< All sizes at 64 B blocks (the block size of the §6 figure).
  None,      ///< No caches (behaviour-analysis-only runs).
};

/// Options for one measured program run.
struct ExperimentOptions {
  double Scale = 0.3;
  GcKind Gc = GcKind::None;
  /// 0 = scale the paper's 16 MB semispaces with Scale (min 2 MB).
  uint32_t SemispaceBytes = 0;
  GenerationalConfig Generational{512 * 1024, 0 /* set from semispace */};
  /// The grid is write-validate (memsys/CacheConfig.h).
  CacheGridKind Grid = CacheGridKind::PaperGrid;
  /// Also simulate every grid config under fetch-on-write (one pass feeds
  /// both, for the §5 write-policy comparison).
  bool AlsoOppositePolicy = false;
  /// Additional sinks to attach to the trace bus (analysis).
  std::vector<TraceSink *> ExtraSinks;
  /// Static-layout scatter seed (0 = default layout); see ext2_layout.
  uint64_t LayoutSeed = 0;
  /// Worker threads for the cache bank (0 = serial). Results are
  /// bit-identical across thread counts; see CacheBank::setThreads.
  unsigned Threads = 0;
  /// References per columnar batch of the bank's batch kernel. 0 selects
  /// the default (CacheBank::DefaultBatchRefs). Counters are
  /// bit-identical for every value.
  size_t BatchRefs = 0;
  /// Verify the live heap after every collection and at every injected
  /// allocation failure (verification is peek-only, so all simulated
  /// counters stay bit-identical); see SchemeSystemConfig::Paranoid.
  bool Paranoid = false;
  /// --paranoid=phase: additionally run the collector-independent
  /// GcCertifier (heap/GcCertifier.h) at the begin boundary and every
  /// step boundary of every collection cycle. Peek-only as well.
  bool ParanoidPhase = false;
  /// Nonzero enables --crosscheck: every cache runs a shadow OracleCache
  /// in lockstep, comparing hit classes every N references (1 = every
  /// reference) and deep-comparing contents at GC boundaries and end of
  /// run. Divergence raises StatusError(Divergence). The simulated
  /// counters are unaffected — the oracle only watches.
  uint64_t CrossCheckEvery = 0;
  /// --audit: run the conservation-law auditor (core/Audit.h) at every GC
  /// boundary and at end of run; violations raise
  /// StatusError(AuditFailure).
  bool Audit = false;

  /// Effective semispace size after scaling.
  uint32_t effectiveSemispace() const;
};

/// Feeds the simulated-reference clock of the process budget so
/// --max-refs trips at cooperative poll sites. Rides first on the bus:
/// metering must see a reference before any sink that might poll. The
/// heap flushes its trace before each poll, so the meter is exact there.
class BudgetRefMeter final : public TraceSink {
public:
  void onRef(const Ref &) override { processBudget().noteRefs(1); }
  void onRefs(const RefSpan &S) override {
    processBudget().noteRefs(S.size());
  }
};

/// Everything measured in one program run.
struct ProgramRun {
  std::string Name;
  RunStats Stats;            ///< Instructions, ΔI, allocation, GC activity.
  uint64_t TotalRefs = 0;
  uint64_t MutatorRefs = 0;
  uint64_t AllocBytes = 0;
  uint64_t Collections = 0;
  std::string Output;        ///< The program's checksum line(s).
  Address RuntimeVectorAddr = 0;
  uint32_t StaticBytes = 0;
  std::unique_ptr<CacheBank> Bank;

  /// Resource-governance verdict for this run. Ok means the workload ran
  /// to completion; the Partial* outcomes mean a budget or signal tripped
  /// mid-run and the counters below cover only the drained prefix.
  UnitOutcome Outcome = UnitOutcome::Ok;
  /// Human-readable cancellation detail ("" when Ok).
  std::string OutcomeNote;
  /// Fraction of the workload's top-level forms that completed, in
  /// [0, 1]; negative when unknown (e.g. a run cancelled before load).
  double Coverage = -1.0;

  bool partial() const { return Outcome != UnitOutcome::Ok; }
};

/// Loads \p W into a fresh Scheme system configured per \p Opts, executes
/// the measured run, and returns the results (including the cache bank).
/// Raises StatusError on any structured failure in the run (injected
/// fault, VM error, heap corruption in paranoid mode, ...).
///
/// Cooperative cancellation (deadline, budget, or signal; see
/// support/Budget.h) is NOT a failure: the run drains the cache bank,
/// re-audits the drained state, and returns normally with a Partial*
/// Outcome and the counters of the completed prefix.
ProgramRun runProgram(const Workload &W, const ExperimentOptions &Opts);

/// runProgram with failures surfaced as an Expected — the per-workload
/// unit boundary. A failure in one workload/cache configuration degrades
/// gracefully: the caller reports the failed unit and continues with the
/// rest (see BenchUnitRunner in bench/BenchCommon.h).
Expected<ProgramRun> tryRunProgram(const Workload &W,
                                   const ExperimentOptions &Opts);

/// The paper's two machines.
Machine slowMachine();
Machine fastMachine();

/// O_cache of one simulated cache for a (control) run: mutator fetch
/// misses charged at the cache's block-size penalty.
double controlOverhead(const Cache &Sim, const ProgramRun &Run,
                       const Machine &M);

/// O_gc inputs for one cache size: the collector's misses and the
/// program's miss delta come from \p GcCache (a cache simulated during
/// the collected run) vs \p ControlCache (same geometry, control run).
GcOverheadInputs gcInputsFor(const Cache &GcCache, const Cache &ControlCache,
                             const ProgramRun &GcRun, const Machine &M);

/// Write overhead (write-back traffic) of one cache for a run.
double writeOverheadFor(const Cache &Sim, const ProgramRun &Run,
                        const Machine &M);

} // namespace gcache

#endif // GCACHE_CORE_EXPERIMENT_H
