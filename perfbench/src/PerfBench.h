//===- PerfBench.h - End-to-end benchmark of the pipeline -------*- C++ -*-===//
//
// Part of the gcache project (Reinhold, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared declarations of the perfbench binary. A workload is one shape of
/// the paper pipeline (the fig1 cache grid, a collector-heavy mutator run,
/// the §7 analysis sinks, decoupled trace replay); a unit is one program
/// pushed through that shape. Every unit is reduced to a digest of all of
/// its simulated counters, which is checked against a pinned value (seed 0)
/// or against the first iteration of the same process (other seeds).
///
/// The benchmark only calls the repository's public entry points, so it keeps
/// measuring the same pipeline while the layers underneath are rewritten.
///
//===----------------------------------------------------------------------===//

#ifndef GCACHE_PERFBENCH_PERFBENCH_H
#define GCACHE_PERFBENCH_PERFBENCH_H

#include "gcache/core/Checkpoint.h"
#include "gcache/core/Experiment.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

enum class WorkloadKind : uint8_t { Grid, Mutator, Section7, Replay };

/// Parsed command line.
struct BenchConfig {
  WorkloadKind Kind = WorkloadKind::Grid;
  std::string Name;
  uint64_t Seed = 0;   ///< Passed on only as ExperimentOptions::LayoutSeed.
  double Seconds = 10; ///< Measuring time of the run.
  bool Trace = false;  ///< Per-layer (traced) run instead of end-to-end.
  double Scale = 0.1; ///< Workload scale (see Workload.h).
  unsigned Threads = 0; ///< Cache-bank worker threads.
  std::string WorkDir;  ///< Trace files and checkpoint slots go here.
  std::string SpansPath; ///< Traced run: where the spans are written.
};

/// The five programs of a workload, with any per-program sizing that the
/// set-up phase derives.
struct Prepared {
  const gcache::Workload *W = nullptr;
  uint32_t SemispaceBytes = 0; ///< Replay: fig2's semispaceFor sizing.
};

/// One unit's outcome. Seconds covers only the pipeline work, not the
/// digest and the checks.
struct UnitResult {
  std::string Program;
  double Seconds = 0;
  uint64_t Refs = 0;   ///< Simulated data references of the program run.
  uint64_t Digest = 0; ///< Over every simulated counter the unit produced.
  uint64_t OutputDigest = 0; ///< Over the program's checksum output.
  std::string Error;   ///< Empty when the unit ran and its invariants hold.
};

/// FNV-1a over a sequence of 64-bit words.
class Digest {
public:
  void add(uint64_t V) {
    for (int I = 0; I != 8; ++I) {
      H ^= (V >> (8 * I)) & 0xff;
      H *= 0x100000001b3ull;
    }
  }
  void addDouble(double D);
  void addString(const std::string &S);
  void addCache(const gcache::Cache &C);
  void addRun(const gcache::ProgramRun &Run);
  uint64_t value() const { return H; }

private:
  uint64_t H = 0xcbf29ce484222325ull;
};

/// The SchemeSystem configuration runProgram builds for \p O.
gcache::SchemeSystemConfig systemConfig(const gcache::ExperimentOptions &O,
                                        gcache::TraceSink *Bus);

/// Replay checkpoints are cut every this many records (and at every GC
/// boundary).
constexpr uint64_t ReplayCutEvery = 1000000;

/// Adds the replay workload's caches to \p Bank.
void addReplayCaches(gcache::CacheBank &Bank);
/// The replay workload's checkpoint options (slots under WorkDir).
gcache::ReplayCheckpointOptions replayCuts(const BenchConfig &C);
/// Removes a replay unit's trace file and checkpoint slots.
void removeReplayFiles(const BenchConfig &C, const std::string &TracePath);

/// The programs a workload runs, in the paper's order.
std::vector<const gcache::Workload *> programsOf(WorkloadKind K);

/// Set-up: loads every program of the workload once (system construction
/// plus untraced definitions) and derives per-program sizing.
std::vector<Prepared> prepare(const BenchConfig &C);

/// The ExperimentOptions of \p P's unit.
gcache::ExperimentOptions unitOptions(const BenchConfig &C,
                                      const Prepared &P);

/// Runs one unit of the end-to-end pipeline.
UnitResult runUnit(const BenchConfig &C, const Prepared &P);

/// Correctness of units against the pins and against earlier iterations.
class Checker {
public:
  explicit Checker(const BenchConfig &C) : Config(C) {}
  /// Returns "" when \p U is correct, else why not.
  std::string check(const UnitResult &U);
  /// Number of pinned digests that applied to this run's units.
  unsigned pinnedChecks() const { return PinnedChecks; }

private:
  const BenchConfig &Config;
  std::map<std::string, uint64_t> FirstDigest;
  unsigned PinnedChecks = 0;
};

/// One reported metric.
struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// Everything a run reports besides the metrics' JSON framing.
struct RunReport {
  std::vector<Metric> Metrics;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

/// The traced run: one untraced pipeline iteration for reference, then
/// every layer timed on the recorded reference stream of each program.
RunReport runTraced(const BenchConfig &C, const std::vector<Prepared> &Ps,
                    Checker &Check);

double nowSeconds();
double median(std::vector<double> V);

} // namespace perfbench

#endif // GCACHE_PERFBENCH_PERFBENCH_H
