//===- LocalMissMain.h - Shared main for the §7 local-miss figures -*- C++ -*-===//
//
// Part of the gcache project (Reinhold, PLDI 1994 reproduction).
// Figures 5-8 are the same analysis applied to different programs and
// cache sizes; each bench binary supplies its parameters and calls
// localMissFigureMain.
//
//===----------------------------------------------------------------------===//

#ifndef GCACHE_BENCH_LOCALMISSMAIN_H
#define GCACHE_BENCH_LOCALMISSMAIN_H

#include "BenchCommon.h"

#include "gcache/analysis/LocalMissStats.h"
#include "gcache/core/Audit.h"

namespace gcache {

/// Runs \p DefaultWorkload (no GC) against one per-block-tracked cache of
/// \p CacheBytes with 64-byte blocks and prints the §7 cache-activity
/// curves: per-cache-block local miss ratios in ascending reference-count
/// order, cumulative miss/reference fractions, and the cumulative miss
/// ratio with its final best-case drop.
inline int localMissFigureMain(int Argc, char **Argv, const char *Id,
                               const char *DefaultWorkload,
                               uint32_t CacheBytes,
                               const char *ExpectedShape) {
  BenchArgs A = parseBenchArgs(Argc, Argv);
  std::string Name = A.Workload.empty() ? DefaultWorkload : A.Workload;
  benchHeader(Id,
              ("per-cache-block activity, " + Name + ", " +
               fmtSize(CacheBytes) + "/64b, no GC")
                  .c_str(),
              A);
  const Workload *W = findWorkload(Name);

  CacheConfig Config;
  Config.SizeBytes = CacheBytes;
  Config.BlockBytes = 64;
  Config.TrackPerBlockStats = true;
  Cache Sim(Config);
  // This cache rides as an extra sink, outside any bank, so the
  // validation flags are applied to it directly.
  if (A.CrossCheck)
    Sim.enableCrossCheck();

  ExperimentOptions Opts = baseExperimentOptions(A);
  Opts.Grid = CacheGridKind::None;
  Opts.ExtraSinks = {&Sim};
  BenchUnitRunner Runner;
  Expected<ProgramRun> R = Runner.run(Name, *W, Opts);
  if (!R.ok())
    return Runner.finish();
  ProgramRun Run = R.take();

  if (A.CrossCheck)
    if (Status S = Sim.crossCheckNow(); !S.ok()) {
      Runner.recordFailure(Name + " crosscheck", S);
      return Runner.finish();
    }

  LocalMissCurves Curves = computeLocalMissCurves(Sim);
  if (A.Audit)
    if (Status S = auditLocalMissCurves(Curves, Sim); !S.ok()) {
      Runner.recordFailure(Name + " audit", S);
      return Runner.finish();
    }
  std::printf("%s: %s refs\n\n", Run.Name.c_str(),
              fmtCount(Run.TotalRefs).c_str());
  std::fputs(renderLocalMissTable(Curves, 16).c_str(), stdout);
  std::printf("bad blocks (local miss ratio > 0.25): %zu of %zu\n",
              Curves.countAbove(0.25), Curves.Points.size());
  std::printf("\nExpected: %s\n", ExpectedShape);
  return Runner.finish();
}

} // namespace gcache

#endif // GCACHE_BENCH_LOCALMISSMAIN_H
