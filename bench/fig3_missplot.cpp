//===- fig3_missplot.cpp - §7 cache-miss plot ---------------------------------===//
//
// Regenerates the §7 cache-miss plot for orbit in a 64 KB direct-mapped
// cache with 64-byte blocks: a dot where at least one miss occurred in a
// cache block during a 1024-reference interval. Linear allocation shows
// as broken diagonal sweep lines; thrashing busy blocks would show as
// horizontal stripes. The full-resolution plot is written as a PGM image;
// a downsampled ASCII rendering is printed.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "gcache/analysis/MissPlot.h"
#include "gcache/core/Audit.h"
#include "gcache/support/Vfs.h"

using namespace gcache;

int main(int Argc, char **Argv) {
  BenchArgs A = parseBenchArgs(Argc, Argv, {"pgm"});
  std::string Name = A.Workload.empty() ? "orbit" : A.Workload;
  std::string PgmPath =
      flagOrExit(A.Opts.getStrict("pgm", "missplot_" + Name + ".pgm"));
  benchHeader("Figure 3 (§7)",
              ("cache-miss plot, " + Name + ", 64kb/64b").c_str(), A);
  const Workload *W = findWorkload(Name);

  CacheConfig Config;
  Config.SizeBytes = 64 << 10;
  Config.BlockBytes = 64;
  MissPlot Plot(Config);
  // The plot's cache rides as an extra sink, outside any bank, so the
  // validation flags are applied to it directly.
  if (A.CrossCheck)
    Plot.enableCrossCheck();

  ExperimentOptions Opts = baseExperimentOptions(A);
  Opts.Grid = CacheGridKind::None;
  Opts.ExtraSinks = {&Plot};
  BenchUnitRunner Runner;
  Expected<ProgramRun> R = Runner.run(Name, *W, Opts);
  if (!R.ok())
    return Runner.finish();
  ProgramRun Run = R.take();

  if (A.CrossCheck)
    if (Status S = Plot.cache().crossCheckNow(); !S.ok()) {
      Runner.recordFailure(Name + " crosscheck", S);
      return Runner.finish();
    }
  if (A.Audit)
    if (Status S = auditMissPlot(Plot); !S.ok()) {
      Runner.recordFailure(Name + " audit", S);
      return Runner.finish();
    }

  std::printf("%s: %s refs, %llu time columns, fill %.3f\n\n",
              Run.Name.c_str(), fmtCount(Run.TotalRefs).c_str(),
              static_cast<unsigned long long>(Plot.columns()),
              Plot.fillFraction());
  std::fputs(Plot.renderAscii(96, 32).c_str(), stdout);

  const std::string Pgm = Plot.renderPgm();
  if (Status S = vfs().writeFileAtomic(PgmPath, Pgm.data(), Pgm.size());
      !S.ok()) {
    Runner.recordFailure("pgm output", S);
  } else {
    std::printf("\nfull-resolution plot written to %s\n", PgmPath.c_str());
  }
  std::printf("Expected shape: broken diagonals (the allocation pointer "
              "sweeping the cache), slope tracking the allocation rate.\n");
  return Runner.finish();
}
