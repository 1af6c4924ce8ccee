//===- missplot_art.cpp - Watch the allocation wave sweep the cache ------------===//
//
// Example: renders the §7 cache-miss plot for any workload and cache
// geometry as ASCII art and a PGM image. The "allocation wave" of linear
// allocation appears as broken diagonals; colliding busy blocks appear as
// horizontal stripes.
//
// Usage: missplot_art [--workload nbody] [--cache-kb 64] [--block 64]
//                     [--scale 0.15] [--gc cheney]
//
//===----------------------------------------------------------------------===//

#include "gcache/analysis/MissPlot.h"
#include "gcache/core/Experiment.h"
#include "gcache/support/FaultInjector.h"
#include "gcache/support/Options.h"
#include "gcache/support/Table.h"

#include <cstdio>
#include <fstream>

using namespace gcache;

int main(int Argc, char **Argv) {
  Options Opts = Options::parse(Argc, Argv);
  Opts.exitOnUnknown({"workload", "scale", "cache-kb", "block", "gc"},
                     "usage: missplot_art [--workload W] [--scale S] "
                     "[--cache-kb N] [--block N] [--gc none|cheney|"
                     "generational]",
                     /*EnvOnly=*/{"fault"});
  std::string Name = Opts.get("workload", "nbody");
  Expected<double> ScaleArg = Opts.getStrictPositiveDouble("scale", 0.15);
  Expected<unsigned> CacheKbArg = Opts.getStrictUnsigned("cache-kb", 64);
  Expected<unsigned> BlockArg = Opts.getStrictUnsigned("block", 64);
  for (const Status &S :
       {ScaleArg.ok() ? Status() : ScaleArg.status(),
        CacheKbArg.ok() ? Status() : CacheKbArg.status(),
        BlockArg.ok() ? Status() : BlockArg.status()})
    if (!S.ok()) {
      std::fprintf(stderr, "error: %s\n", S.message().c_str());
      return 2;
    }
  double Scale = *ScaleArg;
  uint32_t CacheKb = *CacheKbArg;
  uint32_t Block = *BlockArg;
  Status Fault = faultInjector().armFromEnv();
  if (!Fault.ok()) {
    std::fprintf(stderr, "error: %s\n", Fault.message().c_str());
    return 2;
  }
  std::string GcName = Opts.get("gc", "none");
  if (GcName != "none" && GcName != "cheney" && GcName != "generational") {
    std::fprintf(stderr, "error: unknown --gc '%s' (none|cheney|"
                         "generational)\n",
                 GcName.c_str());
    return 2;
  }

  const Workload *W = findWorkload(Name);
  if (!W) {
    std::fprintf(stderr, "error: unknown workload '%s'\n", Name.c_str());
    return 2;
  }

  CacheConfig Config;
  Config.SizeBytes = CacheKb << 10;
  Config.BlockBytes = Block;
  if (!Config.isValid()) {
    std::fprintf(stderr, "error: invalid cache geometry %u KB / %u B\n",
                 CacheKb, Block);
    return 2;
  }
  MissPlot Plot(Config);

  ExperimentOptions O;
  O.Scale = Scale;
  O.Grid = CacheGridKind::None;
  O.Gc = GcName == "cheney"         ? GcKind::Cheney
         : GcName == "generational" ? GcKind::Generational
                                    : GcKind::None;
  O.ExtraSinks = {&Plot};
  Expected<ProgramRun> R = tryRunProgram(*W, O);
  if (!R.ok()) {
    std::fprintf(stderr, "FAILED %s: %s\n", Name.c_str(),
                 R.status().toString().c_str());
    return 1;
  }
  ProgramRun Run = R.take();

  std::printf("%s in %s/%s (%s, %s refs, %llu collections)\n\n",
              Name.c_str(), fmtSize(Config.SizeBytes).c_str(),
              fmtSize(Block).c_str(), GcName.c_str(),
              fmtCount(Run.TotalRefs).c_str(),
              static_cast<unsigned long long>(Run.Collections));
  std::fputs(Plot.renderAscii(110, 40).c_str(), stdout);

  std::string Path = "missplot_" + Name + "_" + GcName + ".pgm";
  std::ofstream Out(Path, std::ios::binary);
  Out << Plot.renderPgm();
  std::printf("\nfull resolution: %s (fill %.4f)\n", Path.c_str(),
              Plot.fillFraction());
  return 0;
}
