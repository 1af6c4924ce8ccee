//===- gc_tuning.cpp - Compare collectors on one workload ----------------------===//
//
// Example: use the experiment drivers to answer "which collector should I
// run, and how big should its spaces be?" for one of the five workloads.
// Runs the control (no GC), the Cheney semispace collector at two sizes,
// and the generational collector at two nursery sizes, then prints total
// overhead (O_cache + O_gc) per configuration for both processor models.
//
// Usage: gc_tuning [--workload lp] [--scale 0.4]
//
//===----------------------------------------------------------------------===//

#include "gcache/core/Experiment.h"
#include "gcache/support/FaultInjector.h"
#include "gcache/support/Options.h"
#include "gcache/support/Table.h"

#include <cstdio>

using namespace gcache;

int main(int Argc, char **Argv) {
  Options Opts = Options::parse(Argc, Argv);
  Opts.exitOnUnknown({"workload", "scale"},
                     "usage: gc_tuning [--workload W] [--scale S]",
                     /*EnvOnly=*/{"fault"});
  std::string Name = Opts.get("workload", "lp");
  Expected<double> ScaleArg = Opts.getStrictPositiveDouble("scale", 0.4);
  if (!ScaleArg.ok()) {
    std::fprintf(stderr, "error: %s\n", ScaleArg.status().message().c_str());
    return 2;
  }
  double Scale = *ScaleArg;
  uint32_t CacheSize = 256 << 10;
  Status Fault = faultInjector().armFromEnv();
  if (!Fault.ok()) {
    std::fprintf(stderr, "error: %s\n", Fault.message().c_str());
    return 2;
  }

  const Workload *W = findWorkload(Name);
  if (!W) {
    std::fprintf(stderr, "error: unknown workload '%s' (try orbit/imps/lp/"
                         "nbody/gambit)\n",
                 Name.c_str());
    return 2;
  }
  std::printf("tuning collectors for %s (scale %.2f, %s cache, 64b "
              "blocks)\n\n",
              Name.c_str(), Scale, fmtSize(CacheSize).c_str());

  ExperimentOptions Base;
  Base.Scale = Scale;
  Base.Grid = CacheGridKind::SizeSweep;
  Expected<ProgramRun> Ctl = tryRunProgram(*W, Base);
  if (!Ctl.ok()) {
    std::fprintf(stderr, "FAILED %s (control): %s\n", Name.c_str(),
                 Ctl.status().toString().c_str());
    return 1;
  }
  ProgramRun Control = Ctl.take();
  uint32_t Semi = static_cast<uint32_t>(Control.AllocBytes / 5 + 0xffff) &
                  ~0xffffu;
  if (Semi < (512u << 10))
    Semi = 512u << 10;

  struct Row {
    std::string Label;
    ProgramRun Run;
  };
  std::vector<Row> Rows;

  bool AnyFailed = false;
  auto AddGcRun = [&](const std::string &Label, GcKind Kind,
                      uint32_t SemiBytes, uint32_t Nursery) {
    ExperimentOptions O = Base;
    O.Gc = Kind;
    O.SemispaceBytes = SemiBytes;
    O.Generational.NurseryBytes = Nursery;
    O.Generational.OldSemispaceBytes = SemiBytes;
    std::printf("running %s...\n", Label.c_str());
    Expected<ProgramRun> R = tryRunProgram(*W, O);
    if (!R.ok()) {
      std::fprintf(stderr, "FAILED %s: %s\n", Label.c_str(),
                   R.status().toString().c_str());
      AnyFailed = true;
      return;
    }
    Rows.push_back({Label, R.take()});
  };
  AddGcRun("cheney/" + fmtSize(Semi), GcKind::Cheney, Semi, 0);
  AddGcRun("cheney/" + fmtSize(Semi * 2), GcKind::Cheney, Semi * 2, 0);
  AddGcRun("gen/nursery-128kb", GcKind::Generational, Semi, 128 << 10);
  AddGcRun("gen/nursery-1mb", GcKind::Generational, Semi, 1 << 20);

  for (const Machine &M : {slowMachine(), fastMachine()}) {
    std::printf("\n--- %s processor, total overhead (O_cache + O_gc) ---\n",
                M.Processor.Name.c_str());
    const Cache *CtC = Control.Bank->find(CacheSize, 64);
    double BaseOverhead = controlOverhead(*CtC, Control, M);
    Table T({"configuration", "collections", "O_cache", "O_gc", "total"});
    T.addRow({"no gc (control)", "0", fmtPercent(BaseOverhead), "-",
              fmtPercent(BaseOverhead)});
    for (const Row &R : Rows) {
      const Cache *GcC = R.Run.Bank->find(CacheSize, 64);
      double OGc = gcOverhead(gcInputsFor(*GcC, *CtC, R.Run, M));
      T.addRow({R.Label, std::to_string(R.Run.Collections),
                fmtPercent(BaseOverhead), fmtPercent(OGc),
                fmtPercent(BaseOverhead + OGc)});
    }
    std::fputs(T.toString().c_str(), stdout);
  }
  std::printf("\nReading the table: the paper argues the winner should be "
              "an infrequently-run\ngenerational configuration; lp "
              "punishes plain Cheney hardest.\n");
  return AnyFailed ? 1 : 0;
}
