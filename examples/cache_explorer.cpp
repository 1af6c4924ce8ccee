//===- cache_explorer.cpp - Sweep cache designs for a workload -----------------===//
//
// Example: explore the §4 cache design space for one workload and emit a
// CSV of (cache size, block size, associativity, policy) -> miss counts
// and overheads, ready for plotting. One program run feeds every
// configuration simultaneously.
//
// Usage: cache_explorer [--workload gambit] [--scale 0.3] > sweep.csv
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
                     "usage: cache_explorer [--workload W] [--scale S]",
                     /*EnvOnly=*/{"fault"});
  std::string Name = Opts.get("workload", "gambit");
  Expected<double> ScaleArg = Opts.getStrictPositiveDouble("scale", 0.3);
  if (!ScaleArg.ok()) {
    std::fprintf(stderr, "error: %s\n", ScaleArg.status().message().c_str());
    return 2;
  }
  double Scale = *ScaleArg;
  Status Fault = faultInjector().armFromEnv();
  if (!Fault.ok()) {
    std::fprintf(stderr, "error: %s\n", Fault.message().c_str());
    return 2;
  }

  const Workload *W = findWorkload(Name);
  if (!W) {
    std::fprintf(stderr, "error: unknown workload '%s'\n", Name.c_str());
    return 2;
  }

  // Build a bank covering sizes x blocks x {direct, 2-way} x both
  // write-miss policies.
  auto Bank = std::make_unique<CacheBank>();
  for (uint32_t Size : paperCacheSizes())
    for (uint32_t Block : paperBlockSizes())
      for (uint32_t Ways : {1u, 2u})
        for (WriteMissPolicy P :
             {WriteMissPolicy::WriteValidate, WriteMissPolicy::FetchOnWrite}) {
          CacheConfig C;
          C.SizeBytes = Size;
          C.BlockBytes = Block;
          C.Ways = Ways;
          C.WriteMiss = P;
          Bank->addConfig(C);
        }
  std::fprintf(stderr, "simulating %zu cache configurations in one pass "
                       "of %s...\n",
               Bank->size(), Name.c_str());

  ExperimentOptions O;
  O.Scale = Scale;
  O.Grid = CacheGridKind::None;
  O.ExtraSinks = {Bank.get()};
  Expected<ProgramRun> R = tryRunProgram(*W, O);
  if (!R.ok()) {
    std::fprintf(stderr, "FAILED %s: %s\n", Name.c_str(),
                 R.status().toString().c_str());
    return 1;
  }
  ProgramRun Run = R.take();

  Machine Slow = slowMachine();
  Machine Fast = fastMachine();
  std::printf("workload,cache_bytes,block_bytes,ways,policy,refs,"
              "fetch_misses,alloc_misses,writebacks,miss_ratio,"
              "o_cache_slow,o_cache_fast\n");
  for (size_t I = 0; I != Bank->size(); ++I) {
    const Cache &C = Bank->cache(I);
    CacheCounters T = C.totalCounters();
    std::printf(
        "%s,%u,%u,%u,%s,%llu,%llu,%llu,%llu,%.6f,%.6f,%.6f\n", Name.c_str(),
        C.config().SizeBytes, C.config().BlockBytes, C.config().Ways,
        C.config().WriteMiss == WriteMissPolicy::WriteValidate ? "wv" : "fow",
        static_cast<unsigned long long>(T.refs()),
        static_cast<unsigned long long>(T.FetchMisses),
        static_cast<unsigned long long>(T.NoFetchMisses),
        static_cast<unsigned long long>(T.Writebacks),
        static_cast<double>(T.FetchMisses) / T.refs(),
        controlOverhead(C, Run, Slow), controlOverhead(C, Run, Fast));
  }
  std::fprintf(stderr, "done: %s refs, %s instructions\n",
               fmtCount(Run.TotalRefs).c_str(),
               fmtCount(Run.Stats.Instructions).c_str());
  return 0;
}
