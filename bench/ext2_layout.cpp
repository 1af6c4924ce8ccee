//===- ext2_layout.cpp - §7 extension: static placement sensitivity ------------===//
//
// The paper attributes nbody's and imps's occasional thrashing to busy
// blocks that happen to share a cache block, and remarks that curing it
// "does not require a specialized garbage collector, but can be achieved
// by straightforward static methods that move frequently-accessed
// objects so that they do not collide" [its ref 33]. This extension
// quantifies that: each program runs under several static-area layouts
// (different scatter seeds re-roll which busy static blocks collide) and
// reports the spread of O_cache in a 64 KB cache. A large max/min ratio
// means performance is placement luck — and that placement is the cheap
// fix the paper claims.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace gcache;

int main(int Argc, char **Argv) {
  BenchArgs A = parseBenchArgs(Argc, Argv, {"seeds"});
  benchHeader("Extension 2 (§7)",
              "static-layout sensitivity: O_cache across scatter seeds "
              "(64kb/64b, slow processor)",
              A);
  Expected<unsigned> SeedCount = A.Opts.getStrictUnsigned("seeds", 6);
  if (!SeedCount.ok()) {
    std::fprintf(stderr, "error: %s\n", SeedCount.status().message().c_str());
    return 2;
  }
  int Seeds = static_cast<int>(*SeedCount);

  Machine Slow = slowMachine();
  std::vector<std::string> Header = {"program"};
  for (int S = 0; S != Seeds; ++S)
    Header.push_back("seed " + std::to_string(S));
  Header.push_back("max/min");
  Table T(Header);

  BenchUnitRunner Runner;
  for (const Workload *W : selectWorkloads(A)) {
    std::vector<std::string> Row = {W->Name};
    double Lo = 1e9, Hi = 0;
    bool AllSeedsRan = true;
    for (int S = 0; S != Seeds; ++S) {
      Cache Sim({.SizeBytes = 64 << 10, .BlockBytes = 64});
      // The cache rides as an extra sink, outside any bank, so the
      // validation flags are applied to it directly.
      if (A.CrossCheck)
        Sim.enableCrossCheck();
      ExperimentOptions O = baseExperimentOptions(A);
      O.Grid = CacheGridKind::None;
      O.LayoutSeed = S == 0 ? 0 : static_cast<uint64_t>(S) * 7919;
      O.ExtraSinks = {&Sim};
      std::printf("running %s (layout seed %d)...\n", W->Name.c_str(), S);
      const std::string Unit = W->Name + " (seed " + std::to_string(S) + ")";
      Expected<ProgramRun> R = Runner.run(Unit, *W, O);
      if (!R.ok()) {
        AllSeedsRan = false;
        break;
      }
      Status V = Sim.crossCheckNow();
      if (V.ok() && A.Audit)
        V = Sim.auditState();
      if (!V.ok()) {
        Runner.recordFailure(Unit + " validation", V);
        AllSeedsRan = false;
        break;
      }
      double Ov = controlOverhead(Sim, *R, Slow);
      Lo = std::min(Lo, Ov);
      Hi = std::max(Hi, Ov);
      Row.push_back(fmtPercent(Ov));
    }
    if (!AllSeedsRan)
      continue;
    Row.push_back(Lo > 0 ? fmtDouble(Hi / Lo, 2) : "inf");
    T.addRow(Row);
  }
  std::printf("\n");
  printTable(T, A);
  std::printf("\nReading the table: the spread across seeds is the cost of "
              "unlucky busy-block placement; a layout pass that separates "
              "the hottest blocks gets the minimum column for free.\n");
  return Runner.finish();
}
