//===- ext1_multilevel.cpp - §4 future work: two-level caches -----------------===//
//
// The paper's §4 defers multi-level caches to future work while
// conjecturing that its results extend to them. This extension tests the
// conjecture: the five programs run (no GC) against two-level hierarchies
// pairing a small on-chip L1 (8-64 KB, 32-byte blocks) with a 1 MB L2
// (64-byte blocks), on the fast processor where hierarchy matters.
//
// Expected: the combined overhead of (small L1 + big L2) lands close to
// the single-level big-cache overhead — i.e. the paper's single-level
// conclusions carry over, because the allocation wave that misses in L1
// mostly hits in L2.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "gcache/memsys/MultiLevelCache.h"

using namespace gcache;

int main(int Argc, char **Argv) {
  BenchArgs A = parseBenchArgs(Argc, Argv);
  benchHeader("Extension 1 (§4 future work)",
              "two-level cache hierarchies, no GC, fast processor", A);

  std::vector<uint32_t> L1Sizes = {8u << 10, 16u << 10, 32u << 10,
                                   64u << 10};
  Machine Fast = fastMachine();
  L2Timing L2T;

  Table T({"program", "L1 8kb", "L1 16kb", "L1 32kb", "L1 64kb",
           "single 1mb", "single 64kb"});

  BenchUnitRunner Runner;
  for (const Workload *W : selectWorkloads(A)) {
    // One run feeds all hierarchies plus two single-level references.
    std::vector<std::unique_ptr<MultiLevelCache>> Levels;
    for (uint32_t L1Size : L1Sizes) {
      CacheConfig L1C, L2C;
      L1C.SizeBytes = L1Size;
      L1C.BlockBytes = 32;
      L2C.SizeBytes = 1 << 20;
      L2C.BlockBytes = 64;
      Levels.push_back(std::make_unique<MultiLevelCache>(L1C, L2C));
    }
    Cache Single1mb({.SizeBytes = 1 << 20, .BlockBytes = 64});
    Cache Single64kb({.SizeBytes = 64 << 10, .BlockBytes = 32});
    // These ride as extra sinks, outside any bank, so the validation
    // flags are applied directly.
    if (A.CrossCheck) {
      for (auto &L : Levels)
        L->enableCrossCheck();
      Single1mb.enableCrossCheck();
      Single64kb.enableCrossCheck();
    }

    ExperimentOptions O = baseExperimentOptions(A);
    O.Grid = CacheGridKind::None;
    for (auto &L : Levels)
      O.ExtraSinks.push_back(L.get());
    O.ExtraSinks.push_back(&Single1mb);
    O.ExtraSinks.push_back(&Single64kb);
    std::printf("running %s...\n", W->Name.c_str());
    Expected<ProgramRun> R = Runner.run(W->Name, *W, O);
    if (!R.ok())
      continue;
    ProgramRun Run = R.take();

    if (A.CrossCheck || A.Audit) {
      Status V;
      for (auto &L : Levels) {
        if (A.CrossCheck && V.ok())
          V = L->crossCheckNow();
        if (A.Audit && V.ok())
          V = L->auditState();
      }
      for (const Cache *Single : {&Single1mb, &Single64kb}) {
        if (A.CrossCheck && V.ok())
          V = Single->crossCheckNow();
        if (A.Audit && V.ok())
          V = Single->auditState();
      }
      if (!V.ok()) {
        Runner.recordFailure(W->Name + " validation", V);
        continue;
      }
    }

    std::vector<std::string> Row = {W->Name};
    for (auto &L : Levels)
      Row.push_back(fmtPercent(L->overhead(Fast.Memory, Fast.Processor, L2T,
                                           Run.Stats.Instructions)));
    Row.push_back(
        fmtPercent(controlOverhead(Single1mb, Run, Fast)));
    Row.push_back(
        fmtPercent(controlOverhead(Single64kb, Run, Fast)));
    T.addRow(Row);
  }
  std::printf("\n");
  printTable(T, A);
  std::printf("\nReading the table: two-level overheads should track the "
              "single-level 1mb column far more closely than the 64kb one "
              "— the paper's conjecture that its results extend to "
              "hierarchies.\n");
  return Runner.finish();
}
