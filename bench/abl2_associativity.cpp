//===- abl2_associativity.cpp - §4 ablation: set associativity ----------------===//
//
// The paper restricts itself to direct-mapped caches (§4), arguing they
// are what high-performance machines use and that the programs suit them.
// This ablation quantifies what associativity would have bought: miss
// ratios and O_cache for 1-, 2-, and 4-way caches (LRU) at 64-byte
// blocks over the cache-size axis, for orbit and gambit (the best- and
// worst-spread programs of §7).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace gcache;

int main(int Argc, char **Argv) {
  BenchArgs A = parseBenchArgs(Argc, Argv);
  benchHeader("Ablation 2 (§4)", "direct-mapped vs set-associative", A);

  Machine Slow = slowMachine();
  std::vector<uint32_t> Ways = {1, 2, 4};
  std::vector<std::string> Names =
      A.Workload.empty() ? std::vector<std::string>{"orbit", "gambit"}
                         : std::vector<std::string>{A.Workload};

  BenchUnitRunner Runner;
  for (const std::string &Name : Names) {
    const Workload *W = findWorkload(Name);

    // One run; the bank holds every (size, ways) combination.
    auto Bank = std::make_unique<CacheBank>();
    for (uint32_t Size : paperCacheSizes())
      for (uint32_t Way : Ways) {
        CacheConfig C;
        C.SizeBytes = Size;
        C.BlockBytes = 64;
        C.Ways = Way;
        Bank->addConfig(C);
      }
    // The bank rides as an extra sink, outside runProgram's own bank, so
    // the thread count and the validation flags are applied to it directly.
    if (A.CrossCheck)
      Bank->enableCrossCheck();
    Bank->setThreads(A.Threads, A.BatchRefs);

    ExperimentOptions Opts = baseExperimentOptions(A);
    Opts.Grid = CacheGridKind::None;
    Opts.ExtraSinks = {Bank.get()};
    std::printf("running %s...\n", W->Name.c_str());
    Expected<ProgramRun> R = Runner.run(W->Name, *W, Opts);
    if (!R.ok())
      continue;
    ProgramRun Run = R.take();

    // Draining the workers rethrows a worker's failure. Simulating the
    // bank's last batch compares its references with the oracles, and the
    // flush deep-compares every cache; either throws.
    Status V;
    try {
      Bank->setThreads(0);
      if (A.Audit)
        V = Bank->auditAll();
    } catch (const StatusError &E) {
      V = E.status();
    }
    if (!V.ok()) {
      Runner.recordFailure(W->Name + " validation", V);
      continue;
    }

    std::printf("\n--- %s: O_cache (slow processor) by associativity ---\n",
                W->Name.c_str());
    Table T({"cache", "direct", "2-way", "4-way", "direct misses",
             "4-way misses"});
    for (uint32_t Size : paperCacheSizes()) {
      std::vector<std::string> Row = {fmtSize(Size)};
      uint64_t DirectMisses = 0, Way4Misses = 0;
      for (uint32_t Way : Ways) {
        const Cache *C = nullptr;
        for (size_t I = 0; I != Bank->size(); ++I)
          if (Bank->cache(I).config().SizeBytes == Size &&
              Bank->cache(I).config().Ways == Way)
            C = &Bank->cache(I);
        Row.push_back(fmtPercent(controlOverhead(*C, Run, Slow)));
        if (Way == 1)
          DirectMisses = C->counters(Phase::Mutator).FetchMisses;
        if (Way == 4)
          Way4Misses = C->counters(Phase::Mutator).FetchMisses;
      }
      Row.push_back(fmtCount(DirectMisses));
      Row.push_back(fmtCount(Way4Misses));
      T.addRow(Row);
    }
    printTable(T, A);
  }
  std::printf("\nExpected: modest gains from associativity — the programs' "
              "one-cycle allocation behaviour already avoids most conflict "
              "misses, supporting the paper's direct-mapped focus.\n");
  return Runner.finish();
}
