//===- micro_throughput.cpp - google-benchmark microbenchmarks ----------------===//
//
// Throughput of the simulation substrates themselves (not a paper
// artefact): cache-simulator accesses/s for sequential and random
// streams, paper-grid bank refs/s on a real stream, VM
// instructions/s, and Cheney copy bandwidth. Useful for sizing --scale
// against a time budget and --threads against the machine.
//
//===----------------------------------------------------------------------===//

#include "OrbitStream.h"

#include "gcache/gc/CheneyCollector.h"
#include "gcache/memsys/Cache.h"
#include "gcache/memsys/CacheBank.h"
#include "gcache/support/Random.h"
#include "gcache/vm/SchemeSystem.h"

#include <benchmark/benchmark.h>

#include <vector>

using namespace gcache;

static void BM_CacheSequentialStores(benchmark::State &State) {
  CacheConfig Config;
  Config.SizeBytes = static_cast<uint32_t>(State.range(0));
  Config.BlockBytes = 64;
  Cache Sim(Config);
  Address A = Heap::DynamicBase;
  for (auto _ : State) {
    Sim.onRef({A, AccessKind::Store, Phase::Mutator});
    A += 4;
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_CacheSequentialStores)->Arg(64 << 10)->Arg(4 << 20);

static void BM_CacheRandomLoads(benchmark::State &State) {
  CacheConfig Config;
  Config.SizeBytes = static_cast<uint32_t>(State.range(0));
  Config.BlockBytes = 64;
  Cache Sim(Config);
  Rng R(42);
  for (auto _ : State) {
    Address A = Heap::DynamicBase +
                (static_cast<Address>(R.below(1u << 24)) & ~3u);
    Sim.onRef({A, AccessKind::Load, Phase::Mutator});
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_CacheRandomLoads)->Arg(64 << 10)->Arg(4 << 20);

// The workload every experiment pays for: one reference stream feeding the
// full §4 paper grid. The stream is the first million references of orbit
// (bench/OrbitStream.h), recorded once. BM_BankPaperGridReference feeds 40
// standalone caches one reference at a time through Cache::access; the
// BM_BankPaperGrid argument is the bank's worker-thread count (0 = lanes
// inline). Counters are bit-identical in every mode, so refs/s is the
// only thing that changes; bench/bank_bench.cpp writes the same
// comparison to BENCH_bank.json.
static const std::vector<Ref> &orbitStream() {
  static const std::vector<Ref> Stream = recordOrbitStream(0.1, 1 << 20);
  return Stream;
}

static void BM_BankPaperGridReference(benchmark::State &State) {
  const std::vector<Ref> &Stream = orbitStream();
  std::vector<Cache> Caches;
  for (uint32_t Size : paperCacheSizes())
    for (uint32_t Block : paperBlockSizes())
      Caches.emplace_back(CacheConfig{.SizeBytes = Size, .BlockBytes = Block});
  for (auto _ : State)
    for (const Ref &R : Stream)
      for (Cache &C : Caches)
        (void)C.access(R);
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(Stream.size()));
}
BENCHMARK(BM_BankPaperGridReference)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

static void BM_BankPaperGrid(benchmark::State &State) {
  const std::vector<Ref> &Stream = orbitStream();
  CacheBank Bank;
  Bank.addPaperGrid(CacheConfig{});
  Bank.setThreads(static_cast<unsigned>(State.range(0)));
  for (auto _ : State) {
    for (const Ref &R : Stream)
      Bank.onRef(R);
    Bank.flush();
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(Stream.size()));
}
BENCHMARK(BM_BankPaperGrid)
    ->ArgName("threads")
    ->Arg(0)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

static void BM_VmFibonacci(benchmark::State &State) {
  SchemeSystemConfig C;
  SchemeSystem S(C);
  S.loadDefinitions(
      "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))");
  uint64_t Instr = 0;
  for (auto _ : State) {
    uint64_t Before = S.vm().instructions();
    S.run("(fib 15)");
    Instr += S.vm().instructions() - Before;
  }
  State.SetItemsProcessed(static_cast<int64_t>(Instr));
  State.SetLabel("items = simulated instructions");
}
BENCHMARK(BM_VmFibonacci);

static void BM_CheneyCopyBandwidth(benchmark::State &State) {
  Heap H(nullptr);
  SimpleMutatorContext Mutator;
  CheneyCollector GC(H, Mutator, 8u << 20);
  // A live list of ~64k pairs (~768 KB) copied per collection.
  Value Head = Value::nil();
  Mutator.HostRoots.push_back(&Head);
  for (int I = 0; I != 64 * 1024; ++I)
    Head = makePair(H, GC, Value::fixnum(I), Head);
  uint64_t Words = 0;
  for (auto _ : State) {
    uint64_t Before = GC.stats().WordsCopied;
    GC.collect();
    Words += GC.stats().WordsCopied - Before;
  }
  State.SetBytesProcessed(static_cast<int64_t>(Words * 4));
}
BENCHMARK(BM_CheneyCopyBandwidth);

BENCHMARK_MAIN();
