//===- quickstart.cpp - Five-minute tour of the gcache API --------------------===//
//
// Builds a complete Scheme system, runs a small mostly-functional program
// while simulating a direct-mapped cache, and prints the paper's §5 cache
// overhead metric for it. This is the minimal end-to-end use of the
// library:
//
//   1. wire a trace bus with the sinks you care about;
//   2. construct a SchemeSystem (heap + collector + VM + prelude);
//   3. loadDefinitions() your program, run() the measured expression;
//   4. read the cache counters and evaluate the overhead metrics.
//
//===----------------------------------------------------------------------===//

#include "gcache/core/Experiment.h"
#include "gcache/memsys/Cache.h"
#include "gcache/support/FaultInjector.h"
#include "gcache/support/Options.h"
#include "gcache/support/Table.h"
#include "gcache/trace/Sinks.h"
#include "gcache/vm/SchemeSystem.h"

#include <cstdio>

using namespace gcache;

int main(int Argc, char **Argv) {
  Options::parse(Argc, Argv)
      .exitOnUnknown({}, "usage: quickstart", /*EnvOnly=*/{"fault"});
  Status Fault = faultInjector().armFromEnv();
  if (!Fault.ok()) {
    std::fprintf(stderr, "error: %s\n", Fault.message().c_str());
    return 2;
  }
  // 1. A cache to simulate (64 KB direct-mapped, 64-byte blocks,
  //    write-validate — the paper's workhorse configuration) and a
  //    counter for the reference totals.
  Cache Sim({.SizeBytes = 64 << 10, .BlockBytes = 64});
  CountingSink Counts;
  TraceBus Bus;
  Bus.addSink(&Sim);
  Bus.addSink(&Counts);

  // 2. A Scheme system with no garbage collector: linear allocation in
  //    one contiguous area, exactly the paper's control experiment.
  SchemeSystemConfig Config;
  Config.Gc = GcKind::None;
  Config.Bus = &Bus;
  SchemeSystem Scheme(Config);

  // 3. A little mostly-functional program: build and sum many short-lived
  //    lists (loaded untraced, then the run expression is measured).
  Scheme.loadDefinitions(R"scheme(
    (define (build n) (if (= n 0) '() (cons n (build (- n 1)))))
    (define (sum l) (fold-left + 0 l))
    (define (church-sum rounds)
      (let loop ((i 0) (acc 0))
        (if (= i rounds)
            acc
            (loop (+ i 1) (+ acc (sum (build 100)))))))
  )scheme");
  // Failures (a read error, an injected fault via GCACHE_FAULT, heap
  // exhaustion) surface as StatusError; catch at the unit boundary.
  Value Result;
  try {
    Result = Scheme.run("(church-sum 2000)");
  } catch (const StatusError &E) {
    std::fprintf(stderr, "FAILED: %s\n", E.status().toString().c_str());
    return 1;
  }

  // 4. Report.
  const RunStats &Stats = Scheme.lastRunStats();
  Machine Slow = slowMachine();
  Machine Fast = fastMachine();
  uint64_t Misses = Sim.counters(Phase::Mutator).FetchMisses;

  std::printf("result                : %s\n",
              Scheme.vm().valueToString(Result, true).c_str());
  std::printf("instructions          : %s\n",
              fmtCount(Stats.Instructions).c_str());
  std::printf("data references       : %s (%.2f per instruction)\n",
              fmtCount(Counts.totalRefs()).c_str(),
              double(Counts.totalRefs()) / Stats.Instructions);
  std::printf("bytes allocated       : %s\n",
              fmtCount(Stats.DynamicBytes).c_str());
  std::printf("cache                 : %s\n", Sim.config().label().c_str());
  std::printf("fetch misses          : %s (miss ratio %.4f)\n",
              fmtCount(Misses).c_str(),
              double(Misses) / Counts.totalRefs());
  std::printf("O_cache (33 MHz slow) : %s\n",
              fmtPercent(cacheOverhead(Misses, Slow.penaltyCycles(64),
                                       Stats.Instructions))
                  .c_str());
  std::printf("O_cache (500 MHz fast): %s\n",
              fmtPercent(cacheOverhead(Misses, Fast.penaltyCycles(64),
                                       Stats.Instructions))
                  .c_str());
  std::printf("\nThe paper's claim in one number: even this naive, "
              "allocation-heavy program\nmostly stays under a few percent "
              "overhead in a small direct-mapped cache,\nwith no garbage "
              "collector helping it.\n");
  return 0;
}
