//===- crash_sweep.cpp - Power-loss crash-point sweep driver ----------------===//
//
// Operator tool for the hostile-storage sweep (core/CrashSim.h): records a
// collector trace into an in-memory FaultVfs, replays it once to fix the
// reference digest, then cuts the power at every durable-state transition
// of the checkpointed replay and proves each crash recovers — stale-tmp
// sweep, A/B slot fallback, resume — to the bit-identical final state.
//
// Flags (besides the shared --scale/--threads/--crosscheck/--audit):
//   --gc=<kind>      cheney | generational | marksweep | all (default all)
//   --max-cuts=<n>   cap tested crash points per collector, evenly spread
//                    over the full operation range (0 = every operation;
//                    CI smoke uses a small cap)
//   --every-refs=<n> periodic checkpoint cadence in trace records
//                    (default 5000; GC boundaries always checkpoint)
//   --heap-bytes=<n> semispace/heap/nursery bytes of the recorded run
//                    (default 64 KiB — small enough that every collector
//                    cycles within the trimmed trace)
//
// Exit codes: 0 every crash point recovered bit-identically, 1 any
// divergence or unrecoverable cut, 2 usage error.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "gcache/core/CrashSim.h"

using namespace gcache;

namespace {

struct Kind {
  const char *Name;
  GcKind Gc;
};

const Kind Kinds[] = {
    {"cheney", GcKind::Cheney},
    {"generational", GcKind::Generational},
    {"marksweep", GcKind::MarkSweep},
};

} // namespace

int main(int Argc, char **Argv) {
  BenchArgs A = parseBenchArgs(Argc, Argv,
                               {"gc", "max-cuts", "every-refs", "heap-bytes"});

  std::string GcName = flagOrExit(A.Opts.getStrict("gc", "all"));
  Expected<unsigned> MaxCuts = A.Opts.getStrictUnsigned("max-cuts", 0);
  Expected<unsigned> EveryRefs = A.Opts.getStrictUnsigned("every-refs", 5000);
  Expected<unsigned> HeapBytes =
      A.Opts.getStrictUnsigned("heap-bytes", 64 << 10);
  if (!MaxCuts.ok() || !EveryRefs.ok() || !HeapBytes.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 (!MaxCuts.ok()   ? MaxCuts.status()
                  : !EveryRefs.ok() ? EveryRefs.status()
                                    : HeapBytes.status())
                     .message()
                     .c_str());
    return 2;
  }

  std::vector<Kind> Run;
  for (const Kind &K : Kinds)
    if (GcName == "all" || GcName == K.Name)
      Run.push_back(K);
  if (Run.empty()) {
    std::fprintf(stderr,
                 "error: --gc must be cheney, generational, marksweep, or "
                 "all; got '%s'\n",
                 GcName.c_str());
    return 2;
  }

  bool AllOk = true;
  std::printf("%-14s %8s %8s %8s %8s %8s %8s %8s %10s\n", "collector",
              "records", "ops", "cuts", "fired", "resumes", "fallback",
              "scrubs", "digest");
  for (const Kind &K : Run) {
    CrashSweepOptions O;
    O.Gc = K.Gc;
    O.Scale = A.Scale == 0.3 ? 0.05 : A.Scale; // Bench default is too big.
    O.SemispaceBytes = *HeapBytes;
    O.Threads = A.Threads;
    O.EveryRefs = *EveryRefs;
    O.CrossCheck = A.CrossCheck;
    O.Audit = A.Audit;
    O.MaxCuts = *MaxCuts;
    Expected<CrashSweepResult> R = runCrashSweep(O);
    if (!R) {
      std::printf("%-14s FAILED: %s\n", K.Name,
                  R.status().message().c_str());
      AllOk = false;
      continue;
    }
    std::printf("%-14s %8llu %8llu %8llu %8llu %8llu %8llu %8llu %10u\n",
                K.Name,
                static_cast<unsigned long long>(R->TraceRecords),
                static_cast<unsigned long long>(R->MutatingOps),
                static_cast<unsigned long long>(R->CutsTested),
                static_cast<unsigned long long>(R->CutsFired),
                static_cast<unsigned long long>(R->Resumes),
                static_cast<unsigned long long>(R->SlotFallbacks),
                static_cast<unsigned long long>(R->SlotScrubs),
                R->ReferenceDigest);
  }
  return AllOk ? 0 : 1;
}
