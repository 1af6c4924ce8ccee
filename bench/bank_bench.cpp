//===- bank_bench.cpp - Paper-grid bank throughput to BENCH_bank.json -----===//
//
// Measures the refs/s of the full §4 paper-grid cache bank on a real
// reference stream — the first --refs references of one orbit run at
// --scale, recorded in memory at start-up (bench/OrbitStream.h) — in three
// modes: a reference loop feeding 40 standalone caches one reference at a
// time through Cache::access, the bank with its lanes inline (0 threads),
// and the bank on N worker threads. Counters must be bit-identical across
// every mode; this binary verifies that before reporting any number, so a
// speedup can never come from simulating something else.
//
// Flags (besides the shared bench flags; --threads picks the threaded
// mode's worker count, --batch the batch size, --scale orbit's scale):
//   --refs=N                   cap on the recorded stream (default 4194304)
//   --repeat=N                 timed repetitions per mode; best is kept
//                              (default 3)
//   --out=<path>               JSON output (default BENCH_bank.json)
//   --require-batch-speedup=X  exit 1 unless the inline bank's refs/s >=
//                              X * the reference loop's (CI uses 1.0)
//
// Each run appends one object to the JSON array in --out:
//   {
//     "bench": "bank_paper_grid", "stream": "orbit", "scale": S,
//     "machine": "<cpu model>, <n> cpus",
//     "refs": N, "configs": C, "batch_refs": B, "threads": T,
//     "modes": [ {"name": "...", "seconds": S, "refs_per_sec": R}, ... ],
//     "speedup_inline_vs_reference": X, "speedup_threaded_vs_reference": Y
//   }
//
// Exit codes: 0 ok, 1 counter mismatch across modes or a failed
// --require-batch-speedup gate, 2 usage error.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "OrbitStream.h"

#include "gcache/memsys/CacheBank.h"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <fstream>
#include <thread>

using namespace gcache;

namespace {

struct ModeResult {
  std::string Name;
  double Seconds = -1;
  double RefsPerSec = 0;
};

/// Runs \p Pass \p Repeat times and keeps the fastest wall-clock pass.
template <typename Fn>
ModeResult timeMode(std::string Name, size_t Refs, unsigned Repeat, Fn Pass) {
  ModeResult Out;
  Out.Name = std::move(Name);
  for (unsigned Rep = 0; Rep != Repeat; ++Rep) {
    auto T0 = std::chrono::steady_clock::now();
    Pass();
    double S = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - T0)
                   .count();
    if (Out.Seconds < 0 || S < Out.Seconds)
      Out.Seconds = S;
  }
  Out.RefsPerSec = Out.Seconds > 0 ? Refs / Out.Seconds : 0;
  return Out;
}

/// Feeds the stream once through a freshly reset \p Bank.
void bankPass(CacheBank &Bank, const std::vector<Ref> &Stream) {
  Bank.resetAll();
  for (const Ref &R : Stream)
    Bank.onRef(R);
  Bank.flush();
}

bool sameCounters(const Cache &X, const Cache &Y) {
  for (Phase P : {Phase::Mutator, Phase::Collector}) {
    const CacheCounters &A = X.counters(P);
    const CacheCounters &B = Y.counters(P);
    if (A.Loads != B.Loads || A.Stores != B.Stores ||
        A.FetchMisses != B.FetchMisses ||
        A.NoFetchMisses != B.NoFetchMisses || A.Writebacks != B.Writebacks ||
        A.WriteThroughs != B.WriteThroughs)
      return false;
  }
  return true;
}

std::string machineName() {
  std::string Cpu = "unknown cpu";
  std::ifstream In("/proc/cpuinfo");
  for (std::string Line; std::getline(In, Line);)
    if (Line.starts_with("model name")) {
      size_t Colon = Line.find(':');
      if (Colon != std::string::npos)
        Cpu = Line.substr(Colon + 2);
      break;
    }
  std::replace_if(
      Cpu.begin(), Cpu.end(), [](char C) { return C == '"' || C == '\\'; },
      ' '); // kept verbatim in the JSON string
  return Cpu + ", " + std::to_string(std::thread::hardware_concurrency()) +
         " cpus";
}

} // namespace

int main(int Argc, char **Argv) {
  BenchArgs A = parseBenchArgs(
      Argc, Argv, {"refs", "repeat", "out", "require-batch-speedup"});

  Expected<unsigned> Refs = A.Opts.getStrictUnsigned("refs", 1u << 22);
  Expected<unsigned> Repeat = A.Opts.getStrictUnsigned("repeat", 3);
  Expected<double> Gate =
      A.Opts.getStrictDouble("require-batch-speedup", 0.0);
  for (const Status *S : {&Refs.status(), &Repeat.status(), &Gate.status()})
    if (!S->ok()) {
      std::fprintf(stderr, "error: %s\n", S->message().c_str());
      return 2;
    }
  if (*Refs == 0 || *Repeat == 0) {
    std::fprintf(stderr, "error: --refs and --repeat must be nonzero\n");
    return 2;
  }
  std::string OutPath =
      flagOrExit(A.Opts.getStrict("out", "BENCH_bank.json"));
  size_t BatchRefs = A.BatchRefs ? A.BatchRefs : CacheBank::DefaultBatchRefs;
  unsigned Threads = A.Threads;
  if (Threads == 0)
    Threads = std::clamp(std::thread::hardware_concurrency(), 2u, 8u);

  std::vector<Ref> Stream = recordOrbitStream(A.Scale, *Refs);

  CacheBank Inline, Threaded;
  Inline.addPaperGrid(CacheConfig{});
  Threaded.addPaperGrid(CacheConfig{});
  Inline.setThreads(0, BatchRefs);
  Threaded.setThreads(Threads, BatchRefs);
  std::vector<Cache> Reference;
  for (size_t I = 0; I != Inline.size(); ++I)
    Reference.emplace_back(Inline.cache(I).config());

  ModeResult Modes[3] = {
      timeMode("reference-loop", Stream.size(), *Repeat,
               [&] {
                 for (Cache &C : Reference)
                   C.reset();
                 for (const Ref &R : Stream)
                   for (Cache &C : Reference)
                     (void)C.access(R);
               }),
      timeMode("bank-inline", Stream.size(), *Repeat,
               [&] { bankPass(Inline, Stream); }),
      timeMode("bank-" + std::to_string(Threads) + "-threads", Stream.size(),
               *Repeat, [&] { bankPass(Threaded, Stream); }),
  };

  // No speedup number is worth reporting unless every mode simulated the
  // exact same thing.
  for (size_t I = 0; I != Reference.size(); ++I)
    if (!sameCounters(Reference[I], Inline.cache(I)) ||
        !sameCounters(Reference[I], Threaded.cache(I))) {
      std::fprintf(stderr,
                   "error: counters of %s diverged across modes — the "
                   "measurement is void\n",
                   Reference[I].config().label().c_str());
      return 1;
    }

  double InlineSpeedup = Modes[1].RefsPerSec / Modes[0].RefsPerSec;
  double ThreadSpeedup = Modes[2].RefsPerSec / Modes[0].RefsPerSec;
  std::string Machine = machineName();

  std::printf("bank_bench: %zu orbit refs (scale %g) x %zu configs, batch "
              "%zu, %u threads, best of %u\n  machine: %s\n",
              Stream.size(), A.Scale, Reference.size(), BatchRefs, Threads,
              *Repeat, Machine.c_str());
  for (const ModeResult &M : Modes)
    std::printf("  %-16s %8.3f s   %12.0f refs/s\n", M.Name.c_str(),
                M.Seconds, M.RefsPerSec);
  std::printf("  inline vs reference: %.2fx, threaded vs reference: %.2fx\n",
              InlineSpeedup, ThreadSpeedup);

  // The output file is append-mode history: every run adds a timestamped
  // entry to the JSON array instead of erasing the previous trajectory.
  char Entry[2048];
  int Len = std::snprintf(
      Entry, sizeof(Entry),
      "{\n"
      "  \"bench\": \"bank_paper_grid\",\n"
      "  \"unix_time\": %lld,\n"
      "  \"stream\": \"orbit\",\n"
      "  \"scale\": %g,\n"
      "  \"machine\": \"%s\",\n"
      "  \"refs\": %zu,\n"
      "  \"configs\": %zu,\n"
      "  \"batch_refs\": %zu,\n"
      "  \"threads\": %u,\n"
      "  \"modes\": [\n",
      static_cast<long long>(std::time(nullptr)), A.Scale,
      Machine.c_str(), Stream.size(), Reference.size(), BatchRefs,
      Threads);
  std::string Obj(Entry, Len > 0 ? static_cast<size_t>(Len) : 0);
  for (int I = 0; I != 3; ++I) {
    Len = std::snprintf(Entry, sizeof(Entry),
                        "    {\"name\": \"%s\", \"seconds\": %.6f, "
                        "\"refs_per_sec\": %.0f}%s\n",
                        Modes[I].Name.c_str(), Modes[I].Seconds,
                        Modes[I].RefsPerSec, I == 2 ? "" : ",");
    Obj.append(Entry, Len > 0 ? static_cast<size_t>(Len) : 0);
  }
  Len = std::snprintf(Entry, sizeof(Entry),
                      "  ],\n"
                      "  \"speedup_inline_vs_reference\": %.3f,\n"
                      "  \"speedup_threaded_vs_reference\": %.3f\n"
                      "}",
                      InlineSpeedup, ThreadSpeedup);
  Obj.append(Entry, Len > 0 ? static_cast<size_t>(Len) : 0);
  if (appendBenchJson(OutPath, Obj)) {
    std::printf("appended to %s\n", OutPath.c_str());
  } else {
    std::fprintf(stderr, "error: cannot write '%s'\n", OutPath.c_str());
    return 1;
  }

  if (*Gate > 0 && InlineSpeedup < *Gate) {
    std::fprintf(stderr,
                 "error: inline bank speedup %.2fx is below the required "
                 "%.2fx\n",
                 InlineSpeedup, *Gate);
    return 1;
  }
  return 0;
}
