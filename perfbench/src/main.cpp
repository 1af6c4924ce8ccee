//===- main.cpp - perfbench command line and measurement loop -------------===//
//
// Part of the gcache project (Reinhold, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
//
// Runs one workload of the end-to-end benchmark and prints, as the last
// line of stdout, one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Usage:
//   perfbench --workload grid|mutator|section7|replay --seed N
//             --seconds S --trace 0|1 [--scale X] [--threads N]
//             [--workdir DIR] [--spans FILE]
//
// Every valued flag needs a value: a bare --seed exits 2, as do unknown
// flags and malformed numbers. Only a Release build reports numbers.
//
//===----------------------------------------------------------------------===//

#include "PerfBench.h"

#include "gcache/support/Options.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sched.h>
#include <string_view>
#include <sys/resource.h>
#include <unistd.h>

using namespace gcache;
using namespace perfbench;

namespace {

/// Set-up is repeated this often; setup_s is the median.
constexpr int SetupRepeats = 11;
/// The timed iterations are cut into this many consecutive blocks; run_s is
/// the median of the blocks' mean iteration times.
constexpr size_t RunBlocks = 3;
/// End-to-end runs measure at least this many pipeline iterations.
constexpr size_t MinIterations = RunBlocks;
/// The bench process runs the main thread plus at most this many workers.
constexpr unsigned MaxBankThreads = 2;

const char *const ValuedFlags[] = {"workload", "seed",  "seconds", "trace",
                                   "scale",    "threads", "workdir", "spans"};

[[noreturn]] void usageError(const std::string &Msg) {
  std::fprintf(stderr, "perfbench: %s\n", Msg.c_str());
  std::exit(2);
}

/// Every argument must be "--flag value" or "--flag=value" with a known
/// flag and a non-empty value; Options::parse would read a bare valued
/// flag as "1".
void checkArgv(int Argc, char **Argv) {
  auto Known = [](std::string_view Name) {
    for (const char *F : ValuedFlags)
      if (Name == F)
        return true;
    return false;
  };
  for (int I = 1; I < Argc; ++I) {
    std::string_view Arg = Argv[I];
    if (!Arg.starts_with("--"))
      usageError("unexpected argument '" + std::string(Arg) + "'");
    Arg.remove_prefix(2);
    size_t Eq = Arg.find('=');
    std::string_view Name = Arg.substr(0, Eq);
    if (!Known(Name))
      usageError("unknown flag --" + std::string(Name));
    if (Eq != std::string_view::npos) {
      if (Eq + 1 == Arg.size())
        usageError("--" + std::string(Name) + " needs a value");
      continue;
    }
    if (I + 1 == Argc || std::string_view(Argv[I + 1]).starts_with("--"))
      usageError("--" + std::string(Name) + " needs a value");
    ++I;
  }
}

template <typename T> T strict(Expected<T> V) {
  if (!V.ok())
    usageError(V.status().message());
  return *V;
}

BenchConfig parseConfig(int Argc, char **Argv) {
  checkArgv(Argc, Argv);
  Options O = Options::parse(Argc, Argv);
  BenchConfig C;
  C.Name = O.get("workload", "");
  if (C.Name == "grid")
    C.Kind = WorkloadKind::Grid;
  else if (C.Name == "mutator")
    C.Kind = WorkloadKind::Mutator;
  else if (C.Name == "section7")
    C.Kind = WorkloadKind::Section7;
  else if (C.Name == "replay")
    C.Kind = WorkloadKind::Replay;
  else
    usageError("--workload must be grid, mutator, section7 or replay");
  C.Seed = strict(O.getStrictUnsigned("seed", 0));
  C.Seconds = strict(O.getStrictDouble("seconds", 10));
  unsigned Trace = strict(O.getStrictUnsigned("trace", 0));
  C.Scale = strict(O.getStrictDouble("scale", 0.1));
  C.Threads = strict(O.getStrictUnsigned(
      "threads", C.Kind == WorkloadKind::Grid ? 2 : 0));
  C.WorkDir = O.get("workdir", "perfbench-work");
  C.SpansPath = O.get("spans", "");
  if (!(C.Seconds > 0 && C.Seconds <= 600))
    usageError("--seconds must be in (0, 600]");
  if (Trace > 1)
    usageError("--trace must be 0 or 1");
  C.Trace = Trace == 1;
  if (!(C.Scale > 0 && C.Scale <= 4))
    usageError("--scale must be in (0, 4]");
  if (C.Threads > MaxBankThreads)
    usageError("--threads must be at most " + std::to_string(MaxBankThreads));
  return C;
}

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  for (std::string Line; std::getline(In, Line);)
    if (Line.starts_with("model name")) {
      size_t Colon = Line.find(':');
      return Colon == std::string::npos ? Line : Line.substr(Colon + 2);
    }
  return "unknown";
}

double peakRssMb() {
  rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

/// Moves a single-threaded process on to the next CPU before each unit.
/// The CPUs of a shared host differ in speed from minute to minute;
/// rotating times every program on all of them, instead of on whichever
/// CPU the scheduler kept it on for the whole run. A process with bank
/// workers keeps every CPU: pinning its threads to a subset made the
/// spread of run_s over seeds worse, not better.
class CpuRotation {
public:
  explicit CpuRotation(unsigned Threads) {
    cpu_set_t Set;
    CPU_ZERO(&Set);
    if (Threads == 0 && sched_getaffinity(0, sizeof Set, &Set) == 0)
      for (int I = 0; I != CPU_SETSIZE; ++I)
        if (CPU_ISSET(I, &Set))
          Cpus.push_back(I);
  }

  /// Best effort: where affinity cannot be set, units run where they may.
  void next() {
    if (Cpus.size() < 2)
      return;
    cpu_set_t Set;
    CPU_ZERO(&Set);
    CPU_SET(Cpus[Turn++ % Cpus.size()], &Set);
    (void)sched_setaffinity(0, sizeof Set, &Set);
  }

private:
  std::vector<int> Cpus; ///< Empty when not rotating.
  size_t Turn = 0;
};

/// Runs and checks every unit of one pipeline iteration; returns the
/// units' results in program order.
std::vector<UnitResult> iterate(const BenchConfig &C,
                                const std::vector<Prepared> &Ps,
                                Checker &Check, CpuRotation &Rotation,
                                RunReport &R) {
  std::vector<UnitResult> Units;
  for (const Prepared &P : Ps) {
    Rotation.next();
    Units.push_back(runUnit(C, P));
    const UnitResult &U = Units.back();
    ++R.Attempted;
    if (std::string Err = Check.check(U); !Err.empty()) {
      ++R.Failed;
      std::fprintf(stderr, "FAILED %s/%s: %s\n", C.Name.c_str(),
                   U.Program.c_str(), Err.c_str());
    }
  }
  return Units;
}

/// Untraced end-to-end run. One warm-up iteration, checked but not timed,
/// then timed iterations until the time is up.
/// An iteration's time is the sum of its units' times. run_s is the median
/// of RunBlocks block means of those. On a shared host a unit runs either
/// at full speed or about 1.5 times slower, and the share of slow units
/// drifts from minute to minute. A median of unit times flips between the
/// two modes as that share passes one half; a block mean moves with the
/// share, and the median of the blocks ignores one block hit by a stall.
RunReport runEndToEnd(const BenchConfig &C, const std::vector<Prepared> &Ps,
                      Checker &Check, CpuRotation &Rotation) {
  RunReport R;
  uint64_t Refs = 0;
  for (const UnitResult &U : iterate(C, Ps, Check, Rotation, R)) {
    std::printf("unit %s/%s refs=%llu digest=%016llx output=%016llx\n",
                C.Name.c_str(), U.Program.c_str(),
                static_cast<unsigned long long>(U.Refs),
                static_cast<unsigned long long>(U.Digest),
                static_cast<unsigned long long>(U.OutputDigest));
    Refs += U.Refs;
  }

  std::vector<std::vector<double>> UnitSeconds(Ps.size());
  std::vector<double> IterationSeconds;
  double Start = nowSeconds();
  double LastWall = 0;
  while (IterationSeconds.size() < MinIterations ||
         nowSeconds() - Start + LastWall <= C.Seconds) {
    double WallStart = nowSeconds();
    std::vector<UnitResult> Units = iterate(C, Ps, Check, Rotation, R);
    double Sum = 0;
    for (size_t I = 0; I != Units.size(); ++I) {
      UnitSeconds[I].push_back(Units[I].Seconds);
      Sum += Units[I].Seconds;
    }
    IterationSeconds.push_back(Sum);
    LastWall = nowSeconds() - WallStart;
  }
  size_t Iterations = IterationSeconds.size();
  std::vector<double> BlockMeans;
  for (size_t B = 0; B != RunBlocks; ++B) {
    auto First = IterationSeconds.begin() + B * Iterations / RunBlocks;
    auto Last = IterationSeconds.begin() + (B + 1) * Iterations / RunBlocks;
    BlockMeans.push_back(std::accumulate(First, Last, 0.0) / (Last - First));
  }
  double RunS = median(BlockMeans);
  for (size_t I = 0; I != Ps.size(); ++I) {
    std::vector<double> &Times = UnitSeconds[I];
    std::sort(Times.begin(), Times.end());
    std::printf("time %s/%s n=%zu median=%.4f min=%.4f max=%.4f\n",
                C.Name.c_str(), Ps[I].W->Name.c_str(), Times.size(),
                median(Times), Times.front(), Times.back());
  }
  std::printf("iterations=%zu pinned_checks=%u block_means=", Iterations,
              Check.pinnedChecks());
  for (size_t B = 0; B != RunBlocks; ++B)
    std::printf(B ? ",%.4f" : "%.4f", BlockMeans[B]);
  std::printf("\n");
  R.Metrics = {{"run_s", RunS, "s"},
               {"sim_mrefs_per_s", RunS > 0 ? Refs / RunS / 1e6 : 0, "Mref/s"}};
  return R;
}

void printJson(const RunReport &R) {
  std::string Out = "{\"correct\": ";
  Out += R.Failed == 0 && R.Attempted > 0 ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(R.Attempted);
  Out += ", \"failed\": " + std::to_string(R.Failed);
  Out += ", \"metrics\": {";
  for (size_t I = 0; I != R.Metrics.size(); ++I) {
    char Buf[64];
    std::snprintf(Buf, sizeof Buf, "%.17g", R.Metrics[I].Value);
    Out += (I ? ", \"" : "\"") + R.Metrics[I].Name + "\": {\"value\": " +
           Buf + ", \"unit\": \"" + R.Metrics[I].Unit + "\"}";
  }
  Out += "}}";
  std::printf("%s\n", Out.c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  BenchConfig C = parseConfig(Argc, Argv);
  std::printf("perfbench: workload=%s seed=%llu scale=%g threads=%u "
              "trace=%d build=%s compiler=%s cpu=%s nproc=%ld\n",
              C.Name.c_str(), static_cast<unsigned long long>(C.Seed),
              C.Scale, C.Threads, C.Trace ? 1 : 0, PERFBENCH_BUILD_TYPE,
              PERFBENCH_COMPILER, cpuModel().c_str(),
              sysconf(_SC_NPROCESSORS_ONLN));
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: refusing to report numbers from a %s "
                         "build; configure with -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  std::error_code Ec;
  std::filesystem::create_directories(C.WorkDir, Ec);
  if (Ec) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n",
                 C.WorkDir.c_str(), Ec.message().c_str());
    return 1;
  }

  try {
    CpuRotation Rotation(C.Threads);
    std::vector<double> SetupSeconds;
    std::vector<Prepared> Ps;
    for (int I = 0; I != SetupRepeats; ++I) {
      Rotation.next();
      double T0 = nowSeconds();
      Ps = prepare(C);
      SetupSeconds.push_back(nowSeconds() - T0);
    }
    Checker Check(C);
    RunReport R = C.Trace ? runTraced(C, Ps, Check)
                          : runEndToEnd(C, Ps, Check, Rotation);
    if (!C.Trace) {
      R.Metrics.push_back({"setup_s", median(SetupSeconds), "s"});
      R.Metrics.push_back({"peak_rss_mb", peakRssMb(), "MB"});
    }
    printJson(R);
  } catch (const StatusError &E) {
    std::fprintf(stderr, "perfbench: %s\n", E.status().message().c_str());
    return 1;
  }
  return 0;
}
