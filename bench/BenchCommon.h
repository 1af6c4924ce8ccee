//===- BenchCommon.h - Shared bench-binary plumbing -------------*- C++ -*-===//
//
// Part of the gcache project (Reinhold, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Flag handling and headers shared by the per-table/per-figure bench
/// binaries. Every binary accepts:
///   --scale S    workload scale factor (default 0.3; GCACHE_SCALE env)
///   --csv        emit CSV instead of aligned tables where applicable
///   --workload W restrict to one program where applicable
///   --threads N  cache-bank worker threads (default 0 = serial;
///                GCACHE_THREADS env). Counters are bit-identical at any
///                thread count; see CacheBank::setThreads.
///   --batch N    references per columnar batch of the cache bank's
///                kernel (default CacheBank::DefaultBatchRefs;
///                GCACHE_BATCH env). Counters are bit-identical at any
///                batch size; see memsys/BatchKernel.h.
///   --fault S    arm a fault-injection plan `<site>:<n>[:<seed>]`
///                (GCACHE_FAULT env; see support/FaultInjector.h)
///   --paranoid[=phase]  verify the live heap after every collection and
///                at every injected allocation failure (counters stay
///                bit-identical; see Collector::setParanoid). The
///                `phase` level additionally runs the GcCertifier's
///                per-phase invariant checks at the begin boundary and
///                every step boundary of every collection cycle
///                (heap/GcCertifier.h; still peek-only)
///   --crosscheck run a shadow oracle cache in lockstep with every
///                simulated cache, the bank's and those a binary feeds
///                itself, each on the path a plain run takes: counters
///                are compared after every batch, span and reference the
///                cache simulates, contents at GC boundaries and end of
///                run; divergence fails the unit with a structured report
///                (memsys/OracleCache.h)
///   --audit      check conservation laws (refs delivered == refs
///                counted everywhere, per-block sums == global counters,
///                write-policy laws) at every GC boundary and at end of
///                run (core/Audit.h), and each cache a binary feeds
///                itself at end of run
///   --deadline S wall-clock budget for the whole run, fractional seconds
///                ok (GCACHE_DEADLINE env); on expiry the current unit
///                drains and the run reports partial results (exit 3)
///   --max-refs N simulated-reference budget, k/m/g suffixes ok
///                (GCACHE_MAX_REFS env)
///   --mem-budget B  resident-memory budget, k/m/g suffixes ok
///                (GCACHE_MEM_BUDGET env); on a breach the current unit
///                drains and reports partial-mem (exit 3)
///
/// SIGTERM/SIGINT request the same graceful drain as a deadline: the
/// current unit stops at the next poll site, in-flight cache batches are
/// drained, and the run exits with partial results stamped. A second
/// signal aborts immediately.
///
/// Unknown flags and malformed values (--threads=abc, --scale=1x,
/// --fault=bogus, --deadline=-1) are hard errors: the binary prints a
/// diagnostic and exits with status 2 instead of silently running with
/// defaults. So are values that would parse into nonsense: a --scale that
/// is not a positive finite number, a --workload that names none of the
/// five programs, a boolean (--csv, --crosscheck, --audit) other than
/// bare, 1/true or 0/false, and an empty value (--scale=), which would
/// read as absent.
/// So is a GCACHE_* environment variable that stands for no flag of the
/// binary (GCACHE_ON_BUDGET, a misspelt GCACHE_SCAL), and any flag that
/// takes a value given without one (a bare --scale, --max-refs or
/// --workload), which would otherwise read as "1". Of the
/// flags that take a value, only --paranoid has a bare meaning.
///
/// Failure isolation: bench mains run each workload/configuration as a
/// unit through BenchUnitRunner. A structured failure (injected fault,
/// OOM, shard-worker failure, VM error) fails only that unit; the binary
/// reports it, continues with the rest, and exits nonzero with a summary.
/// Each unit runs once per invocation.
///
//===----------------------------------------------------------------------===//

#ifndef GCACHE_BENCH_BENCHCOMMON_H
#define GCACHE_BENCH_BENCHCOMMON_H

#include "gcache/core/Experiment.h"
#include "gcache/support/Budget.h"
#include "gcache/support/FaultInjector.h"
#include "gcache/support/Options.h"
#include "gcache/support/SignalGuard.h"
#include "gcache/support/Table.h"
#include "gcache/support/Watchdog.h"

#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

namespace gcache {

struct BenchArgs {
  double Scale = 0.3;
  bool Csv = false;
  unsigned Threads = 0;
  size_t BatchRefs = 0; ///< 0 = CacheBank::DefaultBatchRefs.
  bool Paranoid = false;
  bool ParanoidPhase = false;   ///< --paranoid=phase.
  bool CrossCheck = false;
  bool Audit = false;
  std::string Workload;
  BudgetSpec Budget;
  Options Opts;
};

/// The value of a flag read through Options::getStrict* (or another
/// flag parser). A bare or malformed flag is fatal: diagnostic on stderr,
/// exit(2).
template <typename T> T flagOrExit(Expected<T> Value) {
  if (!Value.ok()) {
    std::fprintf(stderr, "error: %s\n", Value.status().message().c_str());
    std::exit(2);
  }
  return Value.take();
}

/// Parses and validates the shared bench flags plus any \p ExtraFlags the
/// binary declares (e.g. "seeds" for ext2_layout). Unknown flags, unknown
/// GCACHE_* variables and malformed values are fatal: diagnostic on
/// stderr, exit(2). Also arms the process-wide fault injector from
/// --fault / GCACHE_FAULT.
inline BenchArgs parseBenchArgs(int Argc, char **Argv,
                                std::initializer_list<const char *> ExtraFlags = {}) {
  BenchArgs A;
  A.Opts = Options::parse(Argc, Argv);

  std::vector<std::string> Known = {
      "scale",    "csv",       "workload",  "threads",    "batch",
      "fault",    "paranoid",  "crosscheck", "audit",     "deadline",
      "max-refs", "mem-budget"};
  for (const char *F : ExtraFlags)
    Known.push_back(F);
  std::string Usage = "known flags:";
  for (const std::string &F : Known)
    Usage += " --" + F;
  A.Opts.exitOnUnknown(Known, Usage);

  A.Scale = flagOrExit(A.Opts.getStrictPositiveDouble("scale", 0.3));
  A.Threads = flagOrExit(A.Opts.getStrictUnsigned("threads", 0));
  A.BatchRefs = flagOrExit(A.Opts.getStrictUnsigned("batch", 0));
  A.Csv = flagOrExit(A.Opts.getStrictBool("csv", false));

  // --paranoid is a level: bare (or true) = post-collection heap
  // verification, "phase" = that plus per-step-boundary certification.
  std::string ParanoidSpec =
      A.Opts.isBare("paranoid")
          ? "1"
          : flagOrExit(A.Opts.getStrict("paranoid", ""));
  if (ParanoidSpec == "phase") {
    A.Paranoid = true;
    A.ParanoidPhase = true;
  } else if (ParanoidSpec == "1" || ParanoidSpec == "true") {
    A.Paranoid = true;
  } else if (!ParanoidSpec.empty() && ParanoidSpec != "0" &&
             ParanoidSpec != "false") {
    std::fprintf(stderr,
                 "error: --paranoid takes no value or 'phase', got '%s'\n",
                 ParanoidSpec.c_str());
    std::exit(2);
  }

  A.Workload = flagOrExit(A.Opts.getStrict("workload", ""));
  if (!A.Workload.empty() && !findWorkload(A.Workload)) {
    std::fprintf(stderr,
                 "error: --workload must name one of orbit, imps, lp, "
                 "nbody, gambit; got '%s'\n",
                 A.Workload.c_str());
    std::exit(2);
  }

  A.CrossCheck = flagOrExit(A.Opts.getStrictBool("crosscheck", false));
  A.Audit = flagOrExit(A.Opts.getStrictBool("audit", false));

  // --fault falls back to GCACHE_FAULT via the Options env convention;
  // empty (unset) disarms.
  Status Armed =
      faultInjector().armFromSpec(flagOrExit(A.Opts.getStrict("fault", "")));
  if (!Armed.ok()) {
    std::fprintf(stderr, "error: --fault: %s\n", Armed.message().c_str());
    std::exit(2);
  }

  // Resource budgets (support/Budget.h): deadline, reference budget,
  // memory budget.
  A.Budget = flagOrExit(parseBudgetFlags(A.Opts));
  processBudget().configure(A.Budget);

  // Graceful shutdown: first SIGTERM/SIGINT requests a drain, the second
  // aborts.
  SignalGuard::install();

  // The watchdog thread backs up the cooperative deadline/memory checks.
  if (processBudget().active())
    processWatchdog().start();
  return A;
}

/// Baseline per-run options for a bench binary: the workload scale, the
/// cache-bank thread count, and paranoid verification from the command
/// line. Binaries layer their experiment-specific fields (grid, GC,
/// policies) on top.
inline ExperimentOptions baseExperimentOptions(const BenchArgs &A) {
  ExperimentOptions Opts;
  Opts.Scale = A.Scale;
  Opts.Threads = A.Threads;
  Opts.BatchRefs = A.BatchRefs;
  Opts.Paranoid = A.Paranoid;
  Opts.ParanoidPhase = A.ParanoidPhase;
  Opts.CrossCheck = A.CrossCheck;
  Opts.Audit = A.Audit;
  return Opts;
}

/// Runs each workload/configuration as an isolated unit. A structured
/// failure (injected fault, OOM, shard-worker failure, VM error) fails
/// only that unit: it is reported immediately on stderr, recorded, and
/// the binary continues with the remaining units. finish() prints the
/// summary and yields the process exit code.
class BenchUnitRunner {
public:
  /// Runs \p W under \p Opts as unit \p Unit. On failure, reports and
  /// records it; the caller skips that unit's downstream tables.
  Expected<ProgramRun> run(const std::string &Unit, const Workload &W,
                           const ExperimentOptions &Opts) {
    // A budget already exhausted before this unit starts: never begin it.
    // This is the one unit stamped CANCELLED (as opposed to the PARTIAL
    // stamp of a unit interrupted mid-run).
    if (cancelToken().requested()) {
      Status S = Status::failf(
          StatusCode::Cancelled, "unit not started: %s already requested",
          cancelReasonName(cancelToken().reason()));
      std::fprintf(stderr, "CANCELLED %s: %s\n", Unit.c_str(),
                   S.message().c_str());
      ++Partials;
      return S;
    }

    Expected<ProgramRun> R = tryRunProgram(W, Opts);
    if (R.ok()) {
      if (R->partial()) {
        // Drained mid-run: the counters cover the completed prefix. Stamp
        // it loudly so no table from this run is mistaken for a full one.
        ++Partials;
        std::printf("PARTIAL %s: %s (coverage %.0f%%)\n", Unit.c_str(),
                    R->OutcomeNote.c_str(),
                    R->Coverage >= 0 ? R->Coverage * 100.0 : 0.0);
      } else {
        ++Succeeded;
      }
      return R;
    }
    recordFailure(Unit, R.status());
    return R;
  }

  /// Records a failure from a unit the binary ran itself (trace writing,
  /// replay, ...).
  void recordFailure(const std::string &Unit, const Status &S) {
    std::fprintf(stderr, "FAILED %s: %s\n", Unit.c_str(),
                 S.toString().c_str());
    Failures.emplace_back(Unit, S);
  }

  void recordSuccess() { ++Succeeded; }

  bool anyFailed() const { return !Failures.empty(); }
  bool anyPartial() const { return Partials != 0; }

  /// Prints the failure/partial summary (if any) and returns the process
  /// exit code: 0 when every unit succeeded, 1 when any failed, 3 when
  /// none failed but some are partial (budget/deadline/signal drain).
  int finish() const {
    if (Failures.empty() && Partials == 0)
      return 0;
    if (!Failures.empty()) {
      std::fprintf(stderr, "\n%u unit(s) succeeded, %zu failed:\n",
                   Succeeded, Failures.size());
      for (const auto &F : Failures)
        std::fprintf(stderr, "  FAILED %s: %s\n", F.first.c_str(),
                     F.second.toString().c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "\n%u unit(s) succeeded, %u partial (budget/deadline drain)\n",
                 Succeeded, Partials);
    return 3;
  }

private:
  unsigned Succeeded = 0;
  unsigned Partials = 0;
  std::vector<std::pair<std::string, Status>> Failures;
};

inline std::vector<const Workload *> selectWorkloads(const BenchArgs &A) {
  std::vector<const Workload *> Out;
  for (const Workload &W : allWorkloads())
    if (A.Workload.empty() || A.Workload == W.Name)
      Out.push_back(&W);
  return Out;
}

/// Semispace size proportional to the program's allocation, mirroring
/// the paper's ratios against its fixed 16 MB semispaces: one fifth of
/// the run's allocation (rounded up to 64 KB, at least 512 KB), derived
/// from a control run. For lp the divisor is 10 so that its
/// monotonically growing live structure approaches the semispace by the
/// end of the run — the regime behind the paper's ">= 40%" lp overheads,
/// where each successive collection copies more and frees less.
inline uint32_t semispaceFor(const ProgramRun &Control) {
  uint64_t Divisor = Control.Name == "lp" ? 10 : 5;
  uint64_t Bytes = Control.AllocBytes / Divisor;
  Bytes = (Bytes + 0xffff) & ~0xffffull;
  if (Bytes < (512u << 10))
    Bytes = 512u << 10;
  return static_cast<uint32_t>(Bytes);
}

inline void printTable(const Table &T, const BenchArgs &A) {
  std::fputs((A.Csv ? T.toCsv() : T.toString()).c_str(), stdout);
}

/// Appends one JSON object to a BENCH_*.json results file. The file is a
/// JSON array of timestamped entries — benchmark history accumulates
/// across runs instead of each run overwriting the last. A missing or
/// empty file starts a new array; a file that is not an array is refused
/// (false) and left as it is.
inline bool appendBenchJson(const std::string &Path,
                            const std::string &ObjJson) {
  std::string Existing;
  if (FILE *F = std::fopen(Path.c_str(), "rb")) {
    char Buf[1 << 16];
    size_t N;
    while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
      Existing.append(Buf, N);
    std::fclose(F);
  }
  size_t B = Existing.find_first_not_of(" \t\r\n");
  size_t E = Existing.find_last_not_of(" \t\r\n");
  std::string Body;
  if (B == std::string::npos) {
    Body = "[\n" + ObjJson + "\n]\n";
  } else {
    // Existing array: splice the new entry in before the final ']'.
    if (Existing[B] != '[' || Existing[E] != ']')
      return false;
    std::string Inner = Existing.substr(B + 1, E - B - 1);
    size_t IE = Inner.find_last_not_of(" \t\r\n");
    Inner = IE == std::string::npos ? "" : Inner.substr(0, IE + 1);
    Body = "[" + Inner + (Inner.empty() ? "\n" : ",\n") + ObjJson + "\n]\n";
  }
  std::string Tmp = Path + ".tmp";
  FILE *F = std::fopen(Tmp.c_str(), "wb");
  if (!F)
    return false;
  bool Ok = std::fwrite(Body.data(), 1, Body.size(), F) == Body.size();
  Ok = std::fclose(F) == 0 && Ok;
  if (Ok && std::rename(Tmp.c_str(), Path.c_str()) == 0)
    return true;
  std::remove(Tmp.c_str());
  return false;
}

inline void benchHeader(const char *Id, const char *What,
                        const BenchArgs &A) {
  std::printf("==============================================================="
              "=\n%s — %s\n(scale %.2f; paper: Reinhold, PLDI 1994)\n"
              "================================================================"
              "\n",
              Id, What, A.Scale);
}

} // namespace gcache

#endif // GCACHE_BENCH_BENCHCOMMON_H
