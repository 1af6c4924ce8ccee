//===- gc_torture.cpp - Kill/resume GC torture driver -----------------------===//
//
// Operator tool for the GC torture harness (core/GcTorture.h): runs the
// deterministic synthetic mutator against a stepped collector and proves
// that a run killed at any GC step boundary resumes bit-identically from
// the snapshot cut at that boundary.
//
// Modes:
//   (default)           one uninterrupted run; print its digest
//   --kill-at=<n>       simulate a kill at global step boundary n (the
//                       in-process Aborted throw), resume from the cut,
//                       and compare digests
//   --sweep             kill at EVERY step boundary, one forked child per
//                       kill point: the child arms the gc-step-kill fault
//                       site for its boundary and genuinely dies by
//                       SIGKILL mid-cycle; the parent resumes from the
//                       snapshot the child left behind and compares the
//                       finished digest against the uninterrupted run's
//
// Flags (besides the shared bench flags --threads/--crosscheck/--audit/
// --paranoid[=phase]):
//   --gc=<kind>         cheney | generational | marksweep (default cheney)
//   --ops=<n>           mutator operations (default 300)
//   --seed=<n>          mutator decision seed (default 1)
//   --step-budget=<n>   collector work units per step (default 64)
//   --heap-bytes=<n>    semispace / whole-heap bytes (default 65536)
//   --nursery-bytes=<n> generational nursery bytes (default 16384)
//   --snapshot=<path>   where step boundaries cut (default gc_torture.snap)
//
// Exit codes: 0 every resume matched, 1 divergence or harness failure,
// 2 usage error.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "gcache/core/GcTorture.h"

#include <csignal>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace gcache;

namespace {

/// Runs the child's share of one --sweep kill point: arm the real-SIGKILL
/// fault site for boundary \p Kill and replay the run from the start.
/// Never returns normally — either the kernel kills us at the boundary or
/// we _exit with a status the parent reports as a harness failure.
[[noreturn]] void runSweepChild(const GcTortureConfig &Cfg, uint64_t Kill) {
  char Spec[64];
  std::snprintf(Spec, sizeof(Spec), "gc-step-kill:%llu",
                static_cast<unsigned long long>(Kill));
  if (Status S = faultInjector().armFromSpec(Spec); !S.ok())
    _exit(40);
  try {
    GcTortureRun Run(Cfg);
    Run.run(); // SIGKILL fires inside a stepCycle boundary.
  } catch (const StatusError &) {
    _exit(41); // An abort/certification throw is not the promised kill.
  }
  _exit(42); // Ran to completion: the boundary never fired.
}

} // namespace

int main(int Argc, char **Argv) {
  BenchArgs A = parseBenchArgs(
      Argc, Argv,
      {"gc", "ops", "seed", "step-budget", "heap-bytes", "nursery-bytes",
       "snapshot", "kill-at", "sweep"});

  GcTortureConfig Cfg;
  std::string GcName = flagOrExit(A.Opts.getStrict("gc", "cheney"));
  if (GcName == "cheney")
    Cfg.Gc = GcKind::Cheney;
  else if (GcName == "generational")
    Cfg.Gc = GcKind::Generational;
  else if (GcName == "marksweep")
    Cfg.Gc = GcKind::MarkSweep;
  else {
    std::fprintf(stderr,
                 "error: --gc must be cheney, generational, or marksweep "
                 "(got '%s')\n",
                 GcName.c_str());
    return 2;
  }
  Cfg.Seed = flagOrExit(A.Opts.getStrictUnsigned("seed", 1));
  Cfg.Ops = flagOrExit(A.Opts.getStrictUnsigned("ops", 300));
  Cfg.StepBudget = flagOrExit(A.Opts.getStrictUnsigned("step-budget", 64));
  Cfg.HeapBytes =
      flagOrExit(A.Opts.getStrictUnsigned("heap-bytes", 64 * 1024));
  Cfg.NurseryBytes =
      flagOrExit(A.Opts.getStrictUnsigned("nursery-bytes", 16 * 1024));
  Cfg.Threads = A.Threads;
  Cfg.CrossCheckEvery = A.CrossCheckEvery;
  Cfg.Audit = A.Audit;
  Cfg.PhaseParanoid = A.ParanoidPhase;

  std::string SnapPath =
      flagOrExit(A.Opts.getStrict("snapshot", "gc_torture.snap"));
  uint64_t KillAt = flagOrExit(A.Opts.getStrictUnsigned("kill-at", 0));
  bool Sweep = A.Opts.getBool("sweep");
  if (Sweep && KillAt) {
    std::fprintf(stderr, "error: --sweep and --kill-at are exclusive\n");
    return 2;
  }

  // The reference: one uninterrupted run, no snapshot cuts.
  GcTortureDigest Want;
  try {
    Want = runGcTorture(Cfg);
  } catch (const StatusError &E) {
    std::fprintf(stderr, "reference run: %s: %s\n",
                 statusCodeName(E.status().code()),
                 E.status().message().c_str());
    return 1;
  }
  std::printf("gc-torture %s: %s\n", GcName.c_str(), Want.toString().c_str());

  if (!Sweep && !KillAt)
    return 0;

  // A probe run that cuts at every boundary: the cuts must be invisible
  // to the digest, and its boundary count is the sweep's kill space.
  uint64_t Boundaries = 0;
  {
    GcTortureConfig ProbeCfg = Cfg;
    ProbeCfg.SnapshotPath = SnapPath;
    try {
      GcTortureRun Probe(ProbeCfg);
      Probe.run();
      GcTortureDigest D = Probe.digest();
      Boundaries = Probe.boundariesSeen();
      if (D != Want) {
        std::fprintf(stderr, "FAIL: snapshot cuts changed the digest\n  %s\n",
                     D.toString().c_str());
        return 1;
      }
    } catch (const StatusError &E) {
      std::fprintf(stderr, "probe run: %s\n", E.status().message().c_str());
      return 1;
    }
  }
  std::printf("  %llu step boundaries, cuts digest-invisible\n",
              static_cast<unsigned long long>(Boundaries));
  if (KillAt > Boundaries) {
    std::fprintf(stderr,
                 "error: --kill-at=%llu exceeds the run's %llu boundaries\n",
                 static_cast<unsigned long long>(KillAt),
                 static_cast<unsigned long long>(Boundaries));
    return 2;
  }

  GcTortureConfig ResumeCfg = Cfg; // No cuts, no kill: just finish.

  auto resumeAndCompare = [&](uint64_t Kill) -> bool {
    GcTortureRun R(ResumeCfg);
    if (Status S = R.resume(SnapPath); !S.ok()) {
      std::fprintf(stderr, "kill %llu: resume: %s\n",
                   static_cast<unsigned long long>(Kill),
                   S.message().c_str());
      return false;
    }
    GcTortureDigest D = R.digest();
    if (D != Want) {
      std::fprintf(stderr, "kill %llu: digest diverged\n  want %s\n  got  %s\n",
                   static_cast<unsigned long long>(Kill),
                   Want.toString().c_str(), D.toString().c_str());
      return false;
    }
    return true;
  };

  if (KillAt) {
    // In-process simulated kill: the run throws Aborted right after the
    // boundary's cut lands on disk.
    GcTortureConfig KillCfg = Cfg;
    KillCfg.SnapshotPath = SnapPath;
    KillCfg.KillAtStep = KillAt;
    bool Killed = false;
    try {
      GcTortureRun Run(KillCfg);
      Run.run();
    } catch (const StatusError &E) {
      Killed = E.status().code() == StatusCode::Aborted;
      if (!Killed) {
        std::fprintf(stderr, "kill run: %s\n", E.status().message().c_str());
        return 1;
      }
    }
    if (!Killed) {
      std::fprintf(stderr, "error: boundary %llu never fired\n",
                   static_cast<unsigned long long>(KillAt));
      return 1;
    }
    if (!resumeAndCompare(KillAt))
      return 1;
    std::printf("  kill at boundary %llu: resumed bit-identically\n",
                static_cast<unsigned long long>(KillAt));
    return 0;
  }

  // --sweep: one forked child per boundary, killed for real by SIGKILL
  // via the gc-step-kill fault site; the parent resumes from the cut the
  // child left behind.
  GcTortureConfig ChildCfg = Cfg;
  ChildCfg.SnapshotPath = SnapPath;
  for (uint64_t Kill = 1; Kill <= Boundaries; ++Kill) {
    std::fflush(stdout);
    std::fflush(stderr);
    pid_t Pid = fork();
    if (Pid < 0) {
      std::perror("fork");
      return 1;
    }
    if (Pid == 0)
      runSweepChild(ChildCfg, Kill);
    int WStatus = 0;
    if (waitpid(Pid, &WStatus, 0) != Pid) {
      std::perror("waitpid");
      return 1;
    }
    if (!WIFSIGNALED(WStatus) || WTERMSIG(WStatus) != SIGKILL) {
      std::fprintf(stderr,
                   "kill %llu: child did not die by SIGKILL (status %d)\n",
                   static_cast<unsigned long long>(Kill), WStatus);
      return 1;
    }
    if (!resumeAndCompare(Kill))
      return 1;
  }
  std::printf("  sweep: %llu SIGKILLed children, every resume "
              "bit-identical\n",
              static_cast<unsigned long long>(Boundaries));
  return 0;
}
