//===- WorkerPool.h - Persistent crash-contained serve workers --*- C++ -*-===//
//
// Part of the gcache project (Reinhold, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The trace service's worker pool: the supervised-runner fork pattern
/// (core/Supervisor.h) generalized from "one child per sweep" to a pool of
/// persistent forked workers, each simulating client jobs in its own
/// address space. A worker that crashes — SIGKILL, SIGSEGV, the injected
/// `worker-kill` fault — takes down only its in-flight job: the pool reaps
/// it, respawns a replacement, and retries the job with exponential
/// backoff from its last checkpoint. A job that exhausts its retries is
/// *denied* with a structured WorkerFailure; the daemon never dies with
/// it.
///
/// Parent <-> worker protocol (two pipes per worker, line-oriented):
///   parent -> worker   `key=value` job-spec lines, then `run`
///   worker -> parent   `ckpt <records> <bytes> <crc>`  progress, one per
///                      checkpoint cut (the resume/dedup coordinates)
///                      `ok <reply-json>`               job complete
///                      `partial <outcome> <reply-json>` drained (SIGTERM)
///                      `err <code> <message...>`       structured failure
///
/// The `worker-kill` fault site fires in the *parent*, at the Nth ckpt
/// line any worker reports: the pool SIGKILLs that worker mid-job, so the
/// retry provably resumes from the just-cut checkpoint. Structured `err`
/// failures are deterministic and are never retried.
///
/// Drain: drain() forwards SIGTERM to every busy worker; their SignalGuard
/// trips the cancel token, runServeJob cuts a final checkpoint and reports
/// `partial`, and the manifest records a resumable partial instead of a
/// crash.
///
//===----------------------------------------------------------------------===//

#ifndef GCACHE_CORE_WORKERPOOL_H
#define GCACHE_CORE_WORKERPOOL_H

#include "gcache/support/Budget.h"
#include "gcache/support/Status.h"

#include <cstdint>
#include <deque>
#include <functional>
#include <poll.h>
#include <string>
#include <vector>

namespace gcache {

/// One client simulation: a spooled record stream plus the cache configs
/// to run it through, with checkpoint/resume coordinates.
struct ServeJob {
  std::string Client;         ///< Client name (diagnostics, manifest).
  std::string ConfigSpec;     ///< memsys/CacheConfig.h parseCacheConfigSpec.
  std::string SpoolPath;      ///< Raw v2 record bytes (no header/footer).
  std::string CheckpointPath; ///< Periodic/drain snapshots ("" = never cut).
  uint64_t DeclaredRecords = 0; ///< The End frame's record-count promise.
  uint32_t DeclaredCrc = 0;     ///< The End frame's CRC-32 promise.
  uint64_t CheckpointEveryRecords = 0; ///< Cut period (0 = drain only).
  /// Dedup seeding: start from this snapshot instead of record 0.
  std::string SeedSnapshotPath;
  /// Retry: load CheckpointPath if present and resume from it.
  bool Resume = false;
  /// Shadow-oracle cross-check period (0 = off; memsys/CacheBank.h).
  uint64_t CrosscheckEvery = 0;
  /// Run conservation audits at every checkpoint cut and at stream end.
  bool Audit = false;
  /// Worker threads inside the bank (0 = lanes run inline).
  unsigned Threads = 0;
};

/// What one (possibly resumed) job run produced.
struct ServeResult {
  UnitOutcome Outcome = UnitOutcome::Ok;
  uint64_t Records = 0; ///< Records simulated in total (incl. any prefix).
  bool Resumed = false; ///< Continued from CheckpointPath.
  bool Seeded = false;  ///< Started from SeedSnapshotPath.
  std::string ReplyJson; ///< One-line JSON reply (configs + counters).
};

/// Progress callback: a checkpoint was cut covering \p Records records /
/// \p Bytes spool bytes, whose prefix CRC-32 is \p Crc.
using ServeCheckpointFn =
    std::function<void(uint64_t Records, uint64_t Bytes, uint32_t Crc)>;

/// The simulation payload: replays the job's spool through a cache bank
/// (batched kernel) and a counting sink, checkpointing per the job spec
/// and draining to a final checkpoint + partial result when the process
/// cancel token trips. Runs inside pool workers, and directly in tests —
/// the reply JSON of a daemon-served stream must be byte-identical to a
/// direct call on the same spool.
Expected<ServeResult> runServeJob(const ServeJob &Job,
                                  const ServeCheckpointFn &OnCheckpoint = {});

/// Reads the resume/dedup coordinates out of a job checkpoint's
/// "serve-pos" section without loading the bank state. A promoted standby
/// uses this to register replicated checkpoints as dedup seeds with the
/// coordinates the snapshot actually covers (never the possibly-stale
/// coordinates that rode along on the replication frame). False when the
/// file is unreadable or not a serve checkpoint.
bool readServeCheckpointCoords(const std::string &Path, std::string &ConfigSpec,
                               uint64_t &Records, uint64_t &Bytes,
                               uint32_t &Crc);

/// Worker child entry: serves job specs from \p JobFd, writes protocol
/// lines to \p ResultFd, loops until JobFd closes. Never returns.
[[noreturn]] void serveWorkerMain(int JobFd, int ResultFd);

/// Pool policy.
struct WorkerPoolOptions {
  unsigned Workers = 2;
  unsigned MaxRetries = 2;  ///< Crash retries per job before denial.
  unsigned BackoffMs = 50;  ///< First retry delay; doubles per attempt.
};

/// The parent-side pool: owns the worker processes, queues jobs, pumps
/// their result pipes, and turns worker deaths into retries or denials.
/// Single-threaded: the owner's poll loop calls appendPollFds()/pump().
class WorkerPool {
public:
  struct Event {
    enum class Kind : uint8_t {
      Checkpoint, ///< A job cut a checkpoint (dedup registry hook).
      Result,     ///< Job finished: Outcome holds the result or the
                  ///< structured failure.
      Retrying,   ///< The job's worker died; a retry is scheduled.
      Denied,     ///< Retries exhausted: Error is the WorkerFailure.
    };
    Kind EventKind = Kind::Result;
    uint64_t JobId = 0;
    // Checkpoint coordinates:
    uint64_t Records = 0, Bytes = 0;
    uint32_t Crc = 0;
    // Result / Denied:
    Status Error;       ///< Ok for a successful Result.
    ServeResult Result; ///< Valid when EventKind == Result and Error.ok().
    unsigned Attempt = 1;
  };

  ~WorkerPool();

  /// Forks the workers. IoError when a pipe or fork fails.
  Status start(const WorkerPoolOptions &Opts);

  /// Queues \p Job; it dispatches at the next pump() with an idle worker.
  /// Returns the pool-assigned job id.
  uint64_t submit(ServeJob Job);

  /// Registers every fd the owner's poll loop must watch for reading.
  void appendPollFds(std::vector<pollfd> &Fds) const;

  /// Reaps dead workers, drains result pipes, applies retry/denial policy,
  /// respawns replacements, and dispatches queued jobs. Appends what
  /// happened to \p Events.
  void pump(std::vector<Event> &Events);

  /// Milliseconds until the next scheduled retry is due (poll timeout
  /// hint); -1 when nothing is pending.
  int nextWakeMs() const;

  /// Forwards SIGTERM to every busy worker so in-flight jobs drain to
  /// partial checkpoints. Queued-but-undispatched jobs are failed with
  /// Cancelled at the next pump().
  void drain();

  /// Kills and reaps every worker (daemon shutdown).
  void stop();

  bool running() const { return !Members.empty(); }
  size_t queuedJobs() const { return Queue.size(); }
  size_t runningJobs() const;
  /// True when no job is queued, scheduled for retry, or running.
  bool idle() const;

  // Lifetime counters for the manifest.
  uint64_t jobsCompleted() const { return Completed; }
  uint64_t retries() const { return Retries; }
  uint64_t denials() const { return Denials; }
  uint64_t workerDeaths() const { return Deaths; }
  unsigned workersAlive() const;

  /// Per-slot lifetime stats for the manifest's "workers" array. A slot
  /// keeps its history across respawns, so Deaths/Retries count everything
  /// that ever happened in that seat.
  struct WorkerStat {
    int Pid = -1; ///< Current worker pid (-1 while down).
    uint64_t Deaths = 0;
    uint64_t Retries = 0;   ///< Retries caused by this slot's deaths.
    uint64_t Completed = 0; ///< Jobs this slot finished with an ok result.
  };
  std::vector<WorkerStat> workerStats() const;

private:
  struct Member {
    int Pid = -1;
    int JobFd = -1;    ///< Parent writes job specs here.
    int ResultFd = -1; ///< Parent reads protocol lines here.
    std::string LineBuf;
    uint64_t JobId = 0; ///< 0 = idle.
    uint64_t SlotDeaths = 0, SlotRetries = 0, SlotCompleted = 0;
  };
  struct PendingJob {
    uint64_t Id = 0;
    ServeJob Job;
    unsigned Attempt = 1;
    int64_t ReadyAtMs = 0; ///< Retry backoff deadline (0 = now).
  };

  Status spawn(Member &M);
  void dispatch(Member &M, PendingJob Take);
  void onWorkerDown(Member &M, std::vector<Event> &Events);
  void handleLine(Member &M, const std::string &Line,
                  std::vector<Event> &Events);

  WorkerPoolOptions Opts;
  std::vector<Member> Members;
  std::deque<PendingJob> Queue; ///< Waiting for a worker (incl. retries).
  std::vector<PendingJob> Running; ///< Indexed by owning worker's JobId.
  uint64_t NextJobId = 1;
  uint64_t Completed = 0, Retries = 0, Denials = 0, Deaths = 0;
  bool Draining = false;
};

} // namespace gcache

#endif // GCACHE_CORE_WORKERPOOL_H
