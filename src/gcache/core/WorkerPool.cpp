//===- WorkerPool.cpp - Persistent crash-contained serve workers -----------===//

#include "gcache/core/WorkerPool.h"

#include "gcache/memsys/CacheBank.h"
#include "gcache/support/Crc32.h"
#include "gcache/support/FaultInjector.h"
#include "gcache/support/SignalGuard.h"
#include "gcache/support/Snapshot.h"
#include "gcache/support/Vfs.h"
#include "gcache/support/Wire.h"
#include "gcache/trace/Sinks.h"
#include "gcache/trace/TraceFile.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

using namespace gcache;

namespace {

int64_t nowMs() {
  using namespace std::chrono;
  return duration_cast<milliseconds>(steady_clock::now().time_since_epoch())
      .count();
}

/// Blocking write of the whole buffer to a pipe fd.
bool writeAllFd(int Fd, const std::string &Text) {
  size_t Sent = 0;
  while (Sent < Text.size()) {
    ssize_t N = write(Fd, Text.data() + Sent, Text.size() - Sent);
    if (N > 0) {
      Sent += static_cast<size_t>(N);
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    return false;
  }
  return true;
}

/// References per serial batch in the worker's bank — small enough that a
/// drain or checkpoint cut never has much buffered work to flush.
constexpr size_t ServeBatchRefs = 64 * 1024;

/// Records between cancellation polls while streaming the spool.
constexpr uint64_t PollEveryRecords = 4096;

} // namespace

//===----------------------------------------------------------------------===//
// runServeJob
//===----------------------------------------------------------------------===//

namespace {

/// The resume/seed coordinates persisted in a job checkpoint's "serve-pos"
/// section, alongside the bank ("cache-bank") and sink ("serve-counts")
/// sections.
struct ServePos {
  std::string ConfigSpec;
  uint64_t Bytes = 0;
  uint64_t Records = 0;
  uint32_t Crc = 0; ///< CRC-32 of the first Bytes spool bytes.
};

void saveServePos(SnapshotWriter &W, const ServePos &P) {
  W.beginSection("serve-pos");
  W.putString(P.ConfigSpec);
  W.putU64(P.Bytes);
  W.putU64(P.Records);
  W.putU32(P.Crc);
}

Status loadServePos(const SnapshotReader &R, const std::string &WantSpec,
                    ServePos &P) {
  SnapshotCursor C = R.section("serve-pos");
  P.ConfigSpec = C.getString();
  P.Bytes = C.getU64();
  P.Records = C.getU64();
  P.Crc = C.getU32();
  if (C.ok() && P.ConfigSpec != WantSpec)
    C.fail(Status::failf(StatusCode::Corrupt,
                         "checkpoint was cut for config '%s', not '%s'",
                         P.ConfigSpec.c_str(), WantSpec.c_str()));
  return C.finish();
}

Status cutCheckpoint(const std::string &Path, const ServePos &P,
                     CacheBank &Bank, const CountingSink &Counts) {
  SnapshotWriter W;
  saveServePos(W, P);
  Bank.saveTo(W);
  W.beginSection("serve-counts");
  Counts.save(W);
  return W.writeFile(Path);
}

std::string buildReplyJson(const ServeJob &Job, const ServeResult &R,
                           CacheBank &Bank, const CountingSink &Counts) {
  std::string J = "{";
  J += "\"client\":\"" + jsonEscape(Job.Client) + "\"";
  J += ",\"outcome\":\"" + std::string(unitOutcomeName(R.Outcome)) + "\"";
  J += ",\"records\":" + std::to_string(R.Records);
  J += ",\"resumed\":" + std::string(R.Resumed ? "true" : "false");
  J += ",\"seeded\":" + std::string(R.Seeded ? "true" : "false");
  J += ",\"mutator_loads\":" + std::to_string(Counts.loads(Phase::Mutator));
  J += ",\"mutator_stores\":" + std::to_string(Counts.stores(Phase::Mutator));
  J += ",\"gc_loads\":" + std::to_string(Counts.loads(Phase::Collector));
  J += ",\"gc_stores\":" + std::to_string(Counts.stores(Phase::Collector));
  J += ",\"allocated_bytes\":" + std::to_string(Counts.allocatedBytes());
  J += ",\"collections\":" + std::to_string(Counts.collections());
  J += ",\"configs\":[";
  for (size_t I = 0; I < Bank.size(); ++I) {
    const Cache &C = Bank.cache(I);
    if (I)
      J += ",";
    J += "{\"label\":\"" + jsonEscape(C.config().label()) + "\"";
    for (Phase P : {Phase::Mutator, Phase::Collector}) {
      const CacheCounters &K = C.counters(P);
      const char *Tag = P == Phase::Mutator ? "mut" : "gc";
      J += ",\"" + std::string(Tag) + "_loads\":" + std::to_string(K.Loads);
      J += ",\"" + std::string(Tag) + "_stores\":" + std::to_string(K.Stores);
      J += ",\"" + std::string(Tag) +
           "_fetch_misses\":" + std::to_string(K.FetchMisses);
      J += ",\"" + std::string(Tag) +
           "_nofetch_misses\":" + std::to_string(K.NoFetchMisses);
      J += ",\"" + std::string(Tag) +
           "_writebacks\":" + std::to_string(K.Writebacks);
      J += ",\"" + std::string(Tag) +
           "_write_throughs\":" + std::to_string(K.WriteThroughs);
    }
    J += "}";
  }
  J += "]}";
  return J;
}

bool fileExists(const std::string &Path) { return vfs().exists(Path); }

} // namespace

Expected<ServeResult> gcache::runServeJob(const ServeJob &Job,
                                          const ServeCheckpointFn &OnCkpt) {
  Expected<std::vector<CacheConfig>> Configs =
      parseCacheConfigSpec(Job.ConfigSpec);
  if (!Configs)
    return Configs.status();

  CacheBank Bank;
  for (const CacheConfig &C : *Configs)
    Bank.addConfig(C);
  // Validation and execution modes; a snapshot load below resyncs the
  // oracle in place.
  if (Job.CrosscheckEvery)
    Bank.enableCrossCheck(Job.CrosscheckEvery);
  Bank.setThreads(Job.Threads, ServeBatchRefs);
  CountingSink Counts;
  ServeResult Res;
  ServePos Pos;
  Pos.ConfigSpec = Job.ConfigSpec;

  // Resume from this job's own checkpoint (crash retry), else seed from a
  // dedup snapshot of a matching prefix. Either way the restored state is
  // CRC-validated by the snapshot layer and spec-validated here.
  std::string LoadFrom;
  if (Job.Resume && !Job.CheckpointPath.empty() &&
      fileExists(Job.CheckpointPath))
    LoadFrom = Job.CheckpointPath;
  else if (!Job.SeedSnapshotPath.empty() && fileExists(Job.SeedSnapshotPath))
    LoadFrom = Job.SeedSnapshotPath;
  if (!LoadFrom.empty()) {
    SnapshotReader R;
    if (Status S = R.open(LoadFrom); !S.ok())
      return S;
    if (Status S = loadServePos(R, Job.ConfigSpec, Pos); !S.ok())
      return S;
    if (Status S = Bank.loadFrom(R); !S.ok())
      return S;
    SnapshotCursor C = R.section("serve-counts");
    Counts.load(C);
    if (Status S = C.finish(); !S.ok())
      return S;
    (LoadFrom == Job.CheckpointPath ? Res.Resumed : Res.Seeded) = true;
  }

  Expected<std::unique_ptr<VfsReadFile>> SpoolOrErr =
      vfs().openRead(Job.SpoolPath);
  if (!SpoolOrErr)
    return SpoolOrErr.status();
  std::unique_ptr<VfsReadFile> Spool = std::move(*SpoolOrErr);
  // Resume: skip the already-consumed prefix (streaming handles have no
  // seek; the spool is read sequentially either way).
  for (uint64_t Left = Pos.Bytes; Left;) {
    uint8_t SkipBuf[1 << 16];
    size_t Want = static_cast<size_t>(
        std::min<uint64_t>(Left, sizeof(SkipBuf)));
    Expected<size_t> N = Spool->read(SkipBuf, Want);
    if (!N)
      return N.status();
    if (*N == 0)
      return Status::failf(StatusCode::IoError,
                           "cannot seek spool '%s' to byte %llu",
                           Job.SpoolPath.c_str(),
                           static_cast<unsigned long long>(Pos.Bytes));
    Left -= *N;
  }

  IncrementalTraceDecoder Decoder;
  Decoder.primePosition(Pos.Bytes, Pos.Records);
  // CRC over every spool byte *fed in completed chunks*. A checkpoint cut
  // mid-chunk must stamp the CRC of the consumed prefix only, so the cut
  // extends this with the chunk bytes up to the decoder's byte offset —
  // never with bytes the checkpoint's resume point has not covered.
  uint32_t RunningCrc = Pos.Crc;
  uint64_t FedBytes = Pos.Bytes;
  uint64_t NextCheckpoint =
      Job.CheckpointEveryRecords
          ? Pos.Records + Job.CheckpointEveryRecords
          : UINT64_MAX;
  uint64_t NextPoll = Pos.Records + PollEveryRecords;

  TraceRecord Rec;
  uint8_t Buf[1 << 16];

  auto Cut = [&](UnitOutcome) -> Status {
    if (Job.CheckpointPath.empty())
      return Status();
    Bank.flush();
    if (Job.Audit)
      if (Status S = Bank.auditAll(); !S.ok())
        return S;
    Pos.Bytes = Decoder.byteOffset();
    Pos.Records = Decoder.recordCount();
    Pos.Crc = crc32(Buf, static_cast<size_t>(Pos.Bytes - FedBytes),
                    RunningCrc);
    if (Status S = cutCheckpoint(Job.CheckpointPath, Pos, Bank, Counts);
        !S.ok())
      return S;
    if (OnCkpt)
      OnCkpt(Pos.Records, Pos.Bytes, Pos.Crc);
    return Status();
  };

  Status Failure;
  bool Cancelled = false;
  for (;;) {
    Expected<size_t> Got = Spool->read(Buf, sizeof(Buf));
    if (!Got) {
      Failure = Got.status();
      break;
    }
    size_t N = *Got;
    if (N == 0)
      break;
    Decoder.feed(Buf, N);
    while (Decoder.next(Rec)) {
      Rec.dispatch(Bank);
      Rec.dispatch(Counts);
      uint64_t Done = Decoder.recordCount();
      if (Done >= NextCheckpoint) {
        if (Status S = Cut(UnitOutcome::Ok); !S.ok()) {
          Failure = S;
          break;
        }
        NextCheckpoint = Done + Job.CheckpointEveryRecords;
      }
      if (Done >= NextPoll) {
        NextPoll = Done + PollEveryRecords;
        if (cancelToken().requested()) {
          Cancelled = true;
          break;
        }
      }
    }
    if (!Failure.ok() || Cancelled || !Decoder.error().ok())
      break; // Mid-chunk stop: the drain Cut below extends RunningCrc
             // itself, only up to the consumed byte offset.
    RunningCrc = crc32(Buf, N, RunningCrc);
    FedBytes += N;
  }
  Spool.reset();
  if (!Failure.ok())
    return Failure;
  if (!Decoder.error().ok())
    return Decoder.error();

  Bank.flush();
  if (Cancelled) {
    // Drain: cut a resumable checkpoint at this exact record boundary and
    // report a partial result. A later run with Resume set finishes the
    // stream with counters bit-identical to an uninterrupted one.
    if (Status S = Cut(UnitOutcome::Ok); !S.ok())
      return S;
    Res.Outcome = outcomeForReason(cancelToken().reason());
    Res.Records = Decoder.recordCount();
    Res.ReplyJson = buildReplyJson(Job, Res, Bank, Counts);
    return Res;
  }

  // End-to-end verification against the End frame's promises.
  if (Status S = Decoder.atEof(); !S.ok())
    return S;
  if (Job.DeclaredRecords && Decoder.recordCount() != Job.DeclaredRecords)
    return Status::failf(StatusCode::Corrupt,
                         "stream holds %llu records but its End frame "
                         "promises %llu",
                         static_cast<unsigned long long>(Decoder.recordCount()),
                         static_cast<unsigned long long>(Job.DeclaredRecords));
  if (Job.DeclaredRecords && RunningCrc != Job.DeclaredCrc)
    return Status::failf(StatusCode::Corrupt,
                         "stream fails its end-to-end checksum (declared "
                         "%08x, computed %08x)",
                         Job.DeclaredCrc, RunningCrc);

  if (Job.Audit)
    if (Status S = Bank.auditAll(); !S.ok())
      return S;

  Res.Outcome = UnitOutcome::Ok;
  Res.Records = Decoder.recordCount();
  Res.ReplyJson = buildReplyJson(Job, Res, Bank, Counts);
  return Res;
}

//===----------------------------------------------------------------------===//
// serveWorkerMain
//===----------------------------------------------------------------------===//

namespace {

/// Reads one '\n'-terminated line from a blocking fd; false on EOF/error.
bool readLineFd(int Fd, std::string &Line) {
  Line.clear();
  char C;
  for (;;) {
    ssize_t N = read(Fd, &C, 1);
    if (N == 1) {
      if (C == '\n')
        return true;
      Line += C;
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    return false;
  }
}

std::string serializeJob(const ServeJob &J, unsigned Attempt) {
  std::string S;
  S += "client=" + J.Client + "\n";
  S += "config=" + J.ConfigSpec + "\n";
  S += "spool=" + J.SpoolPath + "\n";
  S += "ckpt=" + J.CheckpointPath + "\n";
  S += "records=" + std::to_string(J.DeclaredRecords) + "\n";
  S += "crc=" + std::to_string(J.DeclaredCrc) + "\n";
  S += "ckptevery=" + std::to_string(J.CheckpointEveryRecords) + "\n";
  S += "seed=" + J.SeedSnapshotPath + "\n";
  S += "resume=" + std::string(J.Resume ? "1" : "0") + "\n";
  S += "xchk=" + std::to_string(J.CrosscheckEvery) + "\n";
  S += "audit=" + std::string(J.Audit ? "1" : "0") + "\n";
  S += "threads=" + std::to_string(J.Threads) + "\n";
  S += "attempt=" + std::to_string(Attempt) + "\n";
  S += "run\n";
  return S;
}

} // namespace

bool gcache::readServeCheckpointCoords(const std::string &Path,
                                       std::string &ConfigSpec,
                                       uint64_t &Records, uint64_t &Bytes,
                                       uint32_t &Crc) {
  SnapshotReader R;
  if (!R.open(Path).ok())
    return false;
  SnapshotCursor C = R.section("serve-pos");
  ConfigSpec = C.getString();
  Bytes = C.getU64();
  Records = C.getU64();
  Crc = C.getU32();
  return C.finish().ok();
}

void gcache::serveWorkerMain(int JobFd, int ResultFd) {
#ifdef __linux__
  // Die with the daemon: a killed parent must not leave orphan workers.
  prctl(PR_SET_PDEATHSIG, SIGKILL);
#endif
  // SIGTERM drains the in-flight job to a partial checkpoint.
  SignalGuard::install();
  signal(SIGPIPE, SIG_IGN);

  std::string Line;
  for (;;) {
    ServeJob Job;
    bool Run = false;
    while (readLineFd(JobFd, Line)) {
      if (Line == "run") {
        Run = true;
        break;
      }
      size_t Eq = Line.find('=');
      if (Eq == std::string::npos)
        continue;
      std::string Key = Line.substr(0, Eq), Value = Line.substr(Eq + 1);
      if (Key == "client")
        Job.Client = Value;
      else if (Key == "config")
        Job.ConfigSpec = Value;
      else if (Key == "spool")
        Job.SpoolPath = Value;
      else if (Key == "ckpt")
        Job.CheckpointPath = Value;
      else if (Key == "records")
        Job.DeclaredRecords = std::strtoull(Value.c_str(), nullptr, 10);
      else if (Key == "crc")
        Job.DeclaredCrc =
            static_cast<uint32_t>(std::strtoull(Value.c_str(), nullptr, 10));
      else if (Key == "ckptevery")
        Job.CheckpointEveryRecords =
            std::strtoull(Value.c_str(), nullptr, 10);
      else if (Key == "seed")
        Job.SeedSnapshotPath = Value;
      else if (Key == "resume")
        Job.Resume = Value == "1";
      else if (Key == "xchk")
        Job.CrosscheckEvery = std::strtoull(Value.c_str(), nullptr, 10);
      else if (Key == "audit")
        Job.Audit = Value == "1";
      else if (Key == "threads")
        Job.Threads =
            static_cast<unsigned>(std::strtoul(Value.c_str(), nullptr, 10));
    }
    if (!Run)
      _exit(0); // Parent closed the job pipe: clean shutdown.

    // A fresh job must not inherit the previous job's drain request.
    cancelToken().reset();

    auto Report = [&](const std::string &Text) {
      writeAllFd(ResultFd, Text + "\n");
    };
    // A cross-check divergence throws StatusError out of the bank's flush;
    // report it as a structured failure rather than crashing the worker
    // (a crash would look retryable, but divergence is deterministic).
    Expected<ServeResult> R = [&]() -> Expected<ServeResult> {
      try {
        return runServeJob(
            Job, [&](uint64_t Records, uint64_t Bytes, uint32_t Crc) {
              Report("ckpt " + std::to_string(Records) + " " +
                     std::to_string(Bytes) + " " + std::to_string(Crc));
            });
      } catch (const StatusError &E) {
        return E.status();
      }
    }();
    if (!R) {
      std::string Msg = R.status().message();
      std::replace(Msg.begin(), Msg.end(), '\n', ' ');
      Report("err " + std::string(statusCodeName(R.status().code())) + " " +
             Msg);
    } else if (R->Outcome == UnitOutcome::Ok) {
      Report("ok " + R->ReplyJson);
    } else {
      Report("partial " + std::string(unitOutcomeName(R->Outcome)) + " " +
             R->ReplyJson);
    }
  }
}

//===----------------------------------------------------------------------===//
// WorkerPool
//===----------------------------------------------------------------------===//

WorkerPool::~WorkerPool() { stop(); }

Status WorkerPool::spawn(Member &M) {
  int JobPipe[2], ResultPipe[2];
  if (pipe(JobPipe) != 0)
    return Status::failf(StatusCode::IoError, "pipe: %s",
                         std::strerror(errno));
  if (pipe(ResultPipe) != 0) {
    close(JobPipe[0]);
    close(JobPipe[1]);
    return Status::failf(StatusCode::IoError, "pipe: %s",
                         std::strerror(errno));
  }
  pid_t Pid = fork();
  if (Pid < 0) {
    for (int Fd : {JobPipe[0], JobPipe[1], ResultPipe[0], ResultPipe[1]})
      close(Fd);
    return Status::failf(StatusCode::IoError, "fork: %s",
                         std::strerror(errno));
  }
  if (Pid == 0) {
    close(JobPipe[1]);
    close(ResultPipe[0]);
    serveWorkerMain(JobPipe[0], ResultPipe[1]);
  }
  close(JobPipe[0]);
  close(ResultPipe[1]);
  M.Pid = Pid;
  M.JobFd = JobPipe[1];
  M.ResultFd = ResultPipe[0];
  M.LineBuf.clear();
  M.JobId = 0;
  // Parent reads results nonblocking inside the poll loop.
  int Flags = fcntl(M.ResultFd, F_GETFL, 0);
  fcntl(M.ResultFd, F_SETFL, Flags | O_NONBLOCK);
  return Status();
}

Status WorkerPool::start(const WorkerPoolOptions &O) {
  Opts = O;
  Members.resize(std::max(1u, Opts.Workers));
  for (Member &M : Members)
    if (Status S = spawn(M); !S.ok()) {
      stop();
      return S;
    }
  return Status();
}

uint64_t WorkerPool::submit(ServeJob Job) {
  PendingJob P;
  P.Id = NextJobId++;
  P.Job = std::move(Job);
  Queue.push_back(std::move(P));
  return Queue.back().Id;
}

void WorkerPool::appendPollFds(std::vector<pollfd> &Fds) const {
  for (const Member &M : Members)
    if (M.ResultFd >= 0)
      Fds.push_back({M.ResultFd, POLLIN, 0});
}

size_t WorkerPool::runningJobs() const { return Running.size(); }

bool WorkerPool::idle() const { return Queue.empty() && Running.empty(); }

unsigned WorkerPool::workersAlive() const {
  unsigned N = 0;
  for (const Member &M : Members)
    N += M.Pid > 0;
  return N;
}

std::vector<WorkerPool::WorkerStat> WorkerPool::workerStats() const {
  std::vector<WorkerStat> Stats;
  Stats.reserve(Members.size());
  for (const Member &M : Members)
    Stats.push_back({M.Pid, M.SlotDeaths, M.SlotRetries, M.SlotCompleted});
  return Stats;
}

int WorkerPool::nextWakeMs() const {
  if (Queue.empty())
    return -1;
  int64_t Now = nowMs();
  int64_t Best = -1;
  for (const PendingJob &P : Queue) {
    int64_t Wait = P.ReadyAtMs > Now ? P.ReadyAtMs - Now : 0;
    if (Best < 0 || Wait < Best)
      Best = Wait;
  }
  return static_cast<int>(Best);
}

void WorkerPool::dispatch(Member &M, PendingJob Take) {
  M.JobId = Take.Id;
  std::string Spec = serializeJob(Take.Job, Take.Attempt);
  Running.push_back(std::move(Take));
  if (!writeAllFd(M.JobFd, Spec)) {
    // The worker died between spawn and dispatch; the next pump() reaps it
    // and the normal death path retries the job.
  }
}

void WorkerPool::handleLine(Member &M, const std::string &Line,
                            std::vector<Event> &Events) {
  auto It = std::find_if(Running.begin(), Running.end(),
                         [&](const PendingJob &P) { return P.Id == M.JobId; });
  if (It == Running.end())
    return; // A stale line from a job already resolved; ignore.

  if (Line.rfind("ckpt ", 0) == 0) {
    Event E;
    E.EventKind = Event::Kind::Checkpoint;
    E.JobId = M.JobId;
    E.Attempt = It->Attempt;
    std::sscanf(Line.c_str(), "ckpt %llu %llu %u",
                reinterpret_cast<unsigned long long *>(&E.Records),
                reinterpret_cast<unsigned long long *>(&E.Bytes), &E.Crc);
    Events.push_back(E);
    // worker-kill fault site: SIGKILL the worker right after it reported
    // this checkpoint, so the retry provably resumes from it.
    if (faultInjector().shouldFire(FaultSite::WorkerKill) && M.Pid > 0)
      kill(M.Pid, SIGKILL);
    return;
  }

  Event E;
  E.EventKind = Event::Kind::Result;
  E.JobId = M.JobId;
  E.Attempt = It->Attempt;
  if (Line.rfind("ok ", 0) == 0) {
    E.Result.Outcome = UnitOutcome::Ok;
    E.Result.ReplyJson = Line.substr(3);
    E.Result.Records = static_cast<uint64_t>(
        std::max<int64_t>(0, jsonFindInt(E.Result.ReplyJson, "records", 0)));
    E.Result.Resumed = It->Attempt > 1;
    ++Completed;
    ++M.SlotCompleted;
  } else if (Line.rfind("partial ", 0) == 0) {
    size_t Sp = Line.find(' ', 8);
    std::string Name =
        Sp == std::string::npos ? Line.substr(8) : Line.substr(8, Sp - 8);
    E.Result.Outcome = unitOutcomeFromName(Name);
    E.Result.ReplyJson = Sp == std::string::npos ? "" : Line.substr(Sp + 1);
    E.Result.Records = static_cast<uint64_t>(
        std::max<int64_t>(0, jsonFindInt(E.Result.ReplyJson, "records", 0)));
  } else if (Line.rfind("err ", 0) == 0) {
    size_t Sp = Line.find(' ', 4);
    std::string Code =
        Sp == std::string::npos ? Line.substr(4) : Line.substr(4, Sp - 4);
    std::string Msg = Sp == std::string::npos ? "" : Line.substr(Sp + 1);
    E.Error = Status::failf(statusCodeFromName(Code), "%s", Msg.c_str());
  } else {
    return; // Unknown protocol line; ignore.
  }
  Running.erase(It);
  M.JobId = 0;
  Events.push_back(std::move(E));
}

void WorkerPool::onWorkerDown(Member &M, std::vector<Event> &Events) {
  ++Deaths;
  ++M.SlotDeaths;
  if (M.JobFd >= 0)
    close(M.JobFd);
  if (M.ResultFd >= 0)
    close(M.ResultFd);
  M.JobFd = M.ResultFd = -1;
  int Pid = M.Pid;
  M.Pid = -1;
  if (Pid > 0)
    waitpid(Pid, nullptr, 0);

  if (M.JobId) {
    auto It =
        std::find_if(Running.begin(), Running.end(),
                     [&](const PendingJob &P) { return P.Id == M.JobId; });
    if (It != Running.end()) {
      PendingJob P = std::move(*It);
      Running.erase(It);
      if (P.Attempt <= Opts.MaxRetries && !Draining) {
        ++Retries;
        ++M.SlotRetries;
        Event E;
        E.EventKind = Event::Kind::Retrying;
        E.JobId = P.Id;
        E.Attempt = P.Attempt;
        Events.push_back(E);
        P.ReadyAtMs =
            nowMs() + (static_cast<int64_t>(Opts.BackoffMs) << (P.Attempt - 1));
        ++P.Attempt;
        P.Job.Resume = true; // Continue from the last checkpoint, if any.
        Queue.push_back(std::move(P));
      } else {
        ++Denials;
        Event E;
        E.EventKind = Event::Kind::Denied;
        E.JobId = P.Id;
        E.Attempt = P.Attempt;
        E.Error = Status::failf(
            StatusCode::WorkerFailure,
            "job '%s' lost its worker %u time(s); retries exhausted",
            P.Job.Client.c_str(), P.Attempt);
        Events.push_back(std::move(E));
      }
    }
    M.JobId = 0;
  }
  // Keep the pool at strength (not while shutting down).
  if (!Draining)
    (void)spawn(M);
}

void WorkerPool::pump(std::vector<Event> &Events) {
  // Drain result pipes first so lines written before a death are not lost.
  for (Member &M : Members) {
    if (M.ResultFd < 0)
      continue;
    char Buf[4096];
    bool Eof = false;
    for (;;) {
      ssize_t N = read(M.ResultFd, Buf, sizeof(Buf));
      if (N > 0) {
        M.LineBuf.append(Buf, static_cast<size_t>(N));
        continue;
      }
      if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
        break;
      if (N < 0 && errno == EINTR)
        continue;
      Eof = true; // 0 or a hard error: the worker side is gone.
      break;
    }
    size_t Pos = 0, Nl;
    while ((Nl = M.LineBuf.find('\n', Pos)) != std::string::npos) {
      handleLine(M, M.LineBuf.substr(Pos, Nl - Pos), Events);
      Pos = Nl + 1;
    }
    M.LineBuf.erase(0, Pos);
    if (Eof)
      onWorkerDown(M, Events);
  }

  // Reap any worker that died before its pipe EOF was observed: salvage
  // the final lines still in the pipe, then run the normal death path.
  for (Member &M : Members) {
    if (M.Pid <= 0)
      continue;
    if (waitpid(M.Pid, nullptr, WNOHANG) != M.Pid)
      continue;
    if (M.ResultFd >= 0) {
      char Buf[4096];
      ssize_t N;
      while ((N = read(M.ResultFd, Buf, sizeof(Buf))) > 0)
        M.LineBuf.append(Buf, static_cast<size_t>(N));
      size_t Pos = 0, Nl;
      while ((Nl = M.LineBuf.find('\n', Pos)) != std::string::npos) {
        handleLine(M, M.LineBuf.substr(Pos, Nl - Pos), Events);
        Pos = Nl + 1;
      }
      M.LineBuf.clear();
    }
    M.Pid = -1; // Already reaped; onWorkerDown skips its waitpid.
    onWorkerDown(M, Events);
  }

  if (Draining) {
    // Queued jobs can no longer run; fail them as cancelled.
    for (PendingJob &P : Queue) {
      Event E;
      E.EventKind = Event::Kind::Result;
      E.JobId = P.Id;
      E.Attempt = P.Attempt;
      E.Result.Outcome = UnitOutcome::Cancelled;
      Events.push_back(std::move(E));
    }
    Queue.clear();
    return;
  }

  // Dispatch queued jobs whose backoff has elapsed to idle workers.
  int64_t Now = nowMs();
  for (Member &M : Members) {
    if (Queue.empty())
      break;
    if (M.Pid <= 0 || M.JobId)
      continue;
    auto It = std::find_if(Queue.begin(), Queue.end(), [&](const PendingJob &P) {
      return P.ReadyAtMs <= Now;
    });
    if (It == Queue.end())
      break;
    PendingJob Take = std::move(*It);
    Queue.erase(It);
    dispatch(M, std::move(Take));
  }
}

void WorkerPool::drain() {
  Draining = true;
  for (Member &M : Members)
    if (M.Pid > 0 && M.JobId)
      kill(M.Pid, SIGTERM);
}

void WorkerPool::stop() {
  for (Member &M : Members) {
    if (M.JobFd >= 0)
      close(M.JobFd);
    if (M.ResultFd >= 0)
      close(M.ResultFd);
    if (M.Pid > 0) {
      kill(M.Pid, SIGKILL);
      waitpid(M.Pid, nullptr, 0);
    }
  }
  Members.clear();
  Queue.clear();
  Running.clear();
}
