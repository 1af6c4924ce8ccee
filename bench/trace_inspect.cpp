//===- trace_inspect.cpp - Trace-file validation, salvage, and replay ------===//
//
// Operator tool for recorded trace files: validates a trace's framing and
// checksum (distinguishing corrupt from merely truncated files), optionally
// salvages the longest valid prefix of a damaged trace, and replays a trace
// through a cache simulation with the crash-safe replay checkpoints
// (core/Checkpoint.h), so a long replay can be killed and resumed from its
// last checkpoint.
//
// Flags (besides the shared bench flags):
//   --trace=<path>      trace file to inspect (required)
//   --salvage           replay/summarize the valid prefix of a damaged file
//   --gc-phases         report per-trace GC phase statistics: cycle and
//                       step counts, and how collector references
//                       distribute over the stepped phases (collector
//                       refs outside any phase marker show as
//                       unattributed)
//   --replay            replay into a simulated cache and print miss counts
//   --cache-size=<b>    simulated cache size for --replay (default 65536)
//   --block-size=<b>    simulated block size for --replay (default 64)
//   --stop-after=<n>    abort after n records (kill simulation for testing)
//   --checkpoint-dir=<d>
//                       cut replay checkpoints into the A/B slot pair
//                       <d>/trace-replay.snap.{a,b} at every GC boundary
//   --checkpoint-every=<n>
//                       also cut one every n records
//   --resume            resume the replay from the newest good slot in <d>
//
// --resume and --checkpoint-every need --checkpoint-dir. --crosscheck/--audit
// validate the replay with the shadow oracle / conservation auditor.
//
// Exit codes: 0 valid (or salvage dropped nothing), 1 damaged or replay
// failure, 2 usage error, 3 resumable partial replay (test-kill abort, or
// a --deadline/--max-refs/signal drain to a checkpoint), 4 salvage
// truncated data (the summary reports the dropped bytes/records).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "gcache/core/Checkpoint.h"
#include "gcache/support/Vfs.h"
#include "gcache/trace/TraceFile.h"

using namespace gcache;

int main(int Argc, char **Argv) {
  BenchArgs A = parseBenchArgs(Argc, Argv,
                               {"trace", "salvage", "gc-phases",
                                "replay", "cache-size", "block-size",
                                "stop-after", "checkpoint-dir",
                                "checkpoint-every", "resume"});

  std::string CheckpointDir =
      flagOrExit(A.Opts.getStrict("checkpoint-dir", ""));
  unsigned CheckpointEvery =
      flagOrExit(A.Opts.getStrictUnsigned("checkpoint-every", 0));
  bool Resume = flagOrExit(A.Opts.getStrictBool("resume", false));
  bool Salvage = flagOrExit(A.Opts.getStrictBool("salvage", false));
  bool GcPhases = flagOrExit(A.Opts.getStrictBool("gc-phases", false));
  bool Replay = flagOrExit(A.Opts.getStrictBool("replay", false));
  if (CheckpointDir.empty() && (Resume || CheckpointEvery)) {
    std::fprintf(stderr, "error: --resume/--checkpoint-every require "
                         "--checkpoint-dir\n");
    return 2;
  }
  if (!CheckpointDir.empty()) {
    (void)vfs().mkdir(CheckpointDir); // A failure surfaces at the first cut.
    sweepStaleTmpFiles(CheckpointDir); // Half-written slots of a killed run.
  }

  std::string TracePath = flagOrExit(A.Opts.getStrict("trace", ""));
  if (TracePath.empty()) {
    std::fprintf(stderr, "error: --trace=<path> is required\n");
    return 2;
  }

  TraceStream Stream;
  if (Status S = Stream.open(TracePath, Salvage); !S.ok()) {
    std::fprintf(stderr, "%s: %s: %s\n", TracePath.c_str(),
                 statusCodeName(S.code()), S.message().c_str());
    if (S.code() == StatusCode::Truncated || S.code() == StatusCode::Corrupt)
      std::fprintf(stderr,
                   "hint: --salvage replays the longest valid record prefix\n");
    return 1;
  }

  uint64_t StartIndex = Stream.recordIndex();
  uint64_t StartOffset = Stream.byteOffset();
  uint64_t Refs = 0, Allocs = 0, GcBegins = 0, GcEnds = 0, GcPhaseMarks = 0;
  uint64_t AllocBytes = 0;
  TraceRecord Rec;
  while (Stream.next(Rec)) {
    switch (Rec.Op) {
    case TraceRecord::Kind::Ref:
      ++Refs;
      break;
    case TraceRecord::Kind::Alloc:
      ++Allocs;
      AllocBytes += Rec.AllocBytes;
      break;
    case TraceRecord::Kind::GcBegin:
      ++GcBegins;
      break;
    case TraceRecord::Kind::GcEnd:
      ++GcEnds;
      break;
    case TraceRecord::Kind::GcPhase:
      ++GcPhaseMarks;
      break;
    }
  }

  std::printf("%s: %s, %llu records\n", TracePath.c_str(),
              Stream.damage().ok() ? "valid" : "salvaged prefix",
              static_cast<unsigned long long>(Stream.recordCount()));
  bool SalvageTruncated = false;
  if (!Stream.damage().ok()) {
    std::printf("  damage: %s: %s\n", statusCodeName(Stream.damage().code()),
                Stream.damage().message().c_str());
    SalvageTruncated =
        Stream.droppedBytes() != 0 || Stream.droppedRecords() != 0;
    std::printf("  salvage dropped %llu bytes, %llu of %llu promised "
                "records\n",
                static_cast<unsigned long long>(Stream.droppedBytes()),
                static_cast<unsigned long long>(Stream.droppedRecords()),
                static_cast<unsigned long long>(Stream.declaredRecordCount()));
  }
  std::printf("  refs %llu, allocs %llu (%llu bytes), gc %llu begin / %llu "
              "end / %llu phase marks\n",
              static_cast<unsigned long long>(Refs),
              static_cast<unsigned long long>(Allocs),
              static_cast<unsigned long long>(AllocBytes),
              static_cast<unsigned long long>(GcBegins),
              static_cast<unsigned long long>(GcEnds),
              static_cast<unsigned long long>(GcPhaseMarks));

  if (GcPhases) {
    if (Status S = Stream.seekTo(StartIndex, StartOffset); !S.ok()) {
      std::fprintf(stderr, "gc-phases: %s\n", S.message().c_str());
      return 1;
    }
    TracePhaseStats P = collectTracePhaseStats(Stream);
    std::printf("gc-phases:\n");
    std::printf("  %llu cycles, %llu phase marks, %llu bounded steps "
                "(min %llu / mean %.1f / max %llu per cycle)\n",
                static_cast<unsigned long long>(P.Cycles),
                static_cast<unsigned long long>(P.PhaseMarks),
                static_cast<unsigned long long>(P.Steps),
                static_cast<unsigned long long>(P.MinSteps), P.meanSteps(),
                static_cast<unsigned long long>(P.MaxSteps));
    for (unsigned I = 0; I < NumGcPhases; ++I) {
      if (!P.MarksByPhase[I] && !P.RefsByPhase[I])
        continue;
      std::printf("  phase %-9s %llu marks, %llu refs\n",
                  gcPhaseName(static_cast<GcPhase>(I)),
                  static_cast<unsigned long long>(P.MarksByPhase[I]),
                  static_cast<unsigned long long>(P.RefsByPhase[I]));
    }
    std::printf("  %llu mutator refs outside cycles",
                static_cast<unsigned long long>(P.MutatorRefs));
    if (P.UnattributedCollectorRefs)
      std::printf(", %llu collector refs unattributed",
                  static_cast<unsigned long long>(
                      P.UnattributedCollectorRefs));
    std::printf("\n");
  }

  if (!Replay)
    return SalvageTruncated ? 4 : 0;

  CacheConfig Cfg;
  Cfg.SizeBytes =
      flagOrExit(A.Opts.getStrictUnsigned("cache-size", 64 * 1024));
  Cfg.BlockBytes = flagOrExit(A.Opts.getStrictUnsigned("block-size", 64));
  if (!Cfg.isValid()) {
    std::fprintf(stderr, "error: invalid cache geometry (%u B, %u B blocks)\n",
                 Cfg.SizeBytes, Cfg.BlockBytes);
    return 2;
  }

  CacheBank Bank;
  Bank.addConfig(Cfg);
  if (A.CrossCheckEvery)
    Bank.enableCrossCheck(A.CrossCheckEvery);
  Bank.setThreads(A.Threads, A.BatchRefs);
  CountingSink Counts;

  ReplayCheckpointOptions RO;
  RO.Salvage = Salvage;
  RO.Audit = A.Audit;
  RO.StopAfterRecords =
      flagOrExit(A.Opts.getStrictUnsigned("stop-after", 0));
  if (!CheckpointDir.empty()) {
    RO.SnapshotPath = CheckpointDir + "/trace-replay.snap";
    RO.EveryRefs = CheckpointEvery;
    RO.Resume = Resume;
  }

  Expected<ReplayCheckpointResult> R =
      replayTraceCheckpointed(TracePath, Bank, Counts, RO);
  if (!R.ok()) {
    std::fprintf(stderr, "replay: %s: %s\n", statusCodeName(R.status().code()),
                 R.status().message().c_str());
    // The test kill leaves a resumable checkpoint behind; that is the
    // expected outcome, not a trace problem.
    return R.status().code() == StatusCode::Aborted ? 3 : 1;
  }
  if (R->Resumed)
    std::printf("replay: resumed at record %llu\n",
                static_cast<unsigned long long>(R->StartRecord));
  std::printf("replay: %llu records dispatched (total refs %llu, %llu "
              "collections)\n",
              static_cast<unsigned long long>(R->RecordsReplayed),
              static_cast<unsigned long long>(Counts.totalRefs()),
              static_cast<unsigned long long>(Counts.collections()));
  if (R->partial()) {
    // A budget/deadline/signal drain: the counters cover the replayed
    // prefix and the drain checkpoint is resumable (like exit 3's
    // test-kill, but graceful).
    std::printf("replay: PARTIAL (%s): %s; coverage %.0f%%\n",
                unitOutcomeName(R->Outcome), R->OutcomeNote.c_str(),
                R->Coverage >= 0 ? R->Coverage * 100.0 : 0.0);
    return 3;
  }

  const Cache &C = Bank.cache(0);
  CacheCounters Sum = C.counters(Phase::Mutator);
  Sum += C.counters(Phase::Collector);
  std::printf("cache %s: %llu refs, %llu fetch misses, %llu no-fetch "
              "misses, %llu writebacks\n",
              C.config().label().c_str(),
              static_cast<unsigned long long>(Sum.refs()),
              static_cast<unsigned long long>(Sum.FetchMisses),
              static_cast<unsigned long long>(Sum.NoFetchMisses),
              static_cast<unsigned long long>(Sum.Writebacks));
  return SalvageTruncated ? 4 : 0;
}
