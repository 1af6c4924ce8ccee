//===- make_corpus.cpp - Generate binary fuzz-corpus seeds --------------------===//
//
// Part of the gcache project (Reinhold, PLDI 1994 reproduction).
//
// Writes small, *valid* trace and snapshot files through the real
// writers, so the checked-in corpus seeds exercise the accept paths of
// the fuzz targets (mutation from a valid seed reaches far deeper than
// mutation from garbage). Scheme seeds are plain text and are checked in
// directly.
//
// Usage: make_corpus <trace-dir> <snapshot-dir>
//
//===----------------------------------------------------------------------===//

#include "gcache/memsys/Cache.h"
#include "gcache/support/Snapshot.h"
#include "gcache/trace/TraceFile.h"

#include <cstdio>
#include <string>

using namespace gcache;

namespace {

int die(const Status &S) {
  std::fprintf(stderr, "make_corpus: %s\n", S.message().c_str());
  return 1;
}

/// A small but representative event stream: both phases, both access
/// kinds, allocations, and a GC pause with phase markers.
void emitEvents(TraceSink &Out) {
  for (uint32_t I = 0; I != 64; ++I) {
    Ref R;
    R.Addr = 0x1000 + I * 12;
    R.Kind = (I % 3) ? AccessKind::Load : AccessKind::Store;
    R.ExecPhase = Phase::Mutator;
    Out.onRef(R);
    if (I % 8 == 0)
      Out.onAlloc(0x8000 + I * 16, 16);
  }
  Out.onGcBegin();
  Out.onGcPhase(GcPhase::Begin);
  Out.onGcPhase(GcPhase::Trace);
  for (uint32_t I = 0; I != 16; ++I) {
    Ref R;
    R.Addr = 0x2000 + I * 8;
    R.Kind = AccessKind::Load;
    R.ExecPhase = Phase::Collector;
    Out.onRef(R);
  }
  Out.onGcPhase(GcPhase::Finish);
  Out.onGcEnd();
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc != 3) {
    std::fprintf(stderr, "usage: %s <trace-dir> <snapshot-dir>\n", Argv[0]);
    return 2;
  }
  std::string TraceDir = Argv[1], SnapDir = Argv[2];

  // Seed 1: a complete valid trace.
  {
    TraceWriter W;
    if (Status S = W.open(TraceDir + "/valid.gctrace"); !S.ok())
      return die(S);
    emitEvents(W);
    if (Status S = W.close(); !S.ok())
      return die(S);
  }
  // Seed 2: an empty (but valid) trace.
  {
    TraceWriter W;
    if (Status S = W.open(TraceDir + "/empty.gctrace"); !S.ok())
      return die(S);
    if (Status S = W.close(); !S.ok())
      return die(S);
  }

  // Seed 3: a snapshot holding real cache state plus an unknown section
  // (readers must skip sections they do not recognize).
  {
    Cache C({.SizeBytes = 1 << 10, .BlockBytes = 32});
    emitEvents(C);
    SnapshotWriter W;
    W.beginSection("cache-state");
    C.saveState(W);
    W.beginSection("experimental-telemetry");
    W.putU32(7);
    W.putString("not a section this tree knows about");
    if (Status S = W.writeFile(SnapDir + "/cache_state.gcsnap"); !S.ok())
      return die(S);
  }
  // Seed 4: a minimal empty container.
  {
    SnapshotWriter W;
    if (Status S = W.writeFile(SnapDir + "/empty.gcsnap"); !S.ok())
      return die(S);
  }

  std::printf("corpus seeds written to %s and %s\n", TraceDir.c_str(),
              SnapDir.c_str());
  return 0;
}
