//===- test_span.cpp - The batch-native trace bus ---------------------------===//
//
// A live run's references reach the bus in spans (TraceSink::onRefs), not
// one call per reference. These tests pin both halves of that contract:
//
//  - every sink that overrides onRefs ends in exactly the state the same
//    stream leaves when fed one reference at a time through onRef, for
//    spans of every length (0, 1, odd, longer than a bank batch) with
//    allocations and collection events between them;
//  - the heap delivers its buffered references before every non-reference
//    event, tracing toggle and bus change, and when its buffer fills, so a
//    sink sees each event after every reference emitted before it.
//
//===----------------------------------------------------------------------===//

#include "gcache/analysis/BlockTracker.h"
#include "gcache/analysis/MissPlot.h"
#include "gcache/core/Audit.h"
#include "gcache/core/Experiment.h"
#include "gcache/heap/Heap.h"
#include "gcache/memsys/CacheBank.h"
#include "gcache/support/Random.h"
#include "gcache/support/Snapshot.h"
#include "gcache/trace/Sinks.h"
#include "gcache/trace/TraceFile.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

using namespace gcache;

namespace {

/// What follows a span in a test stream.
enum class After : uint8_t { Nothing, Alloc, GcBegin, GcPhase, GcEnd };

struct Step {
  size_t Off = 0, Len = 0; ///< The span: rows of Stream::Refs.
  After Event = After::Nothing;
  Address AllocAddr = 0;
  uint32_t AllocBytes = 0;
};

/// A random stream cut into random spans. References mix both phases and
/// kinds over static, stack and dynamic addresses; dynamic ones fall
/// below the allocation frontier, which allocations between spans move.
struct Stream {
  RefColumns Refs;
  std::vector<Step> Steps;

  RefSpan span(const Step &S) const {
    return RefSpan{Refs.Addr.data(), Refs.Kind.data(), Refs.PhaseTag.data(),
                   Refs.size()}
        .subspan(S.Off, S.Len);
  }
};

Stream randomStream(uint64_t Seed, size_t NumSteps) {
  Rng R(Seed);
  Stream Out;
  Address Frontier = Heap::DynamicBase + 4096;
  Phase P = Phase::Mutator;
  for (size_t I = 0; I != NumSteps; ++I) {
    Step S;
    S.Off = Out.Refs.size();
    switch (R.below(8)) {
    case 0:
      S.Len = 0;
      break;
    case 1:
      S.Len = 1;
      break;
    case 2:
      S.Len = 300 + 2 * R.below(200) + 1; // Longer than a small batch.
      break;
    default:
      S.Len = 2 * R.below(40) + 1;
    }
    for (size_t K = 0; K != S.Len; ++K) {
      if (R.below(64) == 0)
        P = P == Phase::Mutator ? Phase::Collector : Phase::Mutator;
      Address A;
      switch (R.below(4)) {
      case 0:
        A = Heap::StaticBase + 4 * static_cast<Address>(R.below(16384));
        break;
      case 1:
        A = Heap::StackBase + 4 * static_cast<Address>(R.below(2048));
        break;
      default: // Mostly near the frontier, as the allocator's stores are.
        A = Frontier - 4 - 4 * static_cast<Address>(
                                   R.below(R.below(2) ? 64 : 1024));
      }
      AccessKind Kind = R.below(3) ? AccessKind::Load : AccessKind::Store;
      Out.Refs.push_back({A, Kind, P});
    }
    switch (R.below(6)) {
    case 0:
    case 1:
    case 2:
      S.Event = After::Alloc;
      S.AllocAddr = Frontier;
      S.AllocBytes = 4 * static_cast<uint32_t>(1 + R.below(24));
      Frontier += S.AllocBytes;
      break;
    case 3:
      S.Event = After::GcPhase;
      break;
    case 4:
      S.Event = R.below(2) ? After::GcBegin : After::GcEnd;
      break;
    default:
      break;
    }
    Out.Steps.push_back(S);
  }
  return Out;
}

void deliverEvent(TraceSink &Sink, const Step &S) {
  switch (S.Event) {
  case After::Nothing:
    break;
  case After::Alloc:
    Sink.onAlloc(S.AllocAddr, S.AllocBytes);
    break;
  case After::GcBegin:
    Sink.onGcBegin();
    break;
  case After::GcPhase:
    Sink.onGcPhase(GcPhase::Trace);
    break;
  case After::GcEnd:
    Sink.onGcEnd();
    break;
  }
}

/// Feeds \p St to \p Sink one span per step.
void feedSpans(TraceSink &Sink, const Stream &St) {
  for (const Step &S : St.Steps) {
    Sink.onRefs(St.span(S));
    deliverEvent(Sink, S);
  }
}

/// Feeds \p St to \p Sink one reference at a time.
void feedRefs(TraceSink &Sink, const Stream &St) {
  for (const Step &S : St.Steps) {
    for (size_t I = S.Off; I != S.Off + S.Len; ++I)
      Sink.onRef(St.Refs.get(I));
    deliverEvent(Sink, S);
  }
}

/// Every byte of a cache's state: geometry, lines, counters, per-block
/// statistics.
std::vector<uint8_t> cacheImage(const Cache &C) {
  SnapshotWriter W;
  W.beginSection("cache");
  C.saveState(W);
  return W.image();
}

std::vector<uint8_t> bankImage(CacheBank &Bank) {
  SnapshotWriter W;
  Bank.saveTo(W);
  return W.image();
}

std::string readFile(const std::string &Path) {
  std::string Data;
  if (FILE *F = std::fopen(Path.c_str(), "rb")) {
    char Buf[4096];
    size_t N;
    while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
      Data.append(Buf, N);
    std::fclose(F);
  }
  return Data;
}

constexpr uint64_t Seeds[] = {1, 2, 3};
constexpr size_t StepsPerStream = 1500;

} // namespace

//===----------------------------------------------------------------------===//
// Per-sink equivalence: spans leave each sink as single references do
//===----------------------------------------------------------------------===//

TEST(SpanSinks, StreamsHaveEveryShapeOfSpan) {
  Stream St = randomStream(Seeds[0], StepsPerStream);
  size_t Empty = 0, Single = 0, Long = 0, Allocs = 0;
  for (const Step &S : St.Steps) {
    Empty += S.Len == 0;
    Single += S.Len == 1;
    Long += S.Len > 300;
    Allocs += S.Event == After::Alloc;
  }
  EXPECT_GT(Empty, 0u);
  EXPECT_GT(Single, 0u);
  EXPECT_GT(Long, 0u);
  EXPECT_GT(Allocs, 0u);
}

TEST(SpanSinks, CountingSinkMatchesPerReference) {
  for (uint64_t Seed : Seeds) {
    Stream St = randomStream(Seed, StepsPerStream);
    CountingSink BySpan, ByRef;
    feedSpans(BySpan, St);
    feedRefs(ByRef, St);
    for (Phase P : {Phase::Mutator, Phase::Collector}) {
      EXPECT_EQ(BySpan.loads(P), ByRef.loads(P)) << Seed;
      EXPECT_EQ(BySpan.stores(P), ByRef.stores(P)) << Seed;
    }
    EXPECT_EQ(BySpan.totalRefs(), St.Refs.size());
    EXPECT_EQ(BySpan.allocatedBytes(), ByRef.allocatedBytes());
    EXPECT_EQ(BySpan.collections(), ByRef.collections());
  }
}

// The auditor's tally is private; its check against a CountingSink fed
// one reference at a time compares every [phase][kind] count.
TEST(SpanSinks, AuditSinkTallyMatchesPerReference) {
  for (uint64_t Seed : Seeds) {
    Stream St = randomStream(Seed, StepsPerStream);
    CountingSink ByRef;
    feedRefs(ByRef, St);
    for (Step &S : St.Steps) // Audits fire at GC events; keep them apart.
      if (S.Event == After::GcBegin || S.Event == After::GcEnd)
        S.Event = After::Nothing;
    AuditSink BySpan(nullptr, &ByRef);
    feedSpans(BySpan, St);
    EXPECT_TRUE(BySpan.finalCheck().ok()) << BySpan.finalCheck().message();

    // A dropped span must show.
    size_t Drop = 0;
    while (St.Steps[Drop].Len == 0)
      ++Drop;
    AuditSink Short(nullptr, &ByRef);
    for (size_t I = 0; I != St.Steps.size(); ++I)
      if (I != Drop)
        Short.onRefs(St.span(St.Steps[I]));
    EXPECT_FALSE(Short.finalCheck().ok());
  }
}

TEST(SpanSinks, BudgetMeterMatchesPerReference) {
  Stream St = randomStream(Seeds[0], StepsPerStream);
  BudgetRefMeter Meter;
  processBudget().reset();
  feedSpans(Meter, St);
  uint64_t BySpan = processBudget().refsSeen();
  processBudget().reset();
  feedRefs(Meter, St);
  uint64_t ByRef = processBudget().refsSeen();
  processBudget().reset();
  EXPECT_EQ(BySpan, St.Refs.size());
  EXPECT_EQ(ByRef, St.Refs.size());
}

namespace {

/// A bank with chains (direct-mapped, with and without per-block
/// statistics) and solo caches (4-way, under both write-miss policies).
void addMixedCaches(CacheBank &Bank) {
  CacheConfig Proto;
  Bank.addSizeSweep(Proto, 32);
  Proto.TrackPerBlockStats = true;
  Bank.addSizeSweep(Proto, 64);
  CacheConfig Assoc;
  Assoc.SizeBytes = 16 << 10;
  Assoc.BlockBytes = 64;
  Assoc.Ways = 4;
  Bank.addConfig(Assoc);
  CacheConfig FetchOnWrite;
  FetchOnWrite.SizeBytes = 32 << 10;
  FetchOnWrite.BlockBytes = 16;
  FetchOnWrite.Ways = 4;
  FetchOnWrite.WriteMiss = WriteMissPolicy::FetchOnWrite;
  Bank.addConfig(FetchOnWrite);
}

} // namespace

TEST(SpanSinks, CacheBankMatchesPerReferenceInlineAndThreaded) {
  struct Mode {
    unsigned Threads;
    size_t BatchRefs;
  };
  for (uint64_t Seed : Seeds) {
    Stream St = randomStream(Seed, StepsPerStream);
    CacheBank ByRef;
    addMixedCaches(ByRef);
    feedRefs(ByRef, St);
    std::vector<uint8_t> Want = bankImage(ByRef);
    for (Mode M : {Mode{0, 0}, Mode{0, 100}, Mode{2, 64}}) {
      SCOPED_TRACE("seed " + std::to_string(Seed) + ", " +
                   std::to_string(M.Threads) + " workers, batch " +
                   std::to_string(M.BatchRefs));
      CacheBank BySpan;
      addMixedCaches(BySpan);
      BySpan.setThreads(M.Threads, M.BatchRefs);
      feedSpans(BySpan, St);
      EXPECT_TRUE(bankImage(BySpan) == Want);
    }
  }
}

// A cache picks its simulate instantiation once per span; with a shadow
// oracle it goes through access per reference. All four shapes, under
// both write-miss policies.
TEST(SpanSinks, CacheMatchesPerReferenceInEveryShape) {
  Stream St = randomStream(Seeds[1], StepsPerStream);
  for (uint32_t Ways : {1u, 2u})
    for (WriteMissPolicy Miss :
         {WriteMissPolicy::WriteValidate, WriteMissPolicy::FetchOnWrite})
      for (bool PerBlock : {false, true})
        for (bool Shadow : {false, true}) {
          CacheConfig C;
          C.SizeBytes = 8 << 10;
          C.BlockBytes = 32;
          C.Ways = Ways;
          C.WriteMiss = Miss;
          C.TrackPerBlockStats = PerBlock;
          SCOPED_TRACE(C.label() + (PerBlock ? " per-block" : "") +
                       (Shadow ? " shadowed" : ""));
          Cache BySpan(C), ByRef(C);
          if (Shadow) {
            BySpan.enableCrossCheck(1);
            ByRef.enableCrossCheck(1);
          }
          feedSpans(BySpan, St);
          feedRefs(ByRef, St);
          EXPECT_TRUE(cacheImage(BySpan) == cacheImage(ByRef));
          EXPECT_EQ(BySpan.totalCounters().refs(), St.Refs.size());
          EXPECT_TRUE(BySpan.crossCheckNow().ok());
        }
}

// Columns of 7 references end inside almost every span.
TEST(SpanSinks, MissPlotMatchesPerReference) {
  for (uint64_t Seed : Seeds) {
    Stream St = randomStream(Seed, StepsPerStream);
    CacheConfig C;
    C.SizeBytes = 4 << 10;
    C.BlockBytes = 64;
    MissPlot BySpan(C, 7), ByRef(C, 7);
    feedSpans(BySpan, St);
    feedRefs(ByRef, St);
    EXPECT_EQ(BySpan.columns(), ByRef.columns()) << Seed;
    EXPECT_EQ(BySpan.refsSeen(), St.Refs.size()) << Seed;
    EXPECT_TRUE(BySpan.renderPgm() == ByRef.renderPgm()) << Seed;
    EXPECT_TRUE(cacheImage(BySpan.cache()) == cacheImage(ByRef.cache()))
        << Seed;
    EXPECT_TRUE(auditMissPlot(BySpan).ok()) << Seed;
  }
}

TEST(SpanSinks, BlockTrackerMatchesPerReference) {
  for (uint64_t Seed : Seeds) {
    Stream St = randomStream(Seed, StepsPerStream);
    BlockTracker BySpan(64, 4 << 10, Heap::StaticBase);
    BlockTracker ByRef(64, 4 << 10, Heap::StaticBase);
    feedSpans(BySpan, St);
    feedRefs(ByRef, St);
    ASSERT_EQ(BySpan.numDynamicRecords(), ByRef.numDynamicRecords());
    for (size_t I = 0; I != BySpan.numDynamicRecords(); ++I) {
      const BlockRecord &A = BySpan.dynamicRecord(I);
      const BlockRecord &B = ByRef.dynamicRecord(I);
      EXPECT_EQ(A.FirstRef, B.FirstRef) << I;
      EXPECT_EQ(A.LastRef, B.LastRef) << I;
      EXPECT_EQ(A.RefCount, B.RefCount) << I;
      EXPECT_EQ(A.CyclesActive, B.CyclesActive) << I;
    }
    BlockSummary X = BySpan.computeSummary();
    BlockSummary Y = ByRef.computeSummary();
    EXPECT_EQ(X.TotalRefs, St.Refs.size());
    for (auto [P, Q] :
         {std::pair{X.TotalRefs, Y.TotalRefs},
          {X.DynamicBlocks, Y.DynamicBlocks},
          {X.OneCycleBlocks, Y.OneCycleBlocks},
          {X.MultiCycleBlocks, Y.MultiCycleBlocks},
          {X.MultiCycleActiveLe4, Y.MultiCycleActiveLe4},
          {X.StaticBlocks, Y.StaticBlocks},
          {X.BusyStaticBlocks, Y.BusyStaticBlocks},
          {X.BusyDynamicBlocks, Y.BusyDynamicBlocks},
          {X.BusyRefs, Y.BusyRefs},
          {X.RuntimeVectorRefs, Y.RuntimeVectorRefs},
          {X.StackRefs, Y.StackRefs}})
      EXPECT_EQ(P, Q) << Seed;
    EXPECT_EQ(BySpan.lifetimeHistogram().buckets(),
              ByRef.lifetimeHistogram().buckets());
    EXPECT_EQ(BySpan.cycleLengths().buckets(), ByRef.cycleLengths().buckets());
    EXPECT_EQ(BySpan.dynamicRefCounts().buckets(),
              ByRef.dynamicRefCounts().buckets());
  }
}

TEST(SpanSinks, TraceWriterFileIsByteIdentical) {
  Stream St = randomStream(Seeds[2], StepsPerStream);
  std::string Dir = ::testing::TempDir();
  std::string SpanPath = Dir + "/span_by_span.gct";
  std::string RefPath = Dir + "/span_by_ref.gct";
  TraceWriter BySpan, ByRef;
  ASSERT_TRUE(BySpan.open(SpanPath).ok());
  ASSERT_TRUE(ByRef.open(RefPath).ok());
  feedSpans(BySpan, St);
  feedRefs(ByRef, St);
  EXPECT_EQ(BySpan.recordCount(), ByRef.recordCount());
  ASSERT_TRUE(BySpan.close().ok());
  ASSERT_TRUE(ByRef.close().ok());
  std::string A = readFile(SpanPath), B = readFile(RefPath);
  EXPECT_GT(A.size(), St.Refs.size() * 5);
  EXPECT_TRUE(A == B);
}

//===----------------------------------------------------------------------===//
// Heap ordering: the buffer is delivered before every other event
//===----------------------------------------------------------------------===//

namespace {

/// Records, for every non-reference event, how many references it had
/// received when the event arrived.
class OrderRecorder final : public TraceSink {
public:
  struct Event {
    std::string What;
    uint64_t RefsBefore;
  };

  void onRef(const Ref &) override { ++Refs; }
  void onRefs(const RefSpan &S) override { Refs += S.size(); }
  void onAlloc(Address, uint32_t) override { note("alloc"); }
  void onGcBegin() override { note("gc-begin"); }
  void onGcEnd() override { note("gc-end"); }
  void onGcPhase(GcPhase P) override { note(gcPhaseName(P)); }

  uint64_t Refs = 0;
  std::vector<Event> Events;

private:
  void note(const char *What) { Events.push_back({What, Refs}); }
};

} // namespace

TEST(SpanHeap, EveryEventFollowsTheReferencesBeforeIt) {
  OrderRecorder Rec;
  Heap H(&Rec);
  uint64_t Emitted = 0;
  Address A = H.allocDynamicRaw(8);
  auto Touch = [&](unsigned N) {
    for (unsigned I = 0; I != N; ++I) {
      if (I % 3)
        (void)H.load(A + 4 * (I % 8));
      else
        H.store(A + 4 * (I % 8), I);
      ++Emitted;
    }
  };
  auto ExpectLast = [&](const char *What) {
    ASSERT_FALSE(Rec.Events.empty());
    EXPECT_EQ(Rec.Events.back().What, What);
    EXPECT_EQ(Rec.Events.back().RefsBefore, Emitted) << What;
  };

  Touch(5);
  (void)H.allocDynamicRaw(2);
  ExpectLast("alloc");
  Touch(1);
  H.recordAllocationEvent(A, 1);
  ExpectLast("alloc");
  Touch(7);
  H.emitGcBegin();
  ExpectLast("gc-begin");
  H.setPhase(Phase::Collector);
  Touch(3);
  H.emitGcPhase(GcPhase::Trace);
  ExpectLast("trace");
  Touch(9);
  H.emitGcEnd();
  ExpectLast("gc-end");
  H.setPhase(Phase::Mutator);
  size_t Events = Rec.Events.size();

  Touch(4);
  H.setTracing(false);
  EXPECT_EQ(Rec.Refs, Emitted) << "tracing toggle";
  (void)H.load(A); // Untraced: not emitted.
  H.setTracing(true);
  EXPECT_EQ(Rec.Refs, Emitted);

  OrderRecorder Other;
  Touch(6);
  H.setTraceBus(&Other);
  EXPECT_EQ(Rec.Refs, Emitted) << "bus change";
  Touch(2);
  H.flushTrace();
  EXPECT_EQ(Other.Refs, 2u);
  EXPECT_EQ(Rec.Events.size(), Events);

  // A full buffer is delivered without waiting for an event.
  for (size_t I = 0; I != Heap::TraceBufferRefs; ++I)
    (void)H.load(A);
  EXPECT_EQ(Other.Refs, 2u + Heap::TraceBufferRefs);
}

// Collection events reach the bus with or without tracing (the collectors
// emit them through the heap), each after the buffered references.
TEST(SpanHeap, GcEventsReachTheBusWithTracingOff) {
  OrderRecorder Rec;
  Heap H(&Rec);
  H.setTracing(false);
  H.emitGcBegin();
  H.emitGcPhase(GcPhase::Begin);
  H.emitGcEnd();
  ASSERT_EQ(Rec.Events.size(), 3u);
  EXPECT_EQ(Rec.Events[1].What, "begin");
  EXPECT_EQ(Rec.Refs, 0u);
}
