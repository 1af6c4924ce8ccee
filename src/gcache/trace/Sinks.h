//===- Sinks.h - Reusable trace sinks ---------------------------*- C++ -*-===//
//
// Part of the gcache project (Reinhold, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fan-out bus and bookkeeping sinks shared by the experiment drivers: a
/// TraceBus broadcasting to many sinks (this is how one program run feeds a
/// whole bank of cache simulators plus the behaviour analyses in a single
/// pass), a CountingSink producing the load/store/phase totals of the §3
/// program table, and a CallbackSink for tests.
///
/// A live run's references reach the bus in spans from the heap (see the
/// delivery contract in trace/Event.h). The bus forwards each span whole
/// to every sink in order, so each sink takes a span in one call and one
/// loop; CountingSink tallies it with tallyRefs. CallbackSink keeps the
/// per-reference default.
///
//===----------------------------------------------------------------------===//

#ifndef GCACHE_TRACE_SINKS_H
#define GCACHE_TRACE_SINKS_H

#include "gcache/support/Snapshot.h"
#include "gcache/trace/Event.h"

#include <functional>
#include <vector>

namespace gcache {

/// Broadcasts every event to an ordered list of sinks. Does not own them.
class TraceBus final : public TraceSink {
public:
  void addSink(TraceSink *S) { Sinks.push_back(S); }
  void clear() { Sinks.clear(); }

  void onRef(const Ref &R) override {
    for (TraceSink *S : Sinks)
      S->onRef(R);
  }
  void onRefs(const RefSpan &Span) override {
    for (TraceSink *S : Sinks)
      S->onRefs(Span);
  }
  void onAlloc(Address Addr, uint32_t Bytes) override {
    for (TraceSink *S : Sinks)
      S->onAlloc(Addr, Bytes);
  }
  void onGcBegin() override {
    for (TraceSink *S : Sinks)
      S->onGcBegin();
  }
  void onGcEnd() override {
    for (TraceSink *S : Sinks)
      S->onGcEnd();
  }
  void onGcPhase(GcPhase P) override {
    for (TraceSink *S : Sinks)
      S->onGcPhase(P);
  }

private:
  std::vector<TraceSink *> Sinks;
};

/// Counts references by kind and phase; the source of the paper's "Refs"
/// column and of the reference-time clock used throughout §7.
class CountingSink final : public TraceSink {
public:
  void onRef(const Ref &R) override {
    ++Counts[static_cast<unsigned>(R.ExecPhase)][static_cast<unsigned>(R.Kind)];
  }
  void onRefs(const RefSpan &S) override { tallyRefs(S, Counts); }
  void onAlloc(Address, uint32_t Bytes) override { AllocBytes += Bytes; }
  void onGcBegin() override { ++Collections; }

  uint64_t loads(Phase P) const {
    return Counts[static_cast<unsigned>(P)][0];
  }
  uint64_t stores(Phase P) const {
    return Counts[static_cast<unsigned>(P)][1];
  }
  uint64_t totalRefs() const {
    return Counts[0][0] + Counts[0][1] + Counts[1][0] + Counts[1][1];
  }
  uint64_t mutatorRefs() const { return Counts[0][0] + Counts[0][1]; }
  uint64_t allocatedBytes() const { return AllocBytes; }
  uint64_t collections() const { return Collections; }

  /// Appends all counters to an open snapshot section.
  void save(SnapshotWriter &W) const {
    for (const auto &PhaseCounts : Counts)
      for (uint64_t V : PhaseCounts)
        W.putU64(V);
    W.putU64(AllocBytes);
    W.putU64(Collections);
  }
  /// Restores the counters written by save(); errors latch in \p C.
  void load(SnapshotCursor &C) {
    for (auto &PhaseCounts : Counts)
      for (uint64_t &V : PhaseCounts)
        V = C.getU64();
    AllocBytes = C.getU64();
    Collections = C.getU64();
  }

private:
  uint64_t Counts[2][2] = {{0, 0}, {0, 0}};
  uint64_t AllocBytes = 0;
  uint64_t Collections = 0;
};

/// Invokes a std::function per event; convenient in unit tests.
class CallbackSink final : public TraceSink {
public:
  std::function<void(const Ref &)> OnRef;
  std::function<void(Address, uint32_t)> OnAlloc;

  void onRef(const Ref &R) override {
    if (OnRef)
      OnRef(R);
  }
  void onAlloc(Address Addr, uint32_t Bytes) override {
    if (OnAlloc)
      OnAlloc(Addr, Bytes);
  }
};

} // namespace gcache

#endif // GCACHE_TRACE_SINKS_H
