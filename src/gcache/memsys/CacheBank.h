//===- CacheBank.h - Simulate many cache configs in one pass ----*- C++ -*-===//
//
// Part of the gcache project (Reinhold, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bank of cache simulators fed from a single reference stream. The
/// paper's methodology requires long runs (§2 criticizes short traces), so
/// instead of storing multi-gigabyte traces and replaying them once per
/// configuration, each program run is executed once and every reference is
/// dispatched to all simulated configurations simultaneously. This is
/// valid because the cache configuration never influences the reference
/// stream (program and collector behaviour are cache-independent).
///
/// The bank has one execution path. References accumulate into fixed-size
/// columnar batches: onRefs appends each span the heap delivers with one
/// bulk copy per column (onRef appends one reference), and a batch is
/// published the moment it holds BatchRefs references, wherever the spans
/// happen to end. Each batch is simulated lane by lane
/// (memsys/ShardPool.h): a lane holds the caches of one block size.
/// Its direct-mapped caches, with or without per-block statistics, form
/// inclusion chains, smallest first, in which a larger cache skips the
/// references a smaller one proves are no-ops for it (the skipped
/// references still reach its per-block reference counts); its
/// associative caches run solo, each taking the whole batch through
/// Cache::onRefs. A chain's first link and a solo cache run one walker
/// (memsys/BatchKernel.h), with or without a shadow oracle attached
/// (enableCrossCheck). Without threads, publishing a batch runs every
/// lane inline; setThreads(N) hands the lanes to N workers.
/// Each lane consumes the batches in order, so every counter is
/// bit-identical at any thread count and batch size
/// (tests/test_parallel_bank.cpp). Reading a cache (cache(), find())
/// first simulates everything fed so far.
///
/// Drain-on-cancel: every batch boundary is a point of the exact serial
/// stream, so a cancelled run (support/Budget.h) just stops feeding and
/// calls flush(). The counters are then those of the prefix fed, and a
/// checkpoint cut there is consistent and resumes bit-identically.
///
//===----------------------------------------------------------------------===//

#ifndef GCACHE_MEMSYS_CACHEBANK_H
#define GCACHE_MEMSYS_CACHEBANK_H

#include "gcache/memsys/Cache.h"
#include "gcache/memsys/ShardPool.h"
#include "gcache/support/Status.h"

#include <memory>
#include <vector>

namespace gcache {

class SnapshotReader;

/// Owns a set of caches and feeds each reference to all of them, inline
/// or on a pool of lane workers.
class CacheBank final : public TraceSink {
public:
  /// References per published batch: enough to amortize a threaded
  /// bank's synchronization, few enough that the batches it holds in
  /// flight stay memory-friendly.
  static constexpr size_t DefaultBatchRefs = 256 * 1024;

  ~CacheBank() override;

  /// Adds a cache with the given configuration; returns its index. Drains
  /// the bank and rebuilds its lanes; callable at any time.
  size_t addConfig(const CacheConfig &Config);

  /// Adds the full §4 grid: every paper cache size crossed with every
  /// paper block size, using \p Prototype for policies.
  void addPaperGrid(const CacheConfig &Prototype);

  /// Adds one cache per paper cache size at a fixed \p BlockBytes (the §6
  /// experiment uses 64-byte blocks across all sizes).
  void addSizeSweep(const CacheConfig &Prototype, uint32_t BlockBytes);

  /// Runs the lanes inline (\p Threads == 0) or on \p Threads workers.
  /// Flushes first, then rebuilds the lanes; counters are unaffected.
  /// \p BatchRefs is the batch size (0 = DefaultBatchRefs).
  void setThreads(unsigned Threads, size_t BatchRefs = DefaultBatchRefs);

  /// Number of worker threads (0 = lanes run inline); at most one per lane.
  unsigned threads() const { return Pool ? Pool->threads() : 0; }

  /// Attaches a shadow oracle to every cache in the bank (--crosscheck),
  /// including ones added by later addConfig calls. Each cache's counters
  /// are compared with its oracle's after every batch
  /// (Cache::enableCrossCheck); flush points additionally deep-compare
  /// full contents (crossCheckNow), throwing StatusError(Divergence) on
  /// mismatch. Drains the bank; the lanes stay as they are. Callable at
  /// any time.
  void enableCrossCheck();

  /// First failing deep comparison across the bank, or Ok. flush() calls
  /// it; other callers should drain first.
  Status crossCheckNow() const;

  /// First failing internal-consistency audit across the bank, or Ok:
  /// Cache::auditState per cache, then each chain's inclusion law
  /// (Cache::auditInclusionIn between consecutive links). Flushes first.
  Status auditAll();

  /// Simulates every buffered reference (drains the workers), then
  /// deep-compares cross-checked caches. If a worker failed since the last
  /// drain, the captured exception is rethrown here on the calling thread
  /// (the destructor instead swallows failures — it must not throw).
  void flush();

  void onRef(const Ref &R) override {
    Pending.push_back(R);
    if (Pending.size() >= BatchRefs)
      publish();
  }
  void onRefs(const RefSpan &S) override;

  /// Phase boundaries flush, so every reader at a collection's start or
  /// end (the §6 accounting, the auditor) sees the serial state.
  void onGcBegin() override { flush(); }
  void onGcEnd() override { flush(); }

  size_t size() const { return Caches.size(); }

  /// The cache at index \p I, after draining everything fed so far (a
  /// worker failure is rethrown as by flush()).
  Cache &cache(size_t I) {
    drain();
    return *Caches[I];
  }
  const Cache &cache(size_t I) const {
    drain();
    return *Caches[I];
  }

  /// Drains like cache(), then finds the cache with the given geometry;
  /// returns nullptr if absent.
  const Cache *find(uint32_t SizeBytes, uint32_t BlockBytes) const;

  /// Flushes, resets every cache and rebuilds the lanes (clearing failures).
  void resetAll();

  /// Flushes, then appends a "cache-bank" section holding every cache's
  /// full state in bank order.
  void saveTo(SnapshotWriter &W);
  /// Flushes, then restores every cache in place from the snapshot's
  /// "cache-bank" section and rebuilds the lanes. Geometry or count
  /// mismatches, and states that break a chain's inclusion law, return
  /// Corrupt and leave the bank's counters unspecified (callers discard
  /// the run).
  Status loadFrom(const SnapshotReader &R);

private:
  /// First chain whose links break the inclusion law, or Ok.
  Status auditChains() const;
  /// Simulates (inline) or queues (threaded) the buffered references.
  void publish() const;
  /// publish(), then waits for the workers and rethrows a failure.
  void drain() const;
  /// Drains, then regroups the caches into lanes for ThreadsWanted.
  void rebuild();

  std::vector<std::unique_ptr<Cache>> Caches;
  // Reading a cache simulates what was fed, so const readers publish too.
  mutable std::vector<Lane> Lanes;
  std::unique_ptr<ShardPool> Pool;
  mutable RefColumns Pending;
  size_t BatchRefs = DefaultBatchRefs;
  unsigned ThreadsWanted = 0;
  bool CrossCheck = false;
};

} // namespace gcache

#endif // GCACHE_MEMSYS_CACHEBANK_H
