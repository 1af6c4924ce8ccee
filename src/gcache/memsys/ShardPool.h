//===- ShardPool.h - Lanes and workers of the cache bank --------*- C++ -*-===//
//
// Part of the gcache project (Reinhold, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution machinery behind CacheBank's single batched path. A
/// *lane* holds caches of one block size. Its direct-mapped caches form
/// inclusion *chains*, one per write-miss policy and per-block statistics
/// flag, smallest first (BatchKernel::runChain): a larger cache only
/// simulates the runs a smaller one cannot prove to be no-ops, and
/// per-block reference counts reach it through a histogram the first link
/// fills. Every associative cache of the lane runs solo: it takes the
/// whole batch through Cache::onRefs, as a cache outside the bank takes a
/// span. A chain's first link and a solo cache run the same walker
/// (BatchKernel.h). A cross-checked cache keeps its place; its shadow
/// oracle checks it where runChain or runSolo returns. While a bank has
/// more workers than lanes, buildLanes halves the longest chain or the
/// biggest group of solo caches, whichever holds more, into a lane of its
/// own.
///
/// A bank without threads runs its lanes inline. A ShardPool runs them on
/// N interchangeable workers: each batch is queued on every lane, and a
/// worker takes any lane with a queued batch and no other holder. A lane
/// thus consumes its batches one at a time, in publication order, so
/// every cache sees the exact serial stream and every counter is
/// bit-identical to inline execution. The submitter waits while
/// MaxBatchesInFlight batches are still unconsumed by some lane, which
/// bounds the memory a fast producer can pile up in the queues.
///
/// A worker failure (a throwing kernel, or the shard-worker fault, which
/// fires once per lane batch a worker runs) is captured and rethrown on
/// the submitting thread at the next drain(). The failed lane discards
/// its batches until the bank rebuilds its lanes.
///
//===----------------------------------------------------------------------===//

#ifndef GCACHE_MEMSYS_SHARDPOOL_H
#define GCACHE_MEMSYS_SHARDPOOL_H

#include "gcache/memsys/BatchKernel.h"

#include <condition_variable>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace gcache {

class Cache;

/// Caches of one block size that consume every batch together.
struct Lane {
  /// Inclusion chains, each in ascending size (BatchKernel::runChain).
  std::vector<std::vector<Cache *>> Chains;
  /// Caches that run alone (Cache::onRefs), in bank order.
  std::vector<Cache *> Solos;
  std::vector<ChainRun> Survivors; ///< The chains' run buffer.
  std::vector<uint64_t> SetRefs;   ///< The chains' per-set reference counts.

  // Scheduling state of a threaded bank, guarded by the ShardPool mutex.
  std::deque<std::shared_ptr<const RefColumns>> Queue;
  bool Held = false;   ///< A worker is running the lane.
  bool Failed = false; ///< The lane threw; it discards its batches.

  /// Simulates \p Batch against every cache of the lane.
  void run(const RefColumns &Batch);
};

/// Groups \p Caches into lanes for a bank with \p Threads workers: one lane
/// per block size, ascending, holding one chain per policy and per-block
/// statistics flag of its chainable caches and its other caches solo.
/// Then, while there are fewer lanes than workers, whichever holds more
/// caches, the longest chain or the biggest group of solo caches (the
/// solos on a tie), is halved, and its second half moves to a new lane
/// after it. abl2's 64 B lane, an 8-link chain beside 16 associative
/// caches, thus gives 2 workers the chain with 8 solos and the other 8
/// solos.
std::vector<Lane>
buildLanes(const std::vector<std::unique_ptr<Cache>> &Caches, unsigned Threads);

/// Fixed set of worker threads running the lanes of one bank.
class ShardPool {
public:
  /// Starts min(\p Threads, Lanes.size()) workers over \p Lanes, which must
  /// outlive the pool and stay where they are.
  ShardPool(std::vector<Lane> &Lanes, unsigned Threads);

  /// Runs every queued batch, then joins the workers.
  ~ShardPool();

  ShardPool(const ShardPool &) = delete;
  ShardPool &operator=(const ShardPool &) = delete;

  unsigned threads() const { return static_cast<unsigned>(Threads.size()); }

  /// Batches a producer may have published that some lane has not yet
  /// consumed; submit() waits while this many are outstanding.
  static constexpr size_t MaxBatchesInFlight = 4;

  /// Queues \p Batch on every lane, first waiting while
  /// MaxBatchesInFlight batches are still queued or running on a lane.
  void submit(std::shared_ptr<const RefColumns> Batch);

  /// Blocks until every queued lane batch has been run or discarded, then
  /// rethrows (and clears) the first captured worker exception, if any.
  void drain();

private:
  void workerLoop();

  std::vector<Lane> &Lanes;
  std::mutex Mutex;
  std::condition_variable WorkReady;
  std::condition_variable AllIdle;
  std::condition_variable SlotFree; ///< A lane finished a batch.
  std::deque<Lane *> Ready; ///< Lanes with a queued batch and no holder.
  /// (batch, lane) pairs submitted but not yet run or discarded.
  uint64_t Outstanding = 0;
  bool Stopping = false;
  std::exception_ptr FirstFailure;
  std::vector<std::thread> Threads;
};

} // namespace gcache

#endif // GCACHE_MEMSYS_SHARDPOOL_H
