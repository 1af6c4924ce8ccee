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
/// fills. Every other cache of the lane (associative or cross-checked)
/// runs solo through BatchKernel::run on the lane's shared BatchIndex.
/// While a bank has more workers than lanes, a
/// chain is split at its midpoint, and each half is a chain of its own in
/// a lane of its own.
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
  /// Caches that run alone (BatchKernel::run), in bank order.
  std::vector<Cache *> Solos;
  BatchIndex Index; ///< The solo caches' decomposition of the batch.
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
/// Then, while there are fewer lanes than workers, the longest chain is
/// split at its midpoint into a lane of its own; once no chain has two
/// links, the lane with the most solo caches gives half of them to a new
/// lane.
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
