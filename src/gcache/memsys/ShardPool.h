//===- ShardPool.h - Lanes and workers of the cache bank --------*- C++ -*-===//
//
// Part of the gcache project (Reinhold, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution machinery behind CacheBank's single batched path. A
/// *lane* holds every cache of one block size, in bank order, and owns
/// the BatchIndex that decomposes each batch for that block size once;
/// its walk folds adjacent direct-mapped caches into one runPair pass.
/// Lanes are split further, at pair boundaries, only when a bank has more
/// workers than block sizes.
///
/// A bank without threads runs its lanes inline. A ShardPool runs them on
/// N interchangeable workers: each batch is queued on every lane, and a
/// worker takes any lane with a queued batch and no other holder. A lane
/// thus consumes its batches one at a time, in publication order, so
/// every cache sees the exact serial stream and every counter is
/// bit-identical to inline execution.
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
  /// One kernel pass: a pair of caches (runPair) or, with B null, one.
  struct Step {
    Cache *A;
    Cache *B;
  };
  std::vector<Step> Steps;
  BatchIndex Index; ///< This lane's decomposition of the current batch.

  // Scheduling state of a threaded bank, guarded by the ShardPool mutex.
  std::deque<std::shared_ptr<const RefColumns>> Queue;
  bool Held = false;   ///< A worker is running the lane.
  bool Failed = false; ///< The lane threw; it discards its batches.

  /// Simulates \p Batch against every cache of the lane, in order.
  void run(const RefColumns &Batch);
};

/// Groups \p Caches into lanes for a bank with \p Threads workers: one lane
/// per block size, ascending; then, while there are fewer lanes than
/// workers, the lane with the most steps is halved.
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

  /// Queues \p Batch on every lane.
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
  std::deque<Lane *> Ready; ///< Lanes with a queued batch and no holder.
  /// (batch, lane) pairs submitted but not yet run or discarded.
  uint64_t Outstanding = 0;
  bool Stopping = false;
  std::exception_ptr FirstFailure;
  std::vector<std::thread> Threads;
};

} // namespace gcache

#endif // GCACHE_MEMSYS_SHARDPOOL_H
