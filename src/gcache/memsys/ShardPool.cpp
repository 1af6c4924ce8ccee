//===- ShardPool.cpp - Lanes and workers of the cache bank ----------------===//

#include "gcache/memsys/ShardPool.h"

#include "gcache/memsys/Cache.h"
#include "gcache/support/FaultInjector.h"

#include <algorithm>

using namespace gcache;

void Lane::run(const RefColumns &Batch) {
  Index.reset(&Batch);
  // Rechecked per batch: a cache may gain a shadow oracle after buildLanes.
  for (const Step &S : Steps)
    if (S.B && BatchKernel::pairable(*S.A) && BatchKernel::pairable(*S.B)) {
      BatchKernel::runPair(*S.A, *S.B, Batch, Index);
    } else {
      BatchKernel::run(*S.A, Batch, Index);
      if (S.B)
        BatchKernel::run(*S.B, Batch, Index);
    }
}

std::vector<Lane>
gcache::buildLanes(const std::vector<std::unique_ptr<Cache>> &Caches,
                   unsigned Threads) {
  auto BlockOf = [](const Cache *C) { return C->config().BlockBytes; };
  std::vector<Cache *> Order;
  for (const auto &C : Caches)
    Order.push_back(C.get());
  std::stable_sort(Order.begin(), Order.end(),
                   [&](const Cache *A, const Cache *B) {
                     return BlockOf(A) < BlockOf(B);
                   });
  std::vector<Lane> Lanes;
  for (size_t I = 0; I != Order.size();) {
    Cache *A = Order[I];
    if (Lanes.empty() || BlockOf(Lanes.back().Steps.front().A) != BlockOf(A))
      Lanes.emplace_back();
    Cache *B = nullptr;
    if (I + 1 != Order.size() && BlockOf(Order[I + 1]) == BlockOf(A) &&
        BatchKernel::pairable(*A) && BatchKernel::pairable(*Order[I + 1]))
      B = Order[I + 1];
    Lanes.back().Steps.push_back({A, B});
    I += B ? 2 : 1;
  }
  // Cutting between steps never separates a pair.
  while (!Lanes.empty() && Lanes.size() < Threads) {
    auto Big = std::max_element(Lanes.begin(), Lanes.end(),
                                [](const Lane &X, const Lane &Y) {
                                  return X.Steps.size() < Y.Steps.size();
                                });
    size_t Half = Big->Steps.size() / 2;
    if (Half == 0)
      break;
    Lane Tail;
    Tail.Steps.assign(Big->Steps.begin() + Half, Big->Steps.end());
    Big->Steps.resize(Half);
    Lanes.insert(Big + 1, std::move(Tail));
  }
  return Lanes;
}

ShardPool::ShardPool(std::vector<Lane> &Lanes, unsigned ThreadCount)
    : Lanes(Lanes) {
  size_t N = std::min<size_t>(std::max(ThreadCount, 1u), Lanes.size());
  for (size_t I = 0; I != N; ++I)
    Threads.emplace_back([this] { workerLoop(); });
}

ShardPool::~ShardPool() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Stopping = true;
  }
  WorkReady.notify_all();
  for (std::thread &T : Threads)
    T.join();
}

void ShardPool::submit(std::shared_ptr<const RefColumns> Batch) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    for (Lane &L : Lanes) {
      L.Queue.push_back(Batch);
      if (!L.Held && L.Queue.size() == 1)
        Ready.push_back(&L);
    }
    Outstanding += Lanes.size();
  }
  WorkReady.notify_all();
}

void ShardPool::drain() {
  std::exception_ptr Failure;
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    AllIdle.wait(Lock, [this] { return Outstanding == 0; });
    std::swap(Failure, FirstFailure);
  }
  if (Failure)
    std::rethrow_exception(Failure);
}

void ShardPool::workerLoop() {
  std::unique_lock<std::mutex> Lock(Mutex);
  for (;;) {
    WorkReady.wait(Lock, [this] { return Stopping || !Ready.empty(); });
    if (Ready.empty())
      return; // Stopping and fully drained.
    Lane &L = *Ready.front();
    Ready.pop_front();
    L.Held = true;
    std::shared_ptr<const RefColumns> Batch = std::move(L.Queue.front());
    L.Queue.pop_front();
    const bool Discard = L.Failed;
    Lock.unlock();

    // A failed lane keeps consuming batches, so drain() never wedges, but
    // discards them: its caches' counters are already invalid.
    std::exception_ptr Error;
    if (!Discard) {
      try {
        // shard-worker fault site: one hit per lane batch a worker runs.
        if (faultInjector().shouldFire(FaultSite::ShardWorker))
          throwStatus(StatusCode::WorkerFailure,
                      "injected shard-worker failure (site shard-worker)");
        L.run(*Batch);
      } catch (...) {
        Error = std::current_exception();
      }
    }
    Batch.reset();

    Lock.lock();
    if (Error) {
      L.Failed = true;
      if (!FirstFailure)
        FirstFailure = Error;
    }
    L.Held = false;
    if (!L.Queue.empty()) {
      Ready.push_back(&L);
      WorkReady.notify_one();
    }
    if (--Outstanding == 0)
      AllIdle.notify_all();
  }
}
