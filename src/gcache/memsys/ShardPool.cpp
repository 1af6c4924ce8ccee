//===- ShardPool.cpp - Lanes and workers of the cache bank ----------------===//

#include "gcache/memsys/ShardPool.h"

#include "gcache/memsys/Cache.h"
#include "gcache/support/FaultInjector.h"

#include <algorithm>

using namespace gcache;

void Lane::run(const RefColumns &Batch) {
  Index.reset(&Batch);
  for (const std::vector<Cache *> &Chain : Chains) {
    // Rechecked per batch: a link may gain a shadow oracle after
    // buildLanes (through CacheBank::cache). Every link then takes the
    // scalar path for the batch; it keeps the store masks, so the
    // inclusion the chain relies on still holds when it rejoins.
    if (std::all_of(Chain.begin(), Chain.end(), [](const Cache *C) {
          return BatchKernel::chainable(*C);
        })) {
      BatchKernel::runChain(Chain, Batch, Survivors, SetRefs);
    } else {
      const RefSpan All{Batch.Addr.data(), Batch.Kind.data(),
                        Batch.PhaseTag.data(), Batch.size()};
      for (Cache *C : Chain)
        C->onRefs(All);
    }
  }
  for (Cache *C : Solos)
    BatchKernel::run(*C, Batch, Index);
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
  for (size_t I = 0; I != Order.size(); ++I) {
    Cache *C = Order[I];
    if (I == 0 || BlockOf(Order[I - 1]) != BlockOf(C))
      Lanes.emplace_back();
    Lane &L = Lanes.back();
    if (!BatchKernel::chainable(*C)) {
      L.Solos.push_back(C);
      continue;
    }
    // Chains group by policy, not by position in the bank.
    auto Chain = std::find_if(L.Chains.begin(), L.Chains.end(),
                              [&](const std::vector<Cache *> &Links) {
                                return BatchKernel::sameChain(*Links[0], *C);
                              });
    if (Chain == L.Chains.end())
      L.Chains.push_back({C});
    else
      Chain->push_back(C);
  }
  for (Lane &L : Lanes)
    for (std::vector<Cache *> &Chain : L.Chains)
      std::stable_sort(Chain.begin(), Chain.end(),
                       [](const Cache *A, const Cache *B) {
                         return A->config().SizeBytes < B->config().SizeBytes;
                       });

  while (Lanes.size() < Threads) {
    // The longest chain of two links or more, if any.
    size_t At = Lanes.size(), Chain = 0, Longest = 1;
    for (size_t I = 0; I != Lanes.size(); ++I)
      for (size_t K = 0; K != Lanes[I].Chains.size(); ++K)
        if (Lanes[I].Chains[K].size() > Longest) {
          At = I;
          Chain = K;
          Longest = Lanes[I].Chains[K].size();
        }
    Lane Tail;
    if (At != Lanes.size()) {
      // Each half of a chain is a chain: inclusion holds between any two
      // of its links.
      std::vector<Cache *> &Links = Lanes[At].Chains[Chain];
      const size_t Half = Links.size() / 2;
      Tail.Chains.emplace_back(Links.begin() + Half, Links.end());
      Links.resize(Half);
    } else {
      auto Big = std::max_element(Lanes.begin(), Lanes.end(),
                                  [](const Lane &X, const Lane &Y) {
                                    return X.Solos.size() < Y.Solos.size();
                                  });
      if (Big == Lanes.end() || Big->Solos.size() < 2)
        break;
      At = Big - Lanes.begin();
      const size_t Half = Big->Solos.size() / 2;
      Tail.Solos.assign(Big->Solos.begin() + Half, Big->Solos.end());
      Big->Solos.resize(Half);
    }
    Lanes.insert(Lanes.begin() + At + 1, std::move(Tail));
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
    std::unique_lock<std::mutex> Lock(Mutex);
    // Lanes consume batches in order, so the slowest lane's backlog is
    // the number of batches some lane has not consumed yet.
    SlotFree.wait(Lock, [this] {
      for (const Lane &L : Lanes)
        if (L.Queue.size() + (L.Held ? 1 : 0) >= MaxBatchesInFlight)
          return false;
      return true;
    });
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
    SlotFree.notify_one();
    if (--Outstanding == 0)
      AllIdle.notify_all();
  }
}
