//===- CacheBank.cpp - Simulate many cache configs in one pass ------------===//

#include "gcache/memsys/CacheBank.h"

#include "gcache/support/Snapshot.h"

#include <algorithm>

using namespace gcache;

CacheBank::~CacheBank() {
  // The pool's destructor runs every queued batch before joining. Failures
  // are swallowed (destructors must not throw); callers who care flush().
  try {
    publish();
  } catch (...) {
  }
}

size_t CacheBank::addConfig(const CacheConfig &Config) {
  Caches.push_back(std::make_unique<Cache>(Config));
  if (CrossCheck)
    Caches.back()->enableCrossCheck();
  rebuild(); // Drains what was fed before through the old lanes.
  return Caches.size() - 1;
}

void CacheBank::enableCrossCheck() {
  drain();
  CrossCheck = true;
  for (auto &C : Caches)
    C->enableCrossCheck();
}

Status CacheBank::crossCheckNow() const {
  for (const auto &C : Caches)
    if (Status S = C->crossCheckNow(); !S.ok())
      return S;
  return Status();
}

Status CacheBank::auditAll() {
  flush();
  for (const auto &C : Caches)
    if (Status S = C->auditState(); !S.ok())
      return S;
  return auditChains();
}

Status CacheBank::auditChains() const {
  for (const Lane &L : Lanes)
    for (const std::vector<Cache *> &Chain : L.Chains)
      for (size_t K = 1; K < Chain.size(); ++K)
        if (Status S = Chain[K - 1]->auditInclusionIn(*Chain[K]); !S.ok())
          return S;
  return Status();
}

void CacheBank::addPaperGrid(const CacheConfig &Prototype) {
  for (uint32_t Size : paperCacheSizes())
    for (uint32_t Block : paperBlockSizes()) {
      CacheConfig C = Prototype;
      C.SizeBytes = Size;
      C.BlockBytes = Block;
      addConfig(C);
    }
}

void CacheBank::addSizeSweep(const CacheConfig &Prototype,
                             uint32_t BlockBytes) {
  for (uint32_t Size : paperCacheSizes()) {
    CacheConfig C = Prototype;
    C.SizeBytes = Size;
    C.BlockBytes = BlockBytes;
    addConfig(C);
  }
}

void CacheBank::setThreads(unsigned Threads, size_t BatchRefsWanted) {
  flush();
  ThreadsWanted = Threads;
  BatchRefs = BatchRefsWanted ? BatchRefsWanted : DefaultBatchRefs;
  rebuild();
}

void CacheBank::rebuild() {
  drain();
  Pool.reset();
  Lanes = buildLanes(Caches, ThreadsWanted);
  if (ThreadsWanted && !Lanes.empty())
    Pool = std::make_unique<ShardPool>(Lanes, ThreadsWanted);
}

void CacheBank::onRefs(const RefSpan &S) {
  for (size_t Done = 0; Done != S.size();) {
    size_t Take = std::min(S.size() - Done, BatchRefs - Pending.size());
    Pending.append(S.subspan(Done, Take));
    Done += Take;
    if (Pending.size() >= BatchRefs)
      publish();
  }
}

void CacheBank::publish() const {
  if (Pending.empty())
    return;
  if (Pool) {
    auto Batch = std::make_shared<RefColumns>(std::move(Pending));
    Pending = RefColumns();
    Pending.reserve(BatchRefs);
    Pool->submit(std::move(Batch));
    return;
  }
  // Cleared even if a lane throws (cross-check divergence): a later flush
  // must not replay it into the lanes that already simulated it.
  struct Clearer {
    RefColumns &B;
    ~Clearer() { B.clear(); }
  } Clear{Pending};
  for (Lane &L : Lanes)
    L.run(Pending);
}

void CacheBank::drain() const {
  publish();
  if (Pool)
    Pool->drain();
}

void CacheBank::flush() {
  drain();
  // Each batch checks the counters; this deep comparison at flush points
  // also catches state drift that no counter shows yet.
  if (CrossCheck)
    if (Status S = crossCheckNow(); !S.ok())
      throw StatusError(std::move(S));
}

const Cache *CacheBank::find(uint32_t SizeBytes, uint32_t BlockBytes) const {
  drain();
  for (const auto &C : Caches)
    if (C->config().SizeBytes == SizeBytes &&
        C->config().BlockBytes == BlockBytes)
      return C.get();
  return nullptr;
}

void CacheBank::resetAll() {
  flush();
  for (auto &C : Caches)
    C->reset();
  rebuild();
}

void CacheBank::saveTo(SnapshotWriter &W) {
  flush();
  W.beginSection("cache-bank");
  W.putU64(Caches.size());
  for (auto &C : Caches)
    C->saveState(W);
}

Status CacheBank::loadFrom(const SnapshotReader &R) {
  flush();
  rebuild();
  SnapshotCursor C = R.section("cache-bank");
  uint64_t Count = C.getU64();
  if (C.ok() && Count != Caches.size())
    C.fail(Status::failf(StatusCode::Corrupt,
                         "cache-bank snapshot has %llu caches, this bank "
                         "has %zu",
                         static_cast<unsigned long long>(Count),
                         Caches.size()));
  for (auto &Cache : Caches) {
    if (!C.ok())
      break;
    Cache->loadState(C);
  }
  if (Status S = C.finish(); !S.ok())
    return S;
  // Each cache passed its own audit, but CRC-valid bytes can still pair
  // states no stream leaves in two links of a chain, and the chain would
  // then skip references a larger link must simulate.
  if (Status S = auditChains(); !S.ok())
    return Status::failf(StatusCode::Corrupt,
                         "cache-bank snapshot breaks chain inclusion: %s",
                         S.message().c_str());
  return Status();
}
