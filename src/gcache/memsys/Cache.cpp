//===- Cache.cpp - Trace-driven data-cache simulator ----------------------===//

#include "gcache/memsys/Cache.h"

#include "gcache/memsys/BatchKernel.h"
#include "gcache/memsys/OracleCache.h"
#include "gcache/support/Snapshot.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdio>

using namespace gcache;

Cache::Cache(Cache &&) noexcept = default;
Cache &Cache::operator=(Cache &&) noexcept = default;
Cache::~Cache() = default;

Cache::Cache(const CacheConfig &Config) : Config(Config) {
  assert(Config.isValid() && "invalid cache geometry");
  Shape = (Config.Ways == 1 ? ShapeDirect : 0) |
          (Config.TrackPerBlockStats ? ShapePerBlock : 0);
  SetMask = Config.numSets() - 1;
  SetShift = std::bit_width(SetMask);
  BlockShift = std::bit_width(Config.BlockBytes) - 1;
  uint32_t Words = Config.wordsPerBlock();
  FullMask = Words == 64 ? ~0ull : ((1ull << Words) - 1);
  Lines.assign(static_cast<size_t>(Config.numSets()) * Config.Ways, Line());
  if (Config.TrackPerBlockStats) {
    BlockRefs.assign(Config.numSets(), 0);
    BlockMisses.assign(Config.numSets(), 0);
    BlockFetchMisses.assign(Config.numSets(), 0);
  }
}

void Cache::reset() {
  for (Line &L : Lines)
    L = Line();
  Counts[0] = CacheCounters();
  Counts[1] = CacheCounters();
  LruClock = 0;
  if (Config.TrackPerBlockStats) {
    BlockRefs.assign(Config.numSets(), 0);
    BlockMisses.assign(Config.numSets(), 0);
    BlockFetchMisses.assign(Config.numSets(), 0);
  }
  if (Shadow)
    Shadow->reset();
  ShadowRefs = 0;
}

template <bool DirectMapped, bool PerBlock>
[[gnu::always_inline]] inline AccessResult Cache::simulate(const Ref &R) {
  CacheCounters &C = Counts[static_cast<unsigned>(R.ExecPhase)];
  const bool IsStore = R.Kind == AccessKind::Store;
  C.Loads += !IsStore;
  C.Stores += IsStore;

  const uint32_t BlockIdx = R.Addr >> BlockShift;
  const uint32_t SetIdx = BlockIdx & SetMask;
  const uint32_t Tag = BlockIdx >> SetShift;
  const uint64_t WordBit = 1ull << ((R.Addr & (Config.BlockBytes - 1)) >> 2);
  // The word a store writes (none for a load).
  const uint64_t StoreBit = IsStore ? WordBit : 0;
  if constexpr (PerBlock)
    ++BlockRefs[SetIdx];
  auto NoteMiss = [&](bool FetchMiss) {
    if constexpr (PerBlock) {
      ++BlockMisses[SetIdx];
      BlockFetchMisses[SetIdx] += FetchMiss;
    }
  };

  Line *Found = nullptr;
  Line *Victim = nullptr;
  // Only an associative set has a victim to choose; direct-mapped caches
  // leave the clock and their stamps at 0.
  uint64_t Stamp = 0;
  if constexpr (DirectMapped) {
    Victim = &Lines[SetIdx];
    if (Victim->ValidMask != 0 && Victim->Tag == Tag)
      Found = Victim;
  } else {
    Stamp = ++LruClock;
    Found = findWay(SetIdx, Tag, Victim);
  }

  if (Found) {
    Found->LruStamp = Stamp;
    // Stores always complete in one cycle: under write-validate they
    // validate the word; under fetch-on-write, a hit already has the
    // block resident.
    Found->ValidMask |= StoreBit;
    Found->StoreMask |= StoreBit;
    if (Found->ValidMask & WordBit)
      return AccessResult::Hit;
    // Sub-block read miss: the block is resident but this word was never
    // fetched (write-validate left it invalid). Fetch the whole block.
    Found->ValidMask = FullMask;
    ++C.FetchMisses;
    NoteMiss(/*FetchMiss=*/true);
    return AccessResult::FetchMiss;
  }

  // Block miss: evict the victim (writing it back if dirty) and install
  // the new block.
  if (Victim->dirty())
    ++C.Writebacks;
  Victim->Tag = Tag;
  Victim->LruStamp = Stamp;
  Victim->StoreMask = StoreBit;

  // A collector write miss always fetches (memsys/CacheConfig.h).
  bool FetchOnWrite = Config.WriteMiss == WriteMissPolicy::FetchOnWrite ||
                      R.ExecPhase == Phase::Collector;
  if (IsStore && !FetchOnWrite) {
    Victim->ValidMask = WordBit;
    ++C.NoFetchMisses;
    NoteMiss(/*FetchMiss=*/false);
    return AccessResult::NoFetchWriteMiss;
  }

  Victim->ValidMask = FullMask;
  ++C.FetchMisses;
  NoteMiss(/*FetchMiss=*/true);
  return AccessResult::FetchMiss;
}

void Cache::onRefs(const RefSpan &S) { BatchKernel::runSolo(*this, S); }

AccessResult Cache::access(const Ref &R) {
  AccessResult Got;
  switch (Shape) {
  case 0:
    Got = simulate<false, false>(R);
    break;
  case ShapePerBlock:
    Got = simulate<false, true>(R);
    break;
  case ShapeDirect:
    Got = simulate<true, false>(R);
    break;
  default:
    Got = simulate<true, true>(R);
  }
  if (Shadow) {
    // Counters that agree after every reference agree on its outcome.
    (void)Shadow->access(R);
    ++ShadowRefs;
    if (Status S = compareWithShadow(/*Contents=*/false); !S.ok())
      throw StatusError(std::move(S));
  }
  return Got;
}

CacheCounters Cache::totalCounters() const {
  CacheCounters T = Counts[0];
  T += Counts[1];
  return T;
}

static void saveCounters(SnapshotWriter &W, const CacheCounters &C) {
  W.putU64(C.Loads);
  W.putU64(C.Stores);
  W.putU64(C.FetchMisses);
  W.putU64(C.NoFetchMisses);
  W.putU64(C.Writebacks);
  W.putU64(C.WriteThroughs);
}

static void loadCounters(SnapshotCursor &C, CacheCounters &Out) {
  Out.Loads = C.getU64();
  Out.Stores = C.getU64();
  Out.FetchMisses = C.getU64();
  Out.NoFetchMisses = C.getU64();
  Out.Writebacks = C.getU64();
  Out.WriteThroughs = C.getU64();
}

/// Version sentinel leading every cache-state image. Version 1 (no
/// sentinel; the stream began directly with SizeBytes, always a power of
/// two, so the sentinel can never be mistaken for old data) stored the LRU
/// clock and stamps as u32; version 2 widened them to u64; version 3
/// replaced the u8 dirty flag with the u64 store mask and writes stamps
/// only for associative caches.
static constexpr uint32_t CacheStateVersion3 = 0x65766133; // "3av e"
/// The image's write-hit and collector-policy bytes. Both policies are
/// fixed (write-back; a collector write miss fetches), so an image holding
/// any other value is refused.
static constexpr uint8_t WriteBackByte = 0, CollectorFetchesByte = 1;

void Cache::saveState(SnapshotWriter &W) const {
  W.putU32(CacheStateVersion3);
  // Geometry next, so a resumed run can prove the snapshot belongs to the
  // same simulated cache before interpreting a single line.
  W.putU32(Config.SizeBytes);
  W.putU32(Config.BlockBytes);
  W.putU32(Config.Ways);
  W.putU8(static_cast<uint8_t>(Config.WriteMiss));
  W.putU8(WriteBackByte);
  W.putU8(CollectorFetchesByte);
  W.putU8(Config.TrackPerBlockStats ? 1 : 0);

  W.putU64(LruClock);
  W.putU64(Lines.size());
  const bool Stamps = Config.Ways > 1;
  // Tag, valid mask, store mask and, for associative caches, the stamp.
  const size_t LineBytes = 4 + 8 + 8 + (Stamps ? 8 : 0);
  uint8_t *P = W.extend(Lines.size() * LineBytes);
  for (const Line &L : Lines) {
    P = SnapshotWriter::storeU32(P, L.Tag);
    P = SnapshotWriter::storeU64(P, L.ValidMask);
    P = SnapshotWriter::storeU64(P, L.StoreMask);
    if (Stamps)
      P = SnapshotWriter::storeU64(P, L.LruStamp);
  }
  saveCounters(W, Counts[0]);
  saveCounters(W, Counts[1]);
  W.putVecU64(BlockRefs);
  W.putVecU64(BlockMisses);
  W.putVecU64(BlockFetchMisses);
}

void Cache::loadState(SnapshotCursor &C) {
  uint32_t StateVersion = C.getU32();
  if (C.ok() && StateVersion != CacheStateVersion3) {
    // A version-1 image starts with SizeBytes, a power of two; either way
    // the stream is not something this reader can interpret. Migrating a
    // 32-bit LRU history would fabricate recency the run never had, and a
    // v2 dirty flag does not say which words were stored.
    C.fail(Status::failf(StatusCode::Corrupt,
                         "cache snapshot has unsupported state version "
                         "0x%08x (expected 0x%08x; pre-v3 checkpoints must "
                         "be recomputed)",
                         StateVersion, CacheStateVersion3));
    return;
  }
  uint32_t SizeBytes = C.getU32();
  uint32_t BlockBytes = C.getU32();
  uint32_t Ways = C.getU32();
  uint8_t WriteMiss = C.getU8();
  uint8_t WriteHit = C.getU8();
  uint8_t Collector = C.getU8();
  uint8_t PerBlock = C.getU8();
  if (!C.ok())
    return;
  if (WriteHit != WriteBackByte || Collector != CollectorFetchesByte) {
    C.fail(Status::failf(StatusCode::Corrupt,
                         "cache snapshot has write-hit policy byte %u and "
                         "collector policy byte %u (expected %u and %u)",
                         WriteHit, Collector, WriteBackByte,
                         CollectorFetchesByte));
    return;
  }
  if (SizeBytes != Config.SizeBytes || BlockBytes != Config.BlockBytes ||
      Ways != Config.Ways ||
      WriteMiss != static_cast<uint8_t>(Config.WriteMiss) ||
      (PerBlock != 0) != Config.TrackPerBlockStats) {
    C.fail(Status::failf(StatusCode::Corrupt,
                         "cache snapshot geometry (%u B, %u B blocks, "
                         "%u ways) does not match this cache (%u B, %u B "
                         "blocks, %u ways)",
                         SizeBytes, BlockBytes, Ways, Config.SizeBytes,
                         Config.BlockBytes, Config.Ways));
    return;
  }

  uint64_t Clock = C.getU64();
  uint64_t NumLines = C.getU64();
  if (C.ok() && NumLines != Lines.size()) {
    C.fail(Status::failf(StatusCode::Corrupt,
                         "cache snapshot has %llu lines, this cache has %zu",
                         static_cast<unsigned long long>(NumLines),
                         Lines.size()));
    return;
  }
  std::vector<Line> NewLines(Lines.size());
  const bool Stamps = Config.Ways > 1;
  for (Line &L : NewLines) {
    L.Tag = C.getU32();
    L.ValidMask = C.getU64();
    L.StoreMask = C.getU64();
    if (Stamps)
      L.LruStamp = C.getU64();
  }
  CacheCounters NewCounts[2];
  loadCounters(C, NewCounts[0]);
  loadCounters(C, NewCounts[1]);
  std::vector<uint64_t> Refs = C.getVecU64();
  std::vector<uint64_t> Misses = C.getVecU64();
  std::vector<uint64_t> FetchMisses = C.getVecU64();
  if (!C.ok())
    return;
  size_t WantBlocks = Config.TrackPerBlockStats ? Config.numSets() : 0;
  if (Refs.size() != WantBlocks || Misses.size() != WantBlocks ||
      FetchMisses.size() != WantBlocks) {
    C.fail(Status::failf(StatusCode::Corrupt,
                         "cache snapshot per-block arrays sized %zu/%zu/%zu, "
                         "expected %zu",
                         Refs.size(), Misses.size(), FetchMisses.size(),
                         WantBlocks));
    return;
  }

  LruClock = Clock;
  Lines = std::move(NewLines);
  Counts[0] = NewCounts[0];
  Counts[1] = NewCounts[1];
  BlockRefs = std::move(Refs);
  BlockMisses = std::move(Misses);
  BlockFetchMisses = std::move(FetchMisses);

  // Well-framed bytes are not necessarily a state this cache could ever
  // have been in (duplicate tags, stamps ahead of the clock, valid bits
  // outside the block). Audit before trusting it; per the restore
  // contract, a failed load leaves the state unspecified and the caller
  // discards the cache.
  if (Status A = auditState(); !A.ok()) {
    C.fail(std::move(A));
    return;
  }
  if (Shadow)
    resyncShadow();
}

//===----------------------------------------------------------------------===//
// Self-validation: shadow oracle and state audit
//===----------------------------------------------------------------------===//

void Cache::enableCrossCheck() {
  Shadow = std::make_unique<OracleCache>(Config);
  ShadowRefs = 0;
  resyncShadow();
}

void Cache::resyncShadow() {
  for (uint32_t SetIdx = 0; SetIdx != Config.numSets(); ++SetIdx) {
    const Line *Set = setBase(SetIdx);
    std::vector<const Line *> Resident;
    for (uint32_t W = 0; W != Config.Ways; ++W)
      if (Set[W].ValidMask != 0)
        Resident.push_back(&Set[W]);
    std::sort(Resident.begin(), Resident.end(),
              [](const Line *A, const Line *B) {
                return A->LruStamp < B->LruStamp;
              });
    std::vector<OracleCache::LineState> States;
    States.reserve(Resident.size());
    for (const Line *L : Resident)
      States.push_back({L->Tag, L->ValidMask, L->dirty()});
    Shadow->restoreSet(SetIdx, std::move(States));
  }
  Shadow->setCounters(Phase::Mutator, Counts[0]);
  Shadow->setCounters(Phase::Collector, Counts[1]);
}

std::string Cache::dumpSet(uint32_t SetIdx) const {
  std::string Out;
  char Buf[112];
  std::snprintf(Buf, sizeof(Buf), "set %u (%u ways):", SetIdx, Config.Ways);
  Out += Buf;
  const Line *Set = setBase(SetIdx);
  for (uint32_t W = 0; W != Config.Ways; ++W) {
    const Line &L = Set[W];
    if (L.ValidMask == 0) {
      std::snprintf(Buf, sizeof(Buf), " [way%u empty]", W);
    } else {
      std::snprintf(Buf, sizeof(Buf),
                    " [way%u tag 0x%x valid 0x%llx stored 0x%llx stamp %llu]",
                    W, L.Tag, static_cast<unsigned long long>(L.ValidMask),
                    static_cast<unsigned long long>(L.StoreMask),
                    static_cast<unsigned long long>(L.LruStamp));
    }
    Out += Buf;
  }
  return Out;
}

void Cache::checkShadow(const RefSpan &S) {
  for (size_t I = 0; I != S.size(); ++I)
    (void)Shadow->access(S[I]);
  ShadowRefs += S.size();
  if (Status St = compareWithShadow(/*Contents=*/false); !St.ok())
    throw StatusError(std::move(St));
}

uint32_t Cache::firstDivergentSet() const {
  // Each set must hold the same lines in the same recency order (which
  // physical way a line occupies is unobservable).
  for (uint32_t SetIdx = 0; SetIdx != Config.numSets(); ++SetIdx) {
    const Line *Set = setBase(SetIdx);
    std::vector<const Line *> Resident;
    for (uint32_t W = 0; W != Config.Ways; ++W)
      if (Set[W].ValidMask != 0)
        Resident.push_back(&Set[W]);
    std::sort(Resident.begin(), Resident.end(),
              [](const Line *A, const Line *B) {
                return A->LruStamp < B->LruStamp;
              });
    const std::vector<OracleCache::LineState> &Want = Shadow->set(SetIdx);
    bool Match = Resident.size() == Want.size();
    for (size_t I = 0; Match && I != Want.size(); ++I)
      Match = Want[I] == OracleCache::LineState{Resident[I]->Tag,
                                                Resident[I]->ValidMask,
                                                Resident[I]->dirty()};
    if (!Match)
      return SetIdx;
  }
  return Config.numSets();
}

Status Cache::compareWithShadow(bool Contents) const {
  const unsigned long long Refs = ShadowRefs;
  // Both models' dumps of the first set that differs, if one does.
  auto Dumps = [&] {
    const uint32_t SetIdx = firstDivergentSet();
    if (SetIdx == Config.numSets())
      return std::string();
    return "\n  cache:  " + dumpSet(SetIdx) +
           "\n  oracle: " + Shadow->dumpSet(SetIdx);
  };
  // Counters first: a divergence in the totals is the report the paper's
  // figures would have inherited.
  for (unsigned P = 0; P != 2; ++P) {
    const CacheCounters &A = Counts[P];
    const CacheCounters &B = Shadow->counters(static_cast<Phase>(P));
    const char *Name = P ? "collector" : "mutator";
    struct {
      const char *Field;
      uint64_t Got, Want;
    } Fields[] = {
        {"loads", A.Loads, B.Loads},
        {"stores", A.Stores, B.Stores},
        {"fetch-misses", A.FetchMisses, B.FetchMisses},
        {"no-fetch-misses", A.NoFetchMisses, B.NoFetchMisses},
        {"writebacks", A.Writebacks, B.Writebacks},
    };
    for (const auto &F : Fields)
      if (F.Got != F.Want)
        return Status::failf(
            StatusCode::Divergence,
            "%s: %s %s: cache %llu, oracle %llu (after %llu refs)%s",
            Config.label().c_str(), Name, F.Field,
            static_cast<unsigned long long>(F.Got),
            static_cast<unsigned long long>(F.Want), Refs, Dumps().c_str());
  }
  if (!Contents)
    return Status();
  const std::string Sets = Dumps();
  if (Sets.empty())
    return Status();
  return Status::failf(StatusCode::Divergence,
                       "%s: set contents diverge after %llu refs%s",
                       Config.label().c_str(), Refs, Sets.c_str());
}

Status Cache::crossCheckNow() const {
  return Shadow ? compareWithShadow(/*Contents=*/true) : Status();
}

Status Cache::auditState() const {
  const std::string Label = Config.label();
  // Line-level invariants.
  for (uint32_t SetIdx = 0; SetIdx != Config.numSets(); ++SetIdx) {
    const Line *Set = setBase(SetIdx);
    for (uint32_t W = 0; W != Config.Ways; ++W) {
      const Line &L = Set[W];
      // The chain filter's premise: every stored word is valid.
      if (L.StoreMask & ~L.ValidMask)
        return Status::failf(StatusCode::AuditFailure,
                            "%s: set %u way %u store mask 0x%llx is not "
                            "within valid mask 0x%llx",
                            Label.c_str(), SetIdx, W,
                            static_cast<unsigned long long>(L.StoreMask),
                            static_cast<unsigned long long>(L.ValidMask));
      if (L.ValidMask == 0)
        continue;
      if (L.ValidMask & ~FullMask)
        return Status::failf(StatusCode::AuditFailure,
                            "%s: set %u way %u valid mask 0x%llx exceeds the "
                            "block's %u words",
                            Label.c_str(), SetIdx, W,
                            static_cast<unsigned long long>(L.ValidMask),
                            Config.wordsPerBlock());
      if (L.LruStamp > LruClock)
        return Status::failf(StatusCode::AuditFailure,
                            "%s: set %u way %u LRU stamp %llu exceeds the "
                            "clock %llu",
                            Label.c_str(), SetIdx, W,
                            static_cast<unsigned long long>(L.LruStamp),
                            static_cast<unsigned long long>(LruClock));
      for (uint32_t V = W + 1; V != Config.Ways; ++V) {
        const Line &M = Set[V];
        if (M.ValidMask == 0)
          continue;
        if (M.Tag == L.Tag)
          return Status::failf(StatusCode::AuditFailure,
                              "%s: set %u holds tag 0x%x twice (ways %u, %u)",
                              Label.c_str(), SetIdx, L.Tag, W, V);
        if (M.LruStamp == L.LruStamp)
          return Status::failf(
              StatusCode::AuditFailure,
              "%s: set %u ways %u and %u share LRU stamp %llu",
              Label.c_str(), SetIdx, W, V,
              static_cast<unsigned long long>(L.LruStamp));
      }
    }
  }
  // Counter conservation laws, per phase and in total.
  for (unsigned P = 0; P != 2; ++P) {
    const CacheCounters &C = Counts[P];
    const char *Name = P ? "collector" : "mutator";
    if (C.allMisses() > C.refs())
      return Status::failf(StatusCode::AuditFailure,
                          "%s: %s misses (%llu) exceed refs (%llu)",
                          Label.c_str(), Name,
                          static_cast<unsigned long long>(C.allMisses()),
                          static_cast<unsigned long long>(C.refs()));
    if (C.WriteThroughs != 0)
      return Status::failf(StatusCode::AuditFailure,
                          "%s: write-back cache recorded %llu %s "
                          "write-throughs",
                          Label.c_str(),
                          static_cast<unsigned long long>(C.WriteThroughs),
                          Name);
  }
  if (Config.WriteMiss == WriteMissPolicy::FetchOnWrite &&
      totalCounters().NoFetchMisses != 0)
    return Status::failf(StatusCode::AuditFailure,
                        "%s: fetch-on-write cache recorded %llu no-fetch "
                        "misses",
                        Label.c_str(),
                        static_cast<unsigned long long>(
                            totalCounters().NoFetchMisses));
  if (Counts[static_cast<unsigned>(Phase::Collector)].NoFetchMisses != 0)
    return Status::failf(StatusCode::AuditFailure,
                        "%s: collector writes fetch-on-write, yet %llu "
                        "collector no-fetch misses were recorded",
                        Label.c_str(),
                        static_cast<unsigned long long>(
                            Counts[1].NoFetchMisses));
  // Per-block statistics are a second, independently-maintained witness of
  // the same events; their sums must reproduce the global counters.
  if (Config.TrackPerBlockStats) {
    uint64_t SumRefs = 0, SumMisses = 0, SumFetch = 0;
    for (uint64_t V : BlockRefs)
      SumRefs += V;
    for (uint64_t V : BlockMisses)
      SumMisses += V;
    for (uint64_t V : BlockFetchMisses)
      SumFetch += V;
    CacheCounters T = totalCounters();
    if (SumRefs != T.refs())
      return Status::failf(StatusCode::AuditFailure,
                          "%s: per-block refs sum to %llu, counters say %llu",
                          Label.c_str(),
                          static_cast<unsigned long long>(SumRefs),
                          static_cast<unsigned long long>(T.refs()));
    if (SumMisses != T.allMisses())
      return Status::failf(
          StatusCode::AuditFailure,
          "%s: per-block misses sum to %llu, counters say %llu",
          Label.c_str(), static_cast<unsigned long long>(SumMisses),
          static_cast<unsigned long long>(T.allMisses()));
    if (SumFetch != T.FetchMisses)
      return Status::failf(
          StatusCode::AuditFailure,
          "%s: per-block fetch misses sum to %llu, counters say %llu",
          Label.c_str(), static_cast<unsigned long long>(SumFetch),
          static_cast<unsigned long long>(T.FetchMisses));
  }
  return Status();
}

Status Cache::auditInclusionIn(const Cache &Larger) const {
  assert(Config.Ways == 1 && Larger.Config.Ways == 1 &&
         Config.BlockBytes == Larger.Config.BlockBytes &&
         "inclusion is a law of direct-mapped caches of one block size");
  const uint32_t SetShift = std::bit_width(SetMask);
  const uint32_t LargerShift = std::bit_width(Larger.SetMask);
  for (uint32_t SetIdx = 0; SetIdx != Lines.size(); ++SetIdx) {
    const Line &L = Lines[SetIdx];
    if (L.ValidMask == 0)
      continue;
    // 64-bit, so a corrupt tag cannot wrap onto some other block.
    const uint64_t Block = (uint64_t(L.Tag) << SetShift) | SetIdx;
    const Line &M = Larger.Lines[Block & Larger.SetMask];
    if (M.ValidMask == 0 || M.Tag != Block >> LargerShift)
      return Status::failf(StatusCode::AuditFailure,
                           "%s holds block 0x%llx, but %s does not",
                           Config.label().c_str(),
                           static_cast<unsigned long long>(Block),
                           Larger.Config.label().c_str());
    if (L.StoreMask & ~M.StoreMask)
      return Status::failf(
          StatusCode::AuditFailure,
          "%s holds block 0x%llx with store mask 0x%llx, but %s with 0x%llx",
          Config.label().c_str(), static_cast<unsigned long long>(Block),
          static_cast<unsigned long long>(L.StoreMask),
          Larger.Config.label().c_str(),
          static_cast<unsigned long long>(M.StoreMask));
  }
  return Status();
}
