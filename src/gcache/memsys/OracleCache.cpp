//===- OracleCache.cpp - Obviously-correct reference cache model ----------===//

#include "gcache/memsys/OracleCache.h"

#include <cassert>
#include <cstdio>

using namespace gcache;

const char *gcache::accessResultName(AccessResult R) {
  switch (R) {
  case AccessResult::Hit:
    return "hit";
  case AccessResult::FetchMiss:
    return "fetch-miss";
  case AccessResult::NoFetchWriteMiss:
    return "no-fetch-write-miss";
  }
  return "unknown";
}

OracleCache::OracleCache(const CacheConfig &Config) : Config(Config) {
  assert(Config.isValid() && "invalid cache geometry");
  NumSets = Config.numSets();
  WordsPerBlock = Config.wordsPerBlock();
  Sets.assign(NumSets, {});
}

void OracleCache::reset() {
  for (auto &S : Sets)
    S.clear();
  Counts[0] = CacheCounters();
  Counts[1] = CacheCounters();
}

CacheCounters OracleCache::totalCounters() const {
  CacheCounters T = Counts[0];
  T += Counts[1];
  return T;
}

void OracleCache::restoreSet(uint32_t SetIdx, std::vector<LineState> Lines) {
  assert(SetIdx < NumSets && Lines.size() <= Config.Ways);
  Sets[SetIdx] = std::move(Lines);
}

AccessResult OracleCache::access(const Ref &R) {
  CacheCounters &C = Counts[static_cast<unsigned>(R.ExecPhase)];
  bool IsStore = R.Kind == AccessKind::Store;
  if (IsStore)
    ++C.Stores;
  else
    ++C.Loads;

  // Plain arithmetic, no shifts: the block number, its set, its tag, and
  // which word of the block is touched.
  uint64_t Block = R.Addr / Config.BlockBytes;
  uint32_t SetIdx = static_cast<uint32_t>(Block % NumSets);
  uint32_t Tag = static_cast<uint32_t>(Block / NumSets);
  unsigned Word = (R.Addr % Config.BlockBytes) / 4;
  uint64_t WordBit = uint64_t(1) << Word;
  uint64_t FullMask =
      WordsPerBlock == 64 ? ~uint64_t(0) : (uint64_t(1) << WordsPerBlock) - 1;

  std::vector<LineState> &S = Sets[SetIdx];

  // Look the block up; on a hit, move it to the most-recently-used end.
  for (size_t I = 0; I != S.size(); ++I) {
    if (S[I].Tag != Tag)
      continue;
    LineState L = S[I];
    S.erase(S.begin() + I);
    if (IsStore) {
      L.ValidMask |= WordBit;
      L.Dirty = true; // write-back: memory is written at eviction
      S.push_back(L);
      return AccessResult::Hit;
    }
    if (L.ValidMask & WordBit) {
      S.push_back(L);
      return AccessResult::Hit;
    }
    // Sub-block read miss: resident, but this word was never fetched.
    L.ValidMask = FullMask;
    S.push_back(L);
    ++C.FetchMisses;
    return AccessResult::FetchMiss;
  }

  // Block miss. A full set evicts its least recently used line (the
  // front of the list), writing it back if dirty.
  if (S.size() == Config.Ways) {
    if (S.front().Dirty)
      ++C.Writebacks;
    S.erase(S.begin());
  }

  // The collector's write misses always fetch (§6 footnote).
  bool FetchOnWrite = Config.WriteMiss == WriteMissPolicy::FetchOnWrite ||
                      R.ExecPhase == Phase::Collector;
  LineState L;
  L.Tag = Tag;
  L.Dirty = IsStore;
  if (IsStore && !FetchOnWrite) {
    L.ValidMask = WordBit;
    S.push_back(L);
    ++C.NoFetchMisses;
    return AccessResult::NoFetchWriteMiss;
  }
  L.ValidMask = FullMask;
  S.push_back(L);
  ++C.FetchMisses;
  return AccessResult::FetchMiss;
}

std::string OracleCache::dumpSet(uint32_t SetIdx) const {
  std::string Out;
  const std::vector<LineState> &S = Sets[SetIdx];
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "set %u (%zu/%u lines, LRU first):", SetIdx,
                S.size(), Config.Ways);
  Out += Buf;
  for (size_t I = 0; I != S.size(); ++I) {
    std::snprintf(Buf, sizeof(Buf), " [tag 0x%x valid 0x%llx%s]", S[I].Tag,
                  static_cast<unsigned long long>(S[I].ValidMask),
                  S[I].Dirty ? " dirty" : "");
    Out += Buf;
  }
  if (S.empty())
    Out += " (empty)";
  return Out;
}
