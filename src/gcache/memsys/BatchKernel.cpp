//===- BatchKernel.cpp - Span walker and inclusion chains -----------------===//

#include "gcache/memsys/BatchKernel.h"

#include "gcache/memsys/Cache.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace gcache;

bool BatchKernel::chainable(const Cache &C) { return C.config().Ways == 1; }

bool BatchKernel::sameChain(const Cache &A, const Cache &B) {
  const CacheConfig &X = A.config(), &Y = B.config();
  return X.BlockBytes == Y.BlockBytes && X.WriteMiss == Y.WriteMiss &&
         X.TrackPerBlockStats == Y.TrackPerBlockStats;
}

void BatchKernel::runChain(std::span<Cache *const> Links,
                           const RefSpan &Batch,
                           std::vector<ChainRun> &Survivors,
                           std::vector<uint64_t> &SetRefs) {
  assert(!Links.empty() && "a chain has at least one link");
  if (Survivors.size() < ChainChunkRefs)
    Survivors.resize(ChainChunkRefs);
  const bool PerBlock = Links.front()->config().TrackPerBlockStats;
  // One histogram entry per set of the largest link; the fold leaves the
  // whole vector zeroed for the next chain or batch.
  std::span<uint64_t> Refs;
  if (PerBlock) {
    const size_t Sets = Links.back()->SetMask + size_t(1);
    if (SetRefs.size() < Sets)
      SetRefs.resize(Sets);
    Refs = {SetRefs.data(), Sets};
  }
  runPhases<true>(Links, Batch, Survivors.data(), Refs);
  if (PerBlock)
    foldSetRefs(Links, Refs);
  for (Cache *C : Links)
    if (C->Shadow)
      C->checkShadow(Batch);
}

void BatchKernel::runSolo(Cache &C, const RefSpan &S) {
  Cache *const Self[] = {&C};
  if (C.Config.Ways == 1)
    runPhases<true>(Self, S, nullptr, C.BlockRefs);
  else
    runPhases<false>(Self, S, nullptr, C.BlockRefs);
  if (C.Shadow)
    C.checkShadow(S);
}

template <bool DirectMapped>
void BatchKernel::runPhases(std::span<Cache *const> Links, const RefSpan &S,
                            ChainRun *Runs, std::span<uint64_t> SetRefs) {
  const CacheConfig &Cfg = Links.front()->config();
  const size_t N = S.size();
  for (size_t Begin = 0; Begin != N;) {
    // Segmentation is unobservable, so a mixed-phase span runs as its
    // maximal single-phase segments, each with the phase's policy fixed.
    const unsigned P = S.PhaseTag[Begin] & 1;
    const void *Switch = std::memchr(S.PhaseTag + Begin, P ^ 1, N - Begin);
    const size_t End =
        Switch ? static_cast<const uint8_t *>(Switch) - S.PhaseTag : N;
    // A collector write miss always fetches (memsys/CacheConfig.h).
    const bool FoW = Cfg.WriteMiss == WriteMissPolicy::FetchOnWrite || P != 0;
    if (Cfg.TrackPerBlockStats)
      FoW ? runSegment<DirectMapped, true, true>(Links, S, Begin, End, P,
                                                 Runs, SetRefs)
          : runSegment<DirectMapped, false, true>(Links, S, Begin, End, P,
                                                  Runs, SetRefs);
    else
      FoW ? runSegment<DirectMapped, true, false>(Links, S, Begin, End, P,
                                                  Runs, SetRefs)
          : runSegment<DirectMapped, false, false>(Links, S, Begin, End, P,
                                                   Runs, SetRefs);
    Begin = End;
  }
}

/// Bit-selection sets nest: set S of a cache with Sets sets holds the
/// blocks of sets S and S + Sets of one twice its size. So walking the
/// links from the largest down, halving the histogram in place gives each
/// link's per-set counts.
void BatchKernel::foldSetRefs(std::span<Cache *const> Links,
                              std::span<uint64_t> SetRefs) {
  uint64_t *const Hist = SetRefs.data();
  size_t Sets = SetRefs.size();
  for (size_t K = Links.size(); K-- != 0;) {
    Cache &C = *Links[K];
    for (const size_t Want = C.SetMask + size_t(1); Sets > Want; Sets /= 2)
      for (size_t S = 0; S != Sets / 2; ++S)
        Hist[S] += Hist[S + Sets / 2];
    assert(Sets == C.SetMask + size_t(1) && "links in ascending size");
    uint64_t *const BlockRefs = C.BlockRefs.data();
    for (size_t S = 0; S != Sets; ++S)
      BlockRefs[S] += Hist[S];
  }
  std::fill(SetRefs.begin(), SetRefs.end(), 0);
}

template <bool DirectMapped, bool FetchOnWrite, bool PerBlock>
void BatchKernel::runSegment(std::span<Cache *const> Links,
                             const RefSpan &S, size_t Begin, size_t End,
                             unsigned P, ChainRun *Runs,
                             std::span<uint64_t> SetRefs) {
  assert((DirectMapped || Links.size() == 1) &&
         "only direct-mapped caches nest into chains");
  uint64_t Stores = 0;
  Cache &First = *Links.front();
  if (Links.size() == 1) {
    walkRuns<DirectMapped, FetchOnWrite, false, PerBlock>(
        First, S, Begin, End, P, nullptr, Stores, SetRefs);
  } else if constexpr (DirectMapped) {
    for (size_t From = Begin; From != End;) {
      const size_t To = std::min(End, From + ChainChunkRefs);
      size_t NumRuns = walkRuns<true, FetchOnWrite, true, PerBlock>(
          First, S, From, To, P, Runs, Stores, SetRefs);
      for (size_t K = 1; K != Links.size() && NumRuns != 0; ++K)
        NumRuns = K + 1 != Links.size()
                      ? nextLink<FetchOnWrite, true, PerBlock>(*Links[K], S,
                                                               Runs, NumRuns, P)
                      : nextLink<FetchOnWrite, false, PerBlock>(
                            *Links[K], S, Runs, NumRuns, P);
      From = To;
    }
  }
  // Every link sees every reference, so all take the same tally.
  for (Cache *C : Links) {
    C->Counts[P].Loads += (End - Begin) - Stores;
    C->Counts[P].Stores += Stores;
  }
}

/// The walker, fused with the run split: one pass over the rows keeps the
/// open run's line and its masks in registers, and makes Cache::simulate's
/// transitions (write-back, one phase) one same-block run at a time. A
/// reference to the open run's block skips the set lookup: the block stays
/// resident until the run ends. A direct-mapped line is Lines[set]; an
/// associative one comes from Cache::findWay. The LRU clock ticks once per
/// reference, so row I's reference is the clock before \p Begin plus
/// I - Begin + 1, and a closing run stamps its line with the clock at its
/// last reference, the only stamp of the run simulate leaves. With \p Emit,
/// a closing run is recorded for the next link unless the line was
/// resident when the run began and every word the run touched was already
/// in the line's store mask.
template <bool DirectMapped, bool FetchOnWrite, bool Emit, bool PerBlock>
size_t BatchKernel::walkRuns(Cache &C, const RefSpan &S, size_t Begin,
                             size_t End, unsigned P, ChainRun *Out,
                             uint64_t &Stores, std::span<uint64_t> SetRefs) {
  static_assert(DirectMapped || !Emit,
                "only direct-mapped caches nest into chains");
  using Line = Cache::Line;
  Line *const Lines = C.Lines.data();
  const uint32_t SetMask = C.SetMask;
  const uint32_t SetShift = C.SetShift;
  const uint32_t BlockShift = C.BlockShift;
  const uint32_t OffsetMask = C.Config.BlockBytes - 1;
  const uint64_t FullMask = C.FullMask;
  const Address *Addr = S.Addr;
  const uint8_t *Kind = S.Kind;
  uint64_t *const BlockMisses = PerBlock ? C.BlockMisses.data() : nullptr;
  uint64_t *const BlockFetch = PerBlock ? C.BlockFetchMisses.data() : nullptr;
  uint64_t *const Hist = SetRefs.data();
  const size_t HistMask = SetRefs.size() - 1;
  // Row I ticks the clock to ClockBase + I + 1 (modulo 2^64, as the
  // clock itself counts).
  const uint64_t ClockBase = C.LruClock - Begin;
  uint64_t Fetch = 0, NoFetch = 0, Wb = 0, StoreRefs = 0;
  size_t NumOut = 0;

  // The open run: its line, the line's masks in registers, whether the
  // block was resident and its store mask when the run began, and the
  // record the next link would get. It starts on a scratch line under
  // block ~0u, which no block index reaches (blocks are at least 4
  // bytes), so the first reference opens a run, and closing the scratch
  // run writes nothing the cache keeps.
  Line Scratch;
  Line *L = &Scratch;
  uint64_t VM = 0, SM = 0, Proof = 0;
  bool WasResident = true;
  ChainRun Run{~0u, static_cast<uint32_t>(Begin), 0, 0, 0, 0};
  // Closes the open run; \p Next is the row after its last reference.
  auto Close = [&](size_t Next) {
    L->ValidMask = VM;
    L->StoreMask = SM;
    if constexpr (!DirectMapped)
      L->LruStamp = ClockBase + Next;
    if constexpr (PerBlock)
      Hist[Run.Block & HistMask] += Next - Run.Start;
    if constexpr (Emit)
      if (!WasResident || (Run.Words & ~Proof))
        Out[NumOut++] = Run;
  };
  // A fetch miss of the open run's line.
  auto FetchMiss = [&] {
    ++Fetch;
    if constexpr (PerBlock) {
      ++BlockMisses[Run.Block & SetMask];
      ++BlockFetch[Run.Block & SetMask];
    }
  };

  for (size_t I = Begin; I != End; ++I) {
    const Address A = Addr[I];
    const uint32_t BI = A >> BlockShift;
    const uint32_t Word = (A & OffsetMask) >> 2;
    const uint64_t Bit = 1ull << Word;
    const bool IsStore = (Kind[I] & 1) != 0;
    const uint64_t StoreBit = IsStore ? Bit : 0;
    StoreRefs += IsStore;
    if (BI != Run.Block) {
      Close(I);
      const uint32_t Tag = BI >> SetShift;
      if constexpr (DirectMapped) {
        L = Lines + (BI & SetMask);
        WasResident = L->ValidMask != 0 && L->Tag == Tag;
      } else {
        // On a miss, the way to fill: an empty way, else the least stamp.
        Line *Victim = nullptr;
        Line *Found = C.findWay(BI & SetMask, Tag, Victim);
        WasResident = Found != nullptr;
        L = WasResident ? Found : Victim;
      }
      VM = L->ValidMask;
      SM = L->StoreMask;
      Proof = SM;
      Run = {BI, static_cast<uint32_t>(I), 0,
             Word | (IsStore ? ChainRun::FirstIsStore : 0), 0, 0};
      if (!WasResident) {
        // Block miss: evict the line (writing it back if dirty) and
        // install; the update below validates a stored word.
        Wb += SM != 0;
        L->Tag = Tag;
        SM = 0;
        if (IsStore && !FetchOnWrite) {
          VM = 0; // write-validate: allocate without fetching
          ++NoFetch;
          if constexpr (PerBlock)
            ++BlockMisses[BI & SetMask];
        } else {
          VM = FullMask;
          FetchMiss();
        }
      }
    } else if constexpr (Emit) {
      Run.Flags |= IsStore ? 0 : ChainRun::TailHasLoad;
    }
    // A store's word becomes valid before a load's validity is tested.
    VM |= StoreBit;
    SM |= StoreBit;
    if (!(VM & Bit)) {
      VM = FullMask; // sub-block read miss
      FetchMiss();
    }
    if constexpr (Emit) {
      ++Run.Len;
      Run.Stores |= StoreBit;
      Run.Words |= Bit;
    }
  }
  Close(End);

  if constexpr (!DirectMapped)
    C.LruClock = ClockBase + End;
  CacheCounters &Cnt = C.Counts[P];
  Cnt.FetchMisses += Fetch;
  Cnt.NoFetchMisses += NoFetch;
  Cnt.Writebacks += Wb;
  Stores += StoreRefs;
  return NumOut;
}

/// A larger link: the same transitions as Cache::simulate, made run by
/// run. A run is dropped, before it touches the line, when its block is
/// resident with every word it touches in the store mask: by inclusion
/// that holds in every larger link too.
template <bool FetchOnWrite, bool Emit, bool PerBlock>
size_t BatchKernel::nextLink(Cache &C, const RefSpan &S, ChainRun *Runs,
                             size_t NumRuns, unsigned P) {
  using Line = Cache::Line;
  Line *const Lines = C.Lines.data();
  const uint32_t SetMask = C.SetMask;
  const uint32_t SetShift = C.SetShift;
  const uint32_t OffsetMask = C.Config.BlockBytes - 1;
  const uint64_t FullMask = C.FullMask;
  const Address *Addr = S.Addr;
  const uint8_t *Kind = S.Kind;
  uint64_t *const BlockMisses = PerBlock ? C.BlockMisses.data() : nullptr;
  uint64_t *const BlockFetch = PerBlock ? C.BlockFetchMisses.data() : nullptr;
  uint64_t Fetch = 0, NoFetch = 0, Wb = 0;
  size_t NumOut = 0;
  // The larger links' line arrays outgrow the host caches, and runs hit
  // random sets: prefetch the line of a run a fixed distance ahead, so the
  // misses overlap.
  constexpr size_t PrefetchRuns = 16;

  for (size_t R = 0; R != NumRuns; ++R) {
    if (R + PrefetchRuns < NumRuns)
      __builtin_prefetch(Lines + (Runs[R + PrefetchRuns].Block & SetMask));
    const ChainRun Run = Runs[R];
    const uint32_t Set = Run.Block & SetMask;
    Line *L = Lines + Set;
    const uint32_t Tag = Run.Block >> SetShift;
    uint64_t VM = L->ValidMask, SM = L->StoreMask;
    const uint64_t WB = 1ull << (Run.Flags & ChainRun::FirstWordMask);
    const bool IsStore = (Run.Flags & ChainRun::FirstIsStore) != 0;
    auto FetchMiss = [&] {
      ++Fetch;
      if constexpr (PerBlock) {
        ++BlockMisses[Set];
        ++BlockFetch[Set];
      }
    };
    if (VM != 0 && L->Tag == Tag) {
      if (!(Run.Words & ~SM))
        continue; // a no-op here and in every larger link
      if (IsStore) {
        VM |= WB;
        SM |= WB;
      } else if (!(VM & WB)) {
        VM = FullMask;
        FetchMiss();
      }
    } else {
      Wb += SM != 0;
      L->Tag = Tag;
      if (IsStore && !FetchOnWrite) {
        VM = WB;
        ++NoFetch;
        if constexpr (PerBlock)
          ++BlockMisses[Set];
      } else {
        VM = FullMask;
        FetchMiss();
      }
      SM = IsStore ? WB : 0;
    }
    if (!(Run.Flags & ChainRun::TailHasLoad) || VM == FullMask) {
      // No tail load can miss: the tail only ORs in its stores.
      VM |= Run.Stores;
      SM |= Run.Stores;
    } else {
      for (size_t I = Run.Start + 1, E = Run.Start + Run.Len; I != E; ++I) {
        const uint64_t Bit = 1ull << ((Addr[I] & OffsetMask) >> 2);
        const uint64_t StoreBit = (Kind[I] & 1) ? Bit : 0;
        VM |= StoreBit;
        SM |= StoreBit;
        if (!(VM & Bit)) {
          VM = FullMask;
          FetchMiss();
        }
      }
    }
    L->ValidMask = VM;
    L->StoreMask = SM;
    if constexpr (Emit)
      Runs[NumOut++] = Run;
  }

  CacheCounters &Cnt = C.Counts[P];
  Cnt.FetchMisses += Fetch;
  Cnt.NoFetchMisses += NoFetch;
  Cnt.Writebacks += Wb;
  return NumOut;
}
