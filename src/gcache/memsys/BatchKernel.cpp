//===- BatchKernel.cpp - Columnar batch-mode cache simulation --------------===//

#include "gcache/memsys/BatchKernel.h"

#include "gcache/memsys/Cache.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

using namespace gcache;

const BatchIndex::BlockColumns &BatchIndex::columnsFor(uint32_t BlockBytes) {
  assert(Batch && "BatchIndex::reset must point at a batch first");
  BlockColumns &C = Columns;
  if (C.BlockBytes == BlockBytes)
    return C;
  C.BlockBytes = BlockBytes;
  const size_t N = Batch->size();
  assert(N <= BlockColumns::RunLenMask &&
         "batch too large for the packed run encoding");
  // Size the buffers for the worst case (every reference its own run)
  // and write through raw pointers: the builder loop then has no
  // capacity checks, and the vectors keep their high-water storage so
  // later batches pay no initialization at all.
  if (C.RunPacked.size() < N) {
    C.RunPacked.resize(N);
    C.RunBlockIdx.resize(N);
    C.FirstWordBit.resize(N);
    C.StoreMask.resize(N);
  }
  uint32_t *RP = C.RunPacked.data();
  uint32_t *RB = C.RunBlockIdx.data();
  uint64_t *FW = C.FirstWordBit.data();
  uint64_t *SM = C.StoreMask.data();
  const uint32_t Shift = std::bit_width(BlockBytes) - 1;
  const uint32_t OffsetMask = BlockBytes - 1;
  const Address *Addr = Batch->Addr.data();
  const uint8_t *Kind = Batch->Kind.data();
  const uint8_t *PhaseTag = Batch->PhaseTag.data();
  size_t R = static_cast<size_t>(-1); // index of the run being extended
  uint32_t PrevBI = 0;
  for (size_t I = 0; I != N; ++I) {
    const Address A = Addr[I];
    const uint32_t BI = A >> Shift;
    const uint64_t WBit = 1ull << ((A & OffsetMask) >> 2);
    const bool IsStore = (Kind[I] & 1) != 0;
    if (I != 0 && BI == PrevBI) {
      // Same block as the previous reference: extend the run. The length
      // lives in the low 29 bits, so ++ never carries into the flags.
      ++RP[R];
      if (IsStore)
        SM[R] |= WBit;
      else
        RP[R] |= BlockColumns::RunHasTailLoad;
    } else {
      uint32_t Packed = 1;
      if (IsStore)
        Packed |= BlockColumns::RunFirstIsStore;
      if (PhaseTag[I] & 1)
        Packed |= BlockColumns::RunFirstCollector;
      ++R;
      RP[R] = Packed;
      RB[R] = BI;
      FW[R] = WBit;
      SM[R] = IsStore ? WBit : 0;
      PrevBI = BI;
    }
  }
  C.NumRuns = R + 1;
  return C;
}

const BatchIndex::RefTally &BatchIndex::tally() {
  assert(Batch && "BatchIndex::reset must point at a batch first");
  if (TallyValid)
    return Tally;
  Tally = RefTally();
  const size_t N = Batch->size();
  const uint8_t *Kind = Batch->Kind.data();
  const uint8_t *PhaseTag = Batch->PhaseTag.data();
  for (size_t I = 0; I != N; ++I) {
    const unsigned P = PhaseTag[I] & 1;
    if (Kind[I] & 1)
      ++Tally.Stores[P];
    else
      ++Tally.Loads[P];
  }
  TallyValid = true;
  return Tally;
}

Status BatchKernel::validate(const RefColumns &Batch) {
  if (Batch.Kind.size() != Batch.Addr.size() ||
      Batch.PhaseTag.size() != Batch.Addr.size())
    return Status::failf(StatusCode::InvalidArgument,
                         "ragged columnar batch: %zu addresses, %zu kinds, "
                         "%zu phase tags",
                         Batch.Addr.size(), Batch.Kind.size(),
                         Batch.PhaseTag.size());
  if (Batch.size() > BatchIndex::BlockColumns::RunLenMask)
    return Status::failf(StatusCode::InvalidArgument,
                         "batch of %zu references exceeds the %u-reference "
                         "limit of the packed run encoding",
                         Batch.size(), BatchIndex::BlockColumns::RunLenMask);
  for (size_t I = 0; I != Batch.size(); ++I) {
    if (Batch.Kind[I] > static_cast<uint8_t>(AccessKind::Store))
      return Status::failf(StatusCode::InvalidArgument,
                           "batch row %zu holds invalid access kind %u",
                           I, Batch.Kind[I]);
    if (Batch.PhaseTag[I] > static_cast<uint8_t>(Phase::Collector))
      return Status::failf(StatusCode::InvalidArgument,
                           "batch row %zu holds invalid phase tag %u",
                           I, Batch.PhaseTag[I]);
  }
  return Status();
}

/// The batch inner loop of an associative cache, specialized on per-block
/// bookkeeping and on whether the batch mixes phases. The write-miss
/// policy only selects among counter increments, so it stays a hoisted
/// local — the branch predictor treats loop-invariant booleans as free.
///
/// The loop walks the batch run by run (BlockColumns::RunPacked), not
/// reference by reference: one same-block run needs one set scan and one
/// line write-back no matter how long it is, plain loads/stores were
/// already counted in bulk from the tally, and a run tail without loads
/// reduces to a single OR of the precomputed store mask. The per-
/// reference path survives only for run tails containing loads, whose
/// sub-block validity is order-sensitive.
///
/// Every step is observationally equivalent to Cache::simulate: a run is
/// a span of accesses to one line, so collapsing its interior writes is
/// invisible at run boundaries — and nothing can observe the line mid-
/// run. The bit-identity tests pin this loop to the scalar path at every
/// flush boundary; any change here must be mirrored there (and vice
/// versa).
template <bool PerBlock, bool Mixed>
void BatchKernel::runLoop(Cache &C, const RefColumns &Batch,
                          const BatchIndex::BlockColumns &Cols,
                          const BatchIndex::RefTally &Tally,
                          unsigned BatchPhase) {
  using Line = Cache::Line;
  const uint32_t SetMask = C.SetMask;
  const uint32_t SetShift = std::bit_width(SetMask); // log2(numSets)
  const uint32_t Ways = C.Config.Ways;
  const uint64_t FullMask = C.FullMask;
  const uint32_t OffsetMask = Cols.BlockBytes - 1;
  const bool FetchOnWriteAlways =
      C.Config.WriteMiss == WriteMissPolicy::FetchOnWrite;
  // Single-phase batches resolve the fetch-on-write decision once here; a
  // collector write miss always fetches.
  const bool BatchFoW = FetchOnWriteAlways || BatchPhase != 0;

  Line *Lines = C.Lines.data();
  const uint32_t *RunPacked = Cols.RunPacked.data();
  const uint32_t *RunBlockIdx = Cols.RunBlockIdx.data();
  const uint64_t *FirstWordBit = Cols.FirstWordBit.data();
  const uint64_t *StoreMask = Cols.StoreMask.data();
  const size_t NumRuns = Cols.NumRuns;
  const Address *Addr = Batch.Addr.data();
  const uint8_t *Kind = Batch.Kind.data();
  [[maybe_unused]] const uint8_t *PhaseTag = Batch.PhaseTag.data();
  uint64_t *BlockRefs = PerBlock ? C.BlockRefs.data() : nullptr;
  uint64_t *BlockMisses = PerBlock ? C.BlockMisses.data() : nullptr;
  uint64_t *BlockFetch = PerBlock ? C.BlockFetchMisses.data() : nullptr;

  // Counters accumulate in locals and write back once at the end. Loads
  // and stores are bulk-added from the batch tally; the loop only counts
  // miss events. A single-phase batch counts them in three scalar locals —
  // a phase-indexed counter array in the loop forces the counts through
  // memory, which costs a third of the whole loop.
  uint64_t Clock = C.LruClock;
  CacheCounters Cnt[2] = {C.Counts[0], C.Counts[1]};
  for (unsigned P = 0; P != 2; ++P) {
    Cnt[P].Loads += Tally.Loads[P];
    Cnt[P].Stores += Tally.Stores[P];
  }
  [[maybe_unused]] uint64_t FetchL = 0, NoFetchL = 0, WbL = 0;

  // Runs hit random cache sets, and for large simulated caches the Lines
  // array outgrows the host L1/L2 — the line lookup would be a dependent
  // cache miss per run. The whole batch is known up front, so prefetch
  // the set of a run a fixed distance ahead and overlap those misses.
  constexpr size_t PrefetchRuns = 16;

  using BC = BatchIndex::BlockColumns;
  size_t I = 0;
  for (size_t R = 0; R != NumRuns; ++R) {
    {
      const size_t PR = R + PrefetchRuns;
      if (PR < NumRuns)
        __builtin_prefetch(
            Lines + static_cast<size_t>(RunBlockIdx[PR] & SetMask) * Ways);
    }
    const uint32_t Packed = RunPacked[R];
    const uint32_t Len = Packed & BC::RunLenMask;
    const uint32_t BI = RunBlockIdx[R];
    const uint32_t SetIdx = BI & SetMask;
    const uint32_t Tag = BI >> SetShift;

    // One set scan per run: every reference after the first is
    // guaranteed to find the block resident (ValidMask never drops to
    // 0 between the install and the end of the run).
    Line *Set = Lines + static_cast<size_t>(SetIdx) * Ways;
    Line *Found = nullptr;
    Line *Victim = Set;
    for (uint32_t W = 0; W != Ways; ++W) {
      Line &Way = Set[W];
      if (Way.ValidMask != 0 && Way.Tag == Tag) {
        Found = &Way;
        break;
      }
      if (Way.ValidMask == 0) {
        Victim = &Way; // Prefer an empty way (last one scanned wins).
      } else if (Victim->ValidMask != 0 && Way.LruStamp < Victim->LruStamp) {
        Victim = &Way;
      }
    }
    const bool Resident = Found != nullptr;
    Line *L = Found ? Found : Victim;

    // First reference of the run: the only one that can block-miss.
    // Its decomposition lives in the run-indexed columns, so store-
    // only runs and singleton loads never touch per-reference arrays.
    {
      const uint64_t WB = FirstWordBit[R];
      const unsigned P =
          Mixed ? ((Packed & BC::RunFirstCollector) ? 1 : 0) : BatchPhase;
      const bool IsStore = (Packed & BC::RunFirstIsStore) != 0;
      ++Clock;
      if (Resident) {
        if (IsStore) {
          L->ValidMask |= WB;
          L->StoreMask |= WB;
        } else if (!(L->ValidMask & WB)) {
          // Sub-block read miss: resident block, never-fetched word.
          L->ValidMask = FullMask;
          if constexpr (Mixed)
            ++Cnt[P].FetchMisses;
          else
            ++FetchL;
          if constexpr (PerBlock) {
            ++BlockMisses[SetIdx];
            ++BlockFetch[SetIdx];
          }
        }
      } else {
        // Block miss: evict the victim (writeback if dirty), install.
        if (L->dirty()) {
          if constexpr (Mixed)
            ++Cnt[P].Writebacks;
          else
            ++WbL;
        }
        L->Tag = Tag;
        L->StoreMask = IsStore ? WB : 0;
        const bool FetchOnWrite =
            Mixed ? (FetchOnWriteAlways || P != 0) : BatchFoW;
        if (IsStore && !FetchOnWrite) {
          L->ValidMask = WB;
          if constexpr (Mixed)
            ++Cnt[P].NoFetchMisses;
          else
            ++NoFetchL;
          if constexpr (PerBlock)
            ++BlockMisses[SetIdx];
        } else {
          L->ValidMask = FullMask;
          if constexpr (Mixed)
            ++Cnt[P].FetchMisses;
          else
            ++FetchL;
          if constexpr (PerBlock) {
            ++BlockMisses[SetIdx];
            ++BlockFetch[SetIdx];
          }
        }
      }
    }
    ++I;

    if (const uint32_t Rest = Len - 1) {
      if (!(Packed & BC::RunHasTailLoad)) {
        // Store-only tail: stores to a resident block just OR their
        // word bits into the valid and store masks, so the whole tail
        // is a few register ops (the counters came from the tally).
        L->ValidMask |= StoreMask[R];
        L->StoreMask |= StoreMask[R];
        Clock += Rest;
        I += Rest;
      } else {
        // The tail holds loads, whose sub-block validity depends on
        // the exact interleaving: walk it with state in registers.
        uint64_t VM = L->ValidMask;
        uint64_t SM = L->StoreMask;
        for (const size_t End = I + Rest; I != End; ++I) {
          ++Clock;
          const uint64_t Bit = 1ull << ((Addr[I] & OffsetMask) >> 2);
          if (Kind[I] & 1) {
            VM |= Bit;
            SM |= Bit;
          } else if (!(VM & Bit)) {
            VM = FullMask;
            if constexpr (Mixed)
              ++Cnt[PhaseTag[I] & 1].FetchMisses;
            else
              ++FetchL;
            if constexpr (PerBlock) {
              ++BlockMisses[SetIdx];
              ++BlockFetch[SetIdx];
            }
          }
        }
        L->ValidMask = VM;
        L->StoreMask = SM;
      }
    }
    // The scalar path stamps every access; only the final stamp of
    // the run (== the clock at its last reference) is observable.
    L->LruStamp = Clock;
    if constexpr (PerBlock)
      BlockRefs[SetIdx] += Len;
  }

  C.LruClock = Clock;
  if constexpr (!Mixed) {
    Cnt[BatchPhase].FetchMisses += FetchL;
    Cnt[BatchPhase].NoFetchMisses += NoFetchL;
    Cnt[BatchPhase].Writebacks += WbL;
  }
  C.Counts[0] = Cnt[0];
  C.Counts[1] = Cnt[1];
}

void BatchKernel::run(Cache &C, const RefColumns &Batch, BatchIndex &Index) {
  assert(Index.batch() == &Batch && "index was reset to a different batch");
  if (Batch.empty())
    return;
  if (C.crossCheckEnabled()) {
    // The shadow oracle must observe every reference in lockstep, so a
    // cross-checked cache takes the scalar path (access drives the oracle
    // and throws Divergence with the exact offending reference).
    for (size_t I = 0; I != Batch.size(); ++I)
      (void)C.access(Batch.get(I));
    return;
  }
  assert(C.config().Ways > 1 &&
         "a direct-mapped cache without a shadow oracle is a chain link");
  const BatchIndex::BlockColumns &Cols =
      Index.columnsFor(C.config().BlockBytes);
  const BatchIndex::RefTally &Tally = Index.tally();
  // CacheBank flushes at GC phase boundaries, so nearly every batch is
  // single-phase: pick the specialization that keeps its event counters
  // in registers and resolves fetch-on-write once per batch.
  const bool AllCollector = Tally.Loads[0] + Tally.Stores[0] == 0;
  const bool AllMutator = Tally.Loads[1] + Tally.Stores[1] == 0;
  const bool Mixed = !AllCollector && !AllMutator;
  const unsigned BatchPhase = AllCollector ? 1 : 0;
  if (C.config().TrackPerBlockStats)
    Mixed ? runLoop<true, true>(C, Batch, Cols, Tally, BatchPhase)
          : runLoop<true, false>(C, Batch, Cols, Tally, BatchPhase);
  else
    Mixed ? runLoop<false, true>(C, Batch, Cols, Tally, BatchPhase)
          : runLoop<false, false>(C, Batch, Cols, Tally, BatchPhase);
}

//===----------------------------------------------------------------------===//
// Inclusion chains
//===----------------------------------------------------------------------===//

bool BatchKernel::chainable(const Cache &C) {
  return C.config().Ways == 1 && !C.crossCheckEnabled();
}

bool BatchKernel::sameChain(const Cache &A, const Cache &B) {
  const CacheConfig &X = A.config(), &Y = B.config();
  return X.BlockBytes == Y.BlockBytes && X.WriteMiss == Y.WriteMiss &&
         X.TrackPerBlockStats == Y.TrackPerBlockStats;
}

void BatchKernel::runChain(std::span<Cache *const> Links,
                           const RefColumns &Batch,
                           std::vector<ChainRun> &Survivors,
                           std::vector<uint64_t> &SetRefs) {
  assert(!Links.empty() && "a chain has at least one link");
  const size_t N = Batch.size();
  if (Survivors.size() < ChainChunkRefs)
    Survivors.resize(ChainChunkRefs);
  const CacheConfig &Cfg = Links.front()->config();
  const bool PerBlock = Cfg.TrackPerBlockStats;
  // One histogram entry per set of the largest link; the fold leaves the
  // whole vector zeroed for the next chain or batch.
  std::span<uint64_t> Refs;
  if (PerBlock) {
    const size_t Sets = Links.back()->SetMask + size_t(1);
    if (SetRefs.size() < Sets)
      SetRefs.resize(Sets);
    Refs = {SetRefs.data(), Sets};
  }
  const uint8_t *PhaseTag = Batch.PhaseTag.data();
  for (size_t Begin = 0; Begin != N;) {
    // Segmentation is unobservable, so a mixed-phase batch runs as its
    // maximal single-phase segments, each with the phase's policy fixed.
    const unsigned P = PhaseTag[Begin] & 1;
    const void *Switch = std::memchr(PhaseTag + Begin, P ^ 1, N - Begin);
    const size_t End =
        Switch ? static_cast<const uint8_t *>(Switch) - PhaseTag : N;
    const bool FoW = Cfg.WriteMiss == WriteMissPolicy::FetchOnWrite || P != 0;
    ChainRun *Runs = Survivors.data();
    if (PerBlock)
      FoW ? runSegment<true, true>(Links, Batch, Begin, End, P, Runs, Refs)
          : runSegment<false, true>(Links, Batch, Begin, End, P, Runs, Refs);
    else
      FoW ? runSegment<true, false>(Links, Batch, Begin, End, P, Runs, Refs)
          : runSegment<false, false>(Links, Batch, Begin, End, P, Runs, Refs);
    Begin = End;
  }
  if (PerBlock)
    foldSetRefs(Links, Refs);
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

template <bool FetchOnWrite, bool PerBlock>
void BatchKernel::runSegment(std::span<Cache *const> Links,
                             const RefColumns &Batch, size_t Begin,
                             size_t End, unsigned P, ChainRun *Runs,
                             std::span<uint64_t> SetRefs) {
  uint64_t Stores = 0;
  for (size_t From = Begin; From != End;) {
    const size_t To = std::min(End, From + ChainChunkRefs);
    Cache &First = *Links.front();
    size_t NumRuns =
        Links.size() > 1
            ? firstLink<FetchOnWrite, true, PerBlock>(First, Batch, From, To,
                                                      P, Runs, Stores, SetRefs)
            : firstLink<FetchOnWrite, false, PerBlock>(
                  First, Batch, From, To, P, Runs, Stores, SetRefs);
    for (size_t K = 1; K != Links.size() && NumRuns != 0; ++K)
      NumRuns = K + 1 != Links.size()
                    ? nextLink<FetchOnWrite, true, PerBlock>(*Links[K], Batch,
                                                             Runs, NumRuns, P)
                    : nextLink<FetchOnWrite, false, PerBlock>(
                          *Links[K], Batch, Runs, NumRuns, P);
    From = To;
  }
  // Every link sees every reference, so all take the same tally.
  for (Cache *C : Links) {
    C->Counts[P].Loads += (End - Begin) - Stores;
    C->Counts[P].Stores += Stores;
  }
}

/// The first link, fused with the run split: one pass over the rows keeps
/// the open run's line state in registers, simulates each reference as
/// Cache::simulate would (direct-mapped, write-back, one phase), and on
/// closing a run records it for the next link unless the line was
/// resident when the run began and every word the run touched was already
/// in the line's store mask.
template <bool FetchOnWrite, bool Emit, bool PerBlock>
size_t BatchKernel::firstLink(Cache &C, const RefColumns &Batch,
                              size_t Begin, size_t End, unsigned P,
                              ChainRun *Out, uint64_t &Stores,
                              std::span<uint64_t> SetRefs) {
  using Line = Cache::Line;
  Line *const Lines = C.Lines.data();
  const uint32_t SetMask = C.SetMask;
  const uint32_t SetShift = std::bit_width(SetMask);
  const uint32_t BlockShift = C.BlockShift;
  const uint32_t OffsetMask = C.Config.BlockBytes - 1;
  const uint64_t FullMask = C.FullMask;
  const Address *Addr = Batch.Addr.data();
  const uint8_t *Kind = Batch.Kind.data();
  uint64_t *const BlockMisses = PerBlock ? C.BlockMisses.data() : nullptr;
  uint64_t *const BlockFetch = PerBlock ? C.BlockFetchMisses.data() : nullptr;
  uint64_t *const Hist = SetRefs.data();
  const size_t HistMask = SetRefs.size() - 1;
  uint64_t Fetch = 0, NoFetch = 0, Wb = 0, StoreRefs = 0;
  size_t NumOut = 0;

  // The open run: its line, the line's masks in registers, whether the
  // block was resident and its store mask when the run began, and the
  // record the next link would get.
  Line *L = nullptr;
  uint64_t VM = 0, SM = 0, Proof = 0;
  bool WasResident = false;
  ChainRun Run{};
  // Closes the open run; \p Next is the row after its last reference.
  auto Close = [&](size_t Next) {
    L->ValidMask = VM;
    L->StoreMask = SM;
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
      ++BlockMisses[L - Lines];
      ++BlockFetch[L - Lines];
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
    if (L && BI == Run.Block) {
      // Tail reference: the block is resident, and a store's word
      // becomes valid before a load's validity is tested.
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
        Run.Flags |= IsStore ? 0 : ChainRun::TailHasLoad;
      }
      continue;
    }
    if (L)
      Close(I);
    L = Lines + (BI & SetMask);
    const uint32_t Tag = BI >> SetShift;
    VM = L->ValidMask;
    SM = L->StoreMask;
    WasResident = VM != 0 && L->Tag == Tag;
    Proof = SM;
    Run = {BI, static_cast<uint32_t>(I), 1,
           Word | (IsStore ? ChainRun::FirstIsStore : 0), StoreBit, Bit};
    if (WasResident) {
      VM |= StoreBit;
      SM |= StoreBit;
      if (!(VM & Bit)) {
        VM = FullMask;
        FetchMiss();
      }
    } else {
      Wb += SM != 0;
      L->Tag = Tag;
      if (IsStore && !FetchOnWrite) {
        VM = Bit; // write-validate: allocate without fetching
        ++NoFetch;
        if constexpr (PerBlock)
          ++BlockMisses[L - Lines];
      } else {
        VM = FullMask;
        FetchMiss();
      }
      SM = StoreBit;
    }
  }
  if (L)
    Close(End);

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
size_t BatchKernel::nextLink(Cache &C, const RefColumns &Batch,
                             ChainRun *Runs, size_t NumRuns, unsigned P) {
  using Line = Cache::Line;
  Line *const Lines = C.Lines.data();
  const uint32_t SetMask = C.SetMask;
  const uint32_t SetShift = std::bit_width(SetMask);
  const uint32_t OffsetMask = C.Config.BlockBytes - 1;
  const uint64_t FullMask = C.FullMask;
  const Address *Addr = Batch.Addr.data();
  const uint8_t *Kind = Batch.Kind.data();
  uint64_t *const BlockMisses = PerBlock ? C.BlockMisses.data() : nullptr;
  uint64_t *const BlockFetch = PerBlock ? C.BlockFetchMisses.data() : nullptr;
  uint64_t Fetch = 0, NoFetch = 0, Wb = 0;
  size_t NumOut = 0;
  // The larger links' line arrays outgrow the host caches; prefetch the
  // line of a run a fixed distance ahead (see runLoop).
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
