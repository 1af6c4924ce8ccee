//===- BatchKernel.cpp - Columnar batch-mode cache simulation --------------===//

#include "gcache/memsys/BatchKernel.h"

#include "gcache/memsys/Cache.h"

#include <bit>
#include <cassert>

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

/// The batch inner loop, specialized on the two properties that change
/// its shape (set scan and per-block bookkeeping). Policy flags only
/// select among counter increments, so they stay hoisted locals — the
/// branch predictor treats loop-invariant booleans as free.
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
template <bool DirectMapped, bool PerBlock, bool Mixed>
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
  const bool WriteThrough = C.Config.WriteHit == WriteHitPolicy::WriteThrough;
  const bool TrackDirty = C.Config.WriteHit == WriteHitPolicy::WriteBack;
  const bool FetchOnWriteAlways =
      C.Config.WriteMiss == WriteMissPolicy::FetchOnWrite;
  const bool CollectorFoW = C.Config.CollectorFetchOnWrite;
  // Single-phase batches resolve the fetch-on-write decision once here.
  const bool BatchFoW =
      FetchOnWriteAlways || (CollectorFoW && BatchPhase != 0);

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

  // Counters accumulate in locals and write back once at the end. Loads,
  // stores, and (for write-through) store write-throughs are bulk-added
  // from the batch tally; the loop only counts miss events. A single-
  // phase batch counts them in three scalar locals — a phase-indexed
  // counter array in the loop forces the counts through memory, which
  // costs a third of the whole loop.
  uint64_t Clock = C.LruClock;
  CacheCounters Cnt[2] = {C.Counts[0], C.Counts[1]};
  for (unsigned P = 0; P != 2; ++P) {
    Cnt[P].Loads += Tally.Loads[P];
    Cnt[P].Stores += Tally.Stores[P];
    if (WriteThrough)
      Cnt[P].WriteThroughs += Tally.Stores[P];
  }
  [[maybe_unused]] uint64_t FetchL = 0, NoFetchL = 0, WbL = 0;

  // Runs hit random cache sets, and for large simulated caches the Lines
  // array outgrows the host L1/L2 — the line lookup would be a dependent
  // cache miss per run. The whole batch is known up front, so prefetch
  // the set of a run a fixed distance ahead and overlap those misses.
  constexpr size_t PrefetchRuns = 16;

  using BC = BatchIndex::BlockColumns;
  size_t I = 0;
  if constexpr (DirectMapped) {
    // Direct-mapped (the whole paper grid): no way scan, one line probe
    // per run. The hit/miss branches stay — on real streams they are
    // strongly biased (sequential stores hit, far-ranging loads miss)
    // and predicted branches beat the longer dependent chains of a
    // branch-free formulation.
    for (size_t R = 0; R != NumRuns; ++R) {
      {
        const size_t PR = R + PrefetchRuns;
        if (PR < NumRuns)
          __builtin_prefetch(Lines + (RunBlockIdx[PR] & SetMask));
      }
      const uint32_t Packed = RunPacked[R];
      const uint32_t Len = Packed & BC::RunLenMask;
      const uint32_t BI = RunBlockIdx[R];
      const uint32_t SetIdx = BI & SetMask;
      const uint32_t Tag = BI >> SetShift;
      Line *L = Lines + SetIdx;
      const uint64_t WB = FirstWordBit[R];
      const unsigned P =
          Mixed ? ((Packed & BC::RunFirstCollector) ? 1 : 0) : BatchPhase;
      const bool IsStore = (Packed & BC::RunFirstIsStore) != 0;
      ++Clock;
      if (L->ValidMask != 0 && L->Tag == Tag) {
        if (IsStore) {
          L->ValidMask |= WB;
          if (TrackDirty)
            L->Dirty = true;
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
        // Block miss: evict the line (writing back if dirty), install.
        if (L->ValidMask != 0 && L->Dirty) {
          if constexpr (Mixed)
            ++Cnt[P].Writebacks;
          else
            ++WbL;
        }
        L->Tag = Tag;
        L->Dirty = false;
        const bool FetchOnWrite =
            Mixed ? (FetchOnWriteAlways || (CollectorFoW && P != 0))
                  : BatchFoW;
        if (IsStore && !FetchOnWrite) {
          L->ValidMask = WB;
          if (TrackDirty)
            L->Dirty = true;
          if constexpr (Mixed)
            ++Cnt[P].NoFetchMisses;
          else
            ++NoFetchL;
          if constexpr (PerBlock)
            ++BlockMisses[SetIdx];
        } else {
          L->ValidMask = FullMask;
          if (IsStore && TrackDirty)
            L->Dirty = true;
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
      ++I;

      if (const uint32_t Rest = Len - 1) {
        if (!(Packed & BC::RunHasTailLoad)) {
          // Store-only tail: stores to a resident block just OR their
          // word bits and set the dirty flag, so the whole tail is
          // three register ops (the counters came from the tally).
          L->ValidMask |= StoreMask[R];
          if (TrackDirty)
            L->Dirty = true;
          Clock += Rest;
          I += Rest;
        } else {
          // The tail holds loads, whose sub-block validity depends on
          // the exact interleaving: walk it with state in registers.
          uint64_t VM = L->ValidMask;
          bool Dirty = L->Dirty;
          for (const size_t End = I + Rest; I != End; ++I) {
            ++Clock;
            const uint64_t Bit = 1ull << ((Addr[I] & OffsetMask) >> 2);
            if (Kind[I] & 1) {
              VM |= Bit;
              Dirty |= TrackDirty;
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
          L->Dirty = Dirty;
        }
      }
      // The scalar path stamps every access; only the final stamp of
      // the run (== the clock at its last reference) is observable.
      L->LruStamp = Clock;
      if constexpr (PerBlock)
        BlockRefs[SetIdx] += Len;
    }
  } else {
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
        } else if (Victim->ValidMask != 0 &&
                   Way.LruStamp < Victim->LruStamp) {
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
            if (TrackDirty)
              L->Dirty = true;
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
          if (L->ValidMask != 0 && L->Dirty) {
            if constexpr (Mixed)
              ++Cnt[P].Writebacks;
            else
              ++WbL;
          }
          L->Tag = Tag;
          L->Dirty = false;
          const bool FetchOnWrite =
              Mixed ? (FetchOnWriteAlways || (CollectorFoW && P != 0))
                    : BatchFoW;
          if (IsStore && !FetchOnWrite) {
            L->ValidMask = WB;
            if (TrackDirty)
              L->Dirty = true;
            if constexpr (Mixed)
              ++Cnt[P].NoFetchMisses;
            else
              ++NoFetchL;
            if constexpr (PerBlock)
              ++BlockMisses[SetIdx];
          } else {
            L->ValidMask = FullMask;
            if (IsStore && TrackDirty)
              L->Dirty = true;
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
          // word bits and set the dirty flag, so the whole tail is
          // three register ops (the counters came from the tally).
          L->ValidMask |= StoreMask[R];
          if (TrackDirty)
            L->Dirty = true;
          Clock += Rest;
          I += Rest;
        } else {
          // The tail holds loads, whose sub-block validity depends on
          // the exact interleaving: walk it with state in registers.
          uint64_t VM = L->ValidMask;
          bool Dirty = L->Dirty;
          for (const size_t End = I + Rest; I != End; ++I) {
            ++Clock;
            const uint64_t Bit = 1ull << ((Addr[I] & OffsetMask) >> 2);
            if (Kind[I] & 1) {
              VM |= Bit;
              Dirty |= TrackDirty;
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
          L->Dirty = Dirty;
        }
      }
      // The scalar path stamps every access; only the final stamp of
      // the run (== the clock at its last reference) is observable.
      L->LruStamp = Clock;
      if constexpr (PerBlock)
        BlockRefs[SetIdx] += Len;
    }
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
  const BatchIndex::BlockColumns &Cols =
      Index.columnsFor(C.config().BlockBytes);
  const BatchIndex::RefTally &Tally = Index.tally();
  const bool DirectMapped = C.config().Ways == 1;
  const bool PerBlock = C.config().TrackPerBlockStats;
  // CacheBank flushes at GC phase boundaries, so nearly every batch is
  // single-phase: pick the specialization that keeps its event counters
  // in registers and resolves fetch-on-write once per batch.
  const bool AllCollector = Tally.Loads[0] + Tally.Stores[0] == 0;
  const bool AllMutator = Tally.Loads[1] + Tally.Stores[1] == 0;
  const bool Mixed = !AllCollector && !AllMutator;
  const unsigned BatchPhase = AllCollector ? 1 : 0;
  if (DirectMapped) {
    if (PerBlock)
      Mixed ? runLoop<true, true, true>(C, Batch, Cols, Tally, BatchPhase)
            : runLoop<true, true, false>(C, Batch, Cols, Tally, BatchPhase);
    else
      Mixed ? runLoop<true, false, true>(C, Batch, Cols, Tally, BatchPhase)
            : runLoop<true, false, false>(C, Batch, Cols, Tally, BatchPhase);
  } else {
    if (PerBlock)
      Mixed ? runLoop<false, true, true>(C, Batch, Cols, Tally, BatchPhase)
            : runLoop<false, true, false>(C, Batch, Cols, Tally, BatchPhase);
    else
      Mixed ? runLoop<false, false, true>(C, Batch, Cols, Tally, BatchPhase)
            : runLoop<false, false, false>(C, Batch, Cols, Tally, BatchPhase);
  }
}

bool BatchKernel::pairable(const Cache &C) {
  return C.config().Ways == 1 && !C.config().TrackPerBlockStats &&
         !C.crossCheckEnabled();
}

void BatchKernel::runPair(Cache &A, Cache &B, const RefColumns &Batch,
                          BatchIndex &Index) {
  assert(Index.batch() == &Batch && "index was reset to a different batch");
  assert(pairable(A) && pairable(B) && "runPair caller must check pairable");
  assert(A.config().BlockBytes == B.config().BlockBytes &&
         "paired caches must share the decomposed columns");
  if (Batch.empty())
    return;
  const BatchIndex::RefTally &Tally = Index.tally();
  const bool AllCollector = Tally.Loads[0] + Tally.Stores[0] == 0;
  const bool AllMutator = Tally.Loads[1] + Tally.Stores[1] == 0;
  if (!AllCollector && !AllMutator) {
    // Mixed-phase batches are rare (CacheBank flushes at GC boundaries);
    // the scalar-counter pair loop does not apply, so take two plain runs.
    run(A, Batch, Index);
    run(B, Batch, Index);
    return;
  }
  const BatchIndex::BlockColumns &Cols =
      Index.columnsFor(A.config().BlockBytes);
  const unsigned BatchPhase = AllCollector ? 1 : 0;
  // The paper grid is uniformly write-back with write-allocate-no-fetch:
  // when both caches fit that shape (for this batch's phase), take the
  // loop with the policy tests compiled out.
  const bool Uniform =
      A.config().WriteHit == WriteHitPolicy::WriteBack &&
      B.config().WriteHit == WriteHitPolicy::WriteBack &&
      A.config().WriteMiss != WriteMissPolicy::FetchOnWrite &&
      B.config().WriteMiss != WriteMissPolicy::FetchOnWrite &&
      !(A.config().CollectorFetchOnWrite && BatchPhase != 0) &&
      !(B.config().CollectorFetchOnWrite && BatchPhase != 0);
  Uniform ? runLoopPair<true>(A, B, Batch, Cols, Tally, BatchPhase)
          : runLoopPair<false>(A, B, Batch, Cols, Tally, BatchPhase);
}

/// The two-cache interleaved twin of the direct-mapped runLoop: one run
/// decode drives both caches' state machines. Per-run work that depends
/// only on the reference stream (packed length/flags, store masks, tail
/// classification, the clock) is shared; everything that depends on cache
/// geometry (set index, tag, line state, counters) is kept per cache.
/// Since the caches never read each other's state, the interleaving is
/// unobservable and each ends exactly as a solo runLoop would leave it.
template <bool Uniform>
void BatchKernel::runLoopPair(Cache &A, Cache &B, const RefColumns &Batch,
                              const BatchIndex::BlockColumns &Cols,
                              const BatchIndex::RefTally &Tally,
                              unsigned BatchPhase) {
  using Line = Cache::Line;
  const uint32_t SetMaskA = A.SetMask, SetMaskB = B.SetMask;
  const uint32_t SetShiftA = std::bit_width(SetMaskA);
  const uint32_t SetShiftB = std::bit_width(SetMaskB);
  const uint64_t FullMask = A.FullMask; // equal BlockBytes, equal mask
  const uint32_t OffsetMask = Cols.BlockBytes - 1;
  const bool WriteThroughA =
      A.Config.WriteHit == WriteHitPolicy::WriteThrough;
  const bool WriteThroughB =
      B.Config.WriteHit == WriteHitPolicy::WriteThrough;
  // Under Uniform these fold to compile-time constants (write-back,
  // never fetch-on-write), erasing the policy tests from the loop.
  const bool TrackDirtyA =
      Uniform || A.Config.WriteHit == WriteHitPolicy::WriteBack;
  const bool TrackDirtyB =
      Uniform || B.Config.WriteHit == WriteHitPolicy::WriteBack;
  const bool FoWA =
      !Uniform && (A.Config.WriteMiss == WriteMissPolicy::FetchOnWrite ||
                   (A.Config.CollectorFetchOnWrite && BatchPhase != 0));
  const bool FoWB =
      !Uniform && (B.Config.WriteMiss == WriteMissPolicy::FetchOnWrite ||
                   (B.Config.CollectorFetchOnWrite && BatchPhase != 0));

  Line *LinesA = A.Lines.data();
  Line *LinesB = B.Lines.data();
  const uint32_t *RunPacked = Cols.RunPacked.data();
  const uint32_t *RunBlockIdx = Cols.RunBlockIdx.data();
  const uint64_t *FirstWordBit = Cols.FirstWordBit.data();
  const uint64_t *StoreMask = Cols.StoreMask.data();
  const size_t NumRuns = Cols.NumRuns;
  const Address *Addr = Batch.Addr.data();
  const uint8_t *Kind = Batch.Kind.data();

  // The clocks advance in lockstep (one tick per reference), so B's
  // stamps are A's clock plus the constant starting offset.
  uint64_t Clock = A.LruClock;
  const uint64_t BOff = B.LruClock - A.LruClock;
  CacheCounters CntA[2] = {A.Counts[0], A.Counts[1]};
  CacheCounters CntB[2] = {B.Counts[0], B.Counts[1]};
  for (unsigned P = 0; P != 2; ++P) {
    CntA[P].Loads += Tally.Loads[P];
    CntA[P].Stores += Tally.Stores[P];
    CntB[P].Loads += Tally.Loads[P];
    CntB[P].Stores += Tally.Stores[P];
    if (WriteThroughA)
      CntA[P].WriteThroughs += Tally.Stores[P];
    if (WriteThroughB)
      CntB[P].WriteThroughs += Tally.Stores[P];
  }
  uint64_t FetchA = 0, NoFetchA = 0, WbA = 0;
  uint64_t FetchB = 0, NoFetchB = 0, WbB = 0;

  // One cache's dependent line-array miss overlaps with the other's
  // whole per-run work, so the pair needs less prefetch depth than the
  // solo loop; keep the same distance — extra depth is harmless.
  constexpr size_t PrefetchRuns = 16;

  // The solo loop's first-reference transition, parameterized over one
  // cache's line, flags, and counters; inlined twice per run below.
  const auto FirstRef = [FullMask](Line *L, uint32_t Tag, uint64_t WB,
                                   bool IsStore, bool TrackDirty, bool FoW,
                                   uint64_t &Fetch, uint64_t &NoFetch,
                                   uint64_t &Wb) {
    if (L->ValidMask != 0 && L->Tag == Tag) {
      if (IsStore) {
        L->ValidMask |= WB;
        if (TrackDirty)
          L->Dirty = true;
      } else if (!(L->ValidMask & WB)) {
        L->ValidMask = FullMask;
        ++Fetch;
      }
    } else {
      if (L->ValidMask != 0 && L->Dirty)
        ++Wb;
      L->Tag = Tag;
      L->Dirty = false;
      if (IsStore && !FoW) {
        L->ValidMask = WB;
        if (TrackDirty)
          L->Dirty = true;
        ++NoFetch;
      } else {
        L->ValidMask = FullMask;
        if (IsStore && TrackDirty)
          L->Dirty = true;
        ++Fetch;
      }
    }
  };

  using BC = BatchIndex::BlockColumns;
  size_t I = 0;
  for (size_t R = 0; R != NumRuns; ++R) {
    {
      const size_t PR = R + PrefetchRuns;
      if (PR < NumRuns) {
        __builtin_prefetch(LinesA + (RunBlockIdx[PR] & SetMaskA));
        __builtin_prefetch(LinesB + (RunBlockIdx[PR] & SetMaskB));
      }
    }
    const uint32_t Packed = RunPacked[R];
    const uint32_t Len = Packed & BC::RunLenMask;
    const uint32_t BI = RunBlockIdx[R];
    Line *LA = LinesA + (BI & SetMaskA);
    Line *LB = LinesB + (BI & SetMaskB);
    const uint64_t WB = FirstWordBit[R];
    const bool IsStore = (Packed & BC::RunFirstIsStore) != 0;
    ++Clock;
    FirstRef(LA, BI >> SetShiftA, WB, IsStore, TrackDirtyA, FoWA, FetchA,
             NoFetchA, WbA);
    FirstRef(LB, BI >> SetShiftB, WB, IsStore, TrackDirtyB, FoWB, FetchB,
             NoFetchB, WbB);
    ++I;

    if (const uint32_t Rest = Len - 1) {
      if (!(Packed & BC::RunHasTailLoad)) {
        const uint64_t Mask = StoreMask[R];
        LA->ValidMask |= Mask;
        LB->ValidMask |= Mask;
        if (TrackDirtyA)
          LA->Dirty = true;
        if (TrackDirtyB)
          LB->Dirty = true;
        Clock += Rest;
        I += Rest;
      } else {
        uint64_t VMA = LA->ValidMask, VMB = LB->ValidMask;
        bool DirtyA = LA->Dirty, DirtyB = LB->Dirty;
        for (const size_t End = I + Rest; I != End; ++I) {
          ++Clock;
          const uint64_t Bit = 1ull << ((Addr[I] & OffsetMask) >> 2);
          if (Kind[I] & 1) {
            VMA |= Bit;
            VMB |= Bit;
            DirtyA |= TrackDirtyA;
            DirtyB |= TrackDirtyB;
          } else {
            if (!(VMA & Bit)) {
              VMA = FullMask;
              ++FetchA;
            }
            if (!(VMB & Bit)) {
              VMB = FullMask;
              ++FetchB;
            }
          }
        }
        LA->ValidMask = VMA;
        LA->Dirty = DirtyA;
        LB->ValidMask = VMB;
        LB->Dirty = DirtyB;
      }
    }
    LA->LruStamp = Clock;
    LB->LruStamp = Clock + BOff;
  }

  A.LruClock = Clock;
  B.LruClock = Clock + BOff;
  CntA[BatchPhase].FetchMisses += FetchA;
  CntA[BatchPhase].NoFetchMisses += NoFetchA;
  CntA[BatchPhase].Writebacks += WbA;
  CntB[BatchPhase].FetchMisses += FetchB;
  CntB[BatchPhase].NoFetchMisses += NoFetchB;
  CntB[BatchPhase].Writebacks += WbB;
  A.Counts[0] = CntA[0];
  A.Counts[1] = CntA[1];
  B.Counts[0] = CntB[0];
  B.Counts[1] = CntB[1];
}
