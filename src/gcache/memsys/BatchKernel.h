//===- BatchKernel.h - Span walker and inclusion chains ---------*- C++ -*-===//
//
// Part of the gcache project (Reinhold, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one span loop of the cache model. walkRuns takes a span one
/// same-block run at a time, keeping the open run's line in registers,
/// and serves two callers:
///
///  - runChain takes a whole columnar batch through an inclusion chain,
///    the direct-mapped caches of one block size and write-miss policy,
///    smallest first, with or without per-block statistics. The smallest
///    link walks every reference; each larger link (nextLink) sees only
///    the same-block runs the link before it could not prove to be
///    no-ops. This is the path of the paper grid and of every size sweep.
///  - runSolo takes a span through one cache of any associativity, with
///    no link after it: Cache::onRefs, the path of every cache outside
///    the bank and of the bank's associative caches.
///
/// Correctness contract: both are *bit-identical* to feeding the same
/// references through Cache::access one at a time — same counters, same
/// line array (tags, valid masks, store masks, LRU stamps), same clock,
/// same per-block statistics. Batch segmentation is unobservable: any way
/// of cutting a stream into batches produces the same final state, so
/// checkpoint cuts and cancellation drains at batch boundaries stay
/// bit-exact, and a cache may move between a chain and Cache::onRefs from
/// one batch to the next. tests/test_batch_kernel.cpp holds the
/// differential proof against both Cache::access and OracleCache, over
/// chains at every paper block size and over Cache::onRefs across the
/// write-miss x associativity x per-block x block-size matrix. A
/// cross-checked cache runs these same paths, and its shadow oracle takes
/// each batch or span before they return (Cache::enableCrossCheck).
///
//===----------------------------------------------------------------------===//

#ifndef GCACHE_MEMSYS_BATCHKERNEL_H
#define GCACHE_MEMSYS_BATCHKERNEL_H

#include "gcache/trace/Event.h"

#include <span>
#include <vector>

namespace gcache {

class Cache;

/// One same-block run of a batch that a chain link could not prove to be
/// a no-op, as handed on to the next larger link (BatchKernel::runChain).
/// It carries everything a link needs to simulate the run and to test it
/// against its own store mask; only a tail with loads goes back to the
/// batch's reference columns.
struct ChainRun {
  /// Flags: the low six bits hold the word index of the first reference.
  static constexpr uint32_t FirstWordMask = 63;
  static constexpr uint32_t FirstIsStore = 1u << 6;
  /// Some reference after the first is a load, so the tail is walked
  /// reference by reference unless the line is already fully valid.
  static constexpr uint32_t TailHasLoad = 1u << 7;

  uint32_t Block; ///< Block index (address >> log2 BlockBytes).
  uint32_t Start; ///< Batch row of the first reference.
  uint32_t Len;   ///< References in the run.
  uint32_t Flags;
  uint64_t Stores; ///< OR of the word bits of the run's stores.
  uint64_t Words;  ///< OR of the word bits of all its references.
};

/// Stateless entry points of the span walker and the inclusion chains.
class BatchKernel {
public:
  /// True when \p C can be a link of a chain: direct-mapped.
  static bool chainable(const Cache &C);

  /// True when chainable caches \p A and \p B may share one chain: the
  /// same block size, write-miss policy and per-block statistics flag.
  static bool sameChain(const Cache &A, const Cache &B);

  /// Simulates \p Batch against an inclusion chain: \p Links are
  /// chainable caches sharing one chain (sameChain), in ascending size.
  /// Each link ends bit-identical to Cache::access fed the batch alone,
  /// per-block statistics included. A link with a shadow oracle then
  /// feeds it the whole batch, skipped runs included.
  ///
  /// Direct-mapped caches of one block size with bit-selection indexing
  /// nest: a block resident in a smaller cache is resident in every
  /// larger one and has been there at least as long, so the words stored
  /// since its install (Line::StoreMask) in the smaller cache are a subset
  /// of those in the larger. A run whose block is resident in link k with
  /// every word it touches in k's store mask therefore changes nothing in
  /// k or any larger link (loads hit stored, hence valid, words; stores
  /// set bits already set). The first link simulates every reference
  /// while it splits the batch into runs, and writes the runs it cannot
  /// prove to be no-ops into \p Survivors; each larger link simulates and
  /// filters those again, compacting them in place. A mixed-phase batch
  /// runs as its maximal single-phase segments.
  ///
  /// Links with per-block statistics count each miss where they simulate
  /// it. A dropped run still counts toward the BlockRefs of every larger
  /// link, and a block's reference count depends only on its address: the
  /// first link adds each run's length to \p SetRefs, a histogram over
  /// the largest link's sets, which is folded into every link's BlockRefs
  /// before this returns (bit-selection sets nest, so halving it gives
  /// each smaller link's sets) and left zeroed. Every per-block array is
  /// thus complete at each batch boundary. The fold costs one add into
  /// BlockRefs per set of the chain per batch (130,560 for a 64 B size
  /// sweep), plus halving and zeroing the histogram.
  static void runChain(std::span<Cache *const> Links, const RefSpan &Batch,
                       std::vector<ChainRun> &Survivors,
                       std::vector<uint64_t> &SetRefs);

  /// Simulates \p S against \p C alone (Cache::onRefs): the walker of a
  /// chain's first link with no survivor output. A cache on its own is
  /// its own largest link, so its BlockRefs are the walker's per-set
  /// histogram and nothing is folded. A shadow oracle is checked as in
  /// runChain.
  static void runSolo(Cache &C, const RefSpan &S);

private:
  /// References the first link of a chain consumes per pass. The
  /// survivor buffer holds one ChainRun per reference of a pass, so it
  /// stays at 256 KB whatever the batch size; passes of 4-8 K references
  /// measured fastest (1 K to whole 256 K batches were tried).
  static constexpr size_t ChainChunkRefs = 8 * 1024;

  /// Runs \p S through \p Links (a chain, or one cache alone) as its
  /// maximal single-phase segments, each with the phase's write-miss
  /// decision fixed. \p Runs is the survivor buffer (unused for one
  /// link) and \p SetRefs the per-set reference histogram.
  template <bool DirectMapped>
  static void runPhases(std::span<Cache *const> Links, const RefSpan &S,
                        ChainRun *Runs, std::span<uint64_t> SetRefs);

  /// runPhases over rows [\p Begin, \p End) of one phase \p P, whose
  /// write-miss decision is \p FetchOnWrite: one walk when \p Links is
  /// one cache, else a chunk at a time through every link. With
  /// \p PerBlock the caches keep per-block statistics.
  template <bool DirectMapped, bool FetchOnWrite, bool PerBlock>
  static void runSegment(std::span<Cache *const> Links, const RefSpan &S,
                         size_t Begin, size_t End, unsigned P,
                         ChainRun *Runs, std::span<uint64_t> SetRefs);

  /// The walker: rows [\p Begin, \p End) of one phase \p P through \p C,
  /// one same-block run at a time. With \p Emit (the head of a chain, so
  /// direct-mapped), writes the runs it cannot prove to be no-ops to
  /// \p Out. Returns the number written; adds the rows' stores to
  /// \p Stores and (with \p PerBlock) each run's length to its set of
  /// \p SetRefs.
  template <bool DirectMapped, bool FetchOnWrite, bool Emit, bool PerBlock>
  static size_t walkRuns(Cache &C, const RefSpan &S, size_t Begin,
                         size_t End, unsigned P, ChainRun *Out,
                         uint64_t &Stores, std::span<uint64_t> SetRefs);

  /// A larger link: simulates the \p NumRuns runs of \p Runs, keeping
  /// (with \p Emit) those it cannot prove to be no-ops at the front of
  /// \p Runs. Returns how many it kept.
  template <bool FetchOnWrite, bool Emit, bool PerBlock>
  static size_t nextLink(Cache &C, const RefSpan &S, ChainRun *Runs,
                         size_t NumRuns, unsigned P);

  /// Adds \p SetRefs, a batch's references per set of the largest link,
  /// to the BlockRefs of every link of \p Links, then zeroes it.
  static void foldSetRefs(std::span<Cache *const> Links,
                          std::span<uint64_t> SetRefs);
};

} // namespace gcache

#endif // GCACHE_MEMSYS_BATCHKERNEL_H
