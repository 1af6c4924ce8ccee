//===- BatchKernel.h - Columnar batch-mode cache simulation -----*- C++ -*-===//
//
// Part of the gcache project (Reinhold, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hot path of the cache bank. Two kernels take a whole columnar
/// batch (trace/Event.h RefColumns):
///
///  - runChain simulates an inclusion chain: the direct-mapped write-back
///    caches of one block size and policy, smallest first, with or
///    without per-block statistics. The smallest link sees every
///    reference; each larger link sees only the same-block runs the link
///    before it could not prove to be no-ops. This is the path of the
///    paper grid and of every size sweep.
///  - run simulates one cache in a tight, branch-light loop: policy flags
///    are hoisted, counters live in locals, the direct-mapped case skips
///    the way scan, and the address decomposition is precomputed once per
///    batch in a BatchIndex shared by every solo cache with that block
///    size. Associative, write-through and cross-checked caches take it.
///
/// Correctness contract: both are *bit-identical* to feeding the same
/// references through Cache::access one at a time — same counters, same
/// line array (tags, valid masks, store masks, LRU stamps), same LRU
/// clock, same per-block statistics. Batch segmentation is unobservable:
/// any way of cutting a stream into batches produces the same final
/// state, so checkpoint cuts and cancellation drains at batch boundaries
/// stay bit-exact, and a cache may move between a chain and a solo run
/// from one batch to the next. tests/test_batch_kernel.cpp holds the
/// differential proof against both Cache::access and OracleCache across
/// the write-policy x associativity x block-size matrix and over chains.
///
/// With a shadow oracle attached (Cache::enableCrossCheck), run feeds
/// that cache through Cache::access so the oracle sees every reference in
/// lockstep: --crosscheck trades speed for validation.
///
//===----------------------------------------------------------------------===//

#ifndef GCACHE_MEMSYS_BATCHKERNEL_H
#define GCACHE_MEMSYS_BATCHKERNEL_H

#include "gcache/support/Status.h"
#include "gcache/trace/Event.h"

#include <span>
#include <vector>

namespace gcache {

class Cache;

/// Per-batch scratch space holding the precomputed address columns of one
/// RefColumns batch for one block size. Computed lazily on first use and
/// reused across the caches of a lane, which all share that block size
/// (and across batches — reset() keeps the allocations). Not thread-safe:
/// each CacheBank lane owns its own BatchIndex.
class BatchIndex {
public:
  /// The decomposed address columns for one block size, plus the batch's
  /// same-block run structure. A *run* is a maximal sequence of
  /// consecutive references to the same block: the kernel locates the
  /// cache line once per run instead of once per reference, and a run
  /// whose tail holds only stores collapses to a single OR of the
  /// precomputed store mask (stores only ever OR word bits, so the order
  /// inside the tail is unobservable). Runs depend only on the block
  /// size, so like the address columns they are computed once per batch
  /// and shared by every cache configuration with that block size.
  struct BlockColumns {
    /// Bit 31 of a RunPacked entry: the run's tail (every reference
    /// after the first) contains at least one load, so the kernel must
    /// walk it reference by reference for sub-block validity.
    static constexpr uint32_t RunHasTailLoad = 1u << 31;
    /// Bit 30: the run's first reference is a store.
    static constexpr uint32_t RunFirstIsStore = 1u << 30;
    /// Bit 29: the run's first reference is a collector reference.
    static constexpr uint32_t RunFirstCollector = 1u << 29;
    /// Low 29 bits: the run length. Bounds the batch size the kernel
    /// accepts (BatchKernel::validate rejects larger batches); every
    /// producer in the tree caps batches far below this.
    static constexpr uint32_t RunLenMask = RunFirstCollector - 1;

    uint32_t BlockBytes = 0;
    /// Number of runs in this batch; only the first NumRuns entries of
    /// the per-run columns below are meaningful. The vectors are kept at
    /// their high-water size (one slot per reference, worst case) so
    /// rebuilding a batch writes through raw pointers with no capacity
    /// checks and no value-initialization pass.
    size_t NumRuns = 0;
    // Per-run columns: everything the kernel needs for a store-only run
    // or a singleton load, so the common case streams four run-indexed
    // arrays and never touches per-reference data. Only the rare tail-
    // with-loads walk goes back to the batch's own reference columns
    // (re-deriving word bits from raw addresses costs two ALU ops and
    // saves materializing two N-element arrays per block size).
    std::vector<uint32_t> RunPacked;    ///< Length | flag bits above.
    std::vector<uint32_t> RunBlockIdx;  ///< The run's block index.
    std::vector<uint64_t> FirstWordBit; ///< Word bit of the first reference.
    std::vector<uint64_t> StoreMask;    ///< OR of the run's stores' word bits.
  };

  /// Batch-level reference tallies, independent of any cache
  /// configuration: loads and stores per phase (index 0 mutator,
  /// 1 collector). Computed once per batch and added to every cache's
  /// counters in bulk, so the inner loop never counts plain references.
  struct RefTally {
    uint64_t Loads[2] = {0, 0};
    uint64_t Stores[2] = {0, 0};
  };

  /// Points the index at a new batch and invalidates the cached columns
  /// (their storage is kept for reuse). The batch must outlive all
  /// columnsFor() calls made against it.
  void reset(const RefColumns *B) {
    Batch = B;
    TallyValid = false;
    Columns.BlockBytes = 0;
  }

  const RefColumns *batch() const { return Batch; }

  /// The decomposed columns of the current batch for \p BlockBytes (a
  /// power of two), computing them on first request. A request for
  /// another block size recomputes the columns in place.
  const BlockColumns &columnsFor(uint32_t BlockBytes);

  /// The current batch's per-phase load/store tallies, computed on first
  /// request.
  const RefTally &tally();

private:
  const RefColumns *Batch = nullptr;
  BlockColumns Columns;
  RefTally Tally;
  bool TallyValid = false;
};

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

/// Stateless entry points of the batch-mode simulator.
class BatchKernel {
public:
  /// Simulates every reference of \p Batch against \p C, in order,
  /// bit-identically to per-reference Cache::access. \p Index must have
  /// been reset() to \p Batch (it caches the shared address columns).
  /// With a shadow oracle attached to \p C this falls back to the scalar
  /// path, so a hit-class divergence throws StatusError(Divergence) from
  /// inside the batch exactly as it would per-reference.
  static void run(Cache &C, const RefColumns &Batch, BatchIndex &Index);

  /// True when \p C can be a link of a chain: direct-mapped, write-back,
  /// no shadow oracle attached.
  static bool chainable(const Cache &C);

  /// True when chainable caches \p A and \p B may share one chain: the
  /// same block size, write-miss policy, collector fetch-on-write and
  /// per-block statistics flag.
  static bool sameChain(const Cache &A, const Cache &B);

  /// Simulates \p Batch against an inclusion chain: \p Links are
  /// chainable caches sharing one chain (sameChain), in ascending size.
  /// Each link ends bit-identical to a run() call of its own, per-block
  /// statistics included.
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
  static void runChain(std::span<Cache *const> Links, const RefColumns &Batch,
                       std::vector<ChainRun> &Survivors,
                       std::vector<uint64_t> &SetRefs);

  /// Screens untrusted columnar input: the three columns must be the same
  /// length and every Kind/PhaseTag byte must be a valid enumerator.
  /// Columns built by RefColumns::push_back or decoded by the trace layer
  /// always pass; a mutated batch that fails must be rejected, never fed
  /// to run() (the property tests prove reject-or-process-identically).
  static Status validate(const RefColumns &Batch);

private:
  /// References the first link of a chain consumes per pass. The
  /// survivor buffer holds one ChainRun per reference of a pass, so it
  /// stays at 256 KB whatever the batch size; passes of 4-8 K references
  /// measured fastest (1 K to whole 256 K batches were tried).
  static constexpr size_t ChainChunkRefs = 8 * 1024;

  /// \p Mixed selects the phase handling: a batch whose tally shows
  /// references of both phases pays for per-reference phase-indexed
  /// counters; a single-phase batch (the overwhelmingly common case —
  /// CacheBank flushes at GC boundaries) keeps its event counters in
  /// scalar locals and folds them into Counts[BatchPhase] once at the
  /// end. BatchPhase is ignored when Mixed.
  template <bool DirectMapped, bool PerBlock, bool Mixed>
  static void runLoop(Cache &C, const RefColumns &Batch,
                      const BatchIndex::BlockColumns &Cols,
                      const BatchIndex::RefTally &Tally, unsigned BatchPhase);

  /// runChain over rows [\p Begin, \p End) of one phase \p P, whose
  /// write-miss decision is \p FetchOnWrite, a chunk at a time. With
  /// \p PerBlock the links keep per-block statistics and \p SetRefs is
  /// the chain's reference histogram.
  template <bool FetchOnWrite, bool PerBlock>
  static void runSegment(std::span<Cache *const> Links,
                         const RefColumns &Batch, size_t Begin, size_t End,
                         unsigned P, ChainRun *Runs,
                         std::span<uint64_t> SetRefs);

  /// The first link of a chain over rows [\p Begin, \p End) of one
  /// phase \p P: splits them into runs, simulates each, and (with
  /// \p Emit) writes the runs it cannot prove to be no-ops to \p Out.
  /// Returns the number written; adds the rows' stores to \p Stores and
  /// (with \p PerBlock) each run's length to its set of \p SetRefs.
  template <bool FetchOnWrite, bool Emit, bool PerBlock>
  static size_t firstLink(Cache &C, const RefColumns &Batch, size_t Begin,
                          size_t End, unsigned P, ChainRun *Out,
                          uint64_t &Stores, std::span<uint64_t> SetRefs);

  /// A larger link: simulates the \p NumRuns runs of \p Runs, keeping
  /// (with \p Emit) those it cannot prove to be no-ops at the front of
  /// \p Runs. Returns how many it kept.
  template <bool FetchOnWrite, bool Emit, bool PerBlock>
  static size_t nextLink(Cache &C, const RefColumns &Batch, ChainRun *Runs,
                         size_t NumRuns, unsigned P);

  /// Adds \p SetRefs, a batch's references per set of the largest link,
  /// to the BlockRefs of every link of \p Links, then zeroes it.
  static void foldSetRefs(std::span<Cache *const> Links,
                          std::span<uint64_t> SetRefs);
};

} // namespace gcache

#endif // GCACHE_MEMSYS_BATCHKERNEL_H
