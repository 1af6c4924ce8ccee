//===- Cache.h - Trace-driven data-cache simulator --------------*- C++ -*-===//
//
// Part of the gcache project (Reinhold, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The trace-driven cache simulator behind every experiment. It models a
/// virtually-indexed, N-way (default direct-mapped) data cache with
/// word-granularity sub-block validity so that the write-validate policy of
/// §4 is exact: a write miss allocates the block without fetching and marks
/// only the written word valid; a later load of a still-invalid word is a
/// sub-block read miss that fetches the whole block.
///
/// Statistics are kept per execution phase (mutator vs. collector) so the
/// §6 accounting can separate the collector's misses (M_gc) and its effect
/// on the program's misses (ΔM_prog) from the control run. Misses are
/// divided into *fetch* misses (which stall the processor for the miss
/// penalty) and *no-fetch* write misses (write-validate allocations, which
/// do not stall); the §7 miss plots count both, while O_cache charges only
/// the former, following §5.
///
/// Every cache is write-back, and a collector write miss always fetches
/// (memsys/CacheConfig.h). A line holds its tag, the valid mask, and the
/// store mask: the words stored since the block was installed, so a line
/// is dirty iff that mask is nonzero. Direct-mapped caches of one block
/// size nest (a block resident in a smaller one is resident in every
/// larger one), and their store masks nest with them; the bank's
/// inclusion chains use that to skip references a smaller cache proves
/// change nothing in a larger one (memsys/BatchKernel.h). A skipped
/// reference is still counted in the larger cache's per-block
/// statistics: a chain folds the per-set reference counts of each batch
/// into every link. A span reaches any other cache through onRefs: every
/// cache outside the bank, and the bank's associative caches. onRefs runs
/// the walker of a chain's first link over it, one same-block run at a
/// time (BatchKernel::runSolo). access, whose per-reference body is
/// simulate, is the reference every span path is tested against. A
/// cross-checked cache keeps its path: after each chain batch, each span
/// and each access, its shadow oracle takes the references the cache has
/// just simulated, and the two models' counters must agree. Only
/// associative caches keep LRU stamps and a clock; no direct-mapped
/// victim choice reads them.
///
//===----------------------------------------------------------------------===//

#ifndef GCACHE_MEMSYS_CACHE_H
#define GCACHE_MEMSYS_CACHE_H

#include "gcache/memsys/CacheConfig.h"
#include "gcache/support/Status.h"
#include "gcache/trace/Event.h"

#include <memory>
#include <vector>

namespace gcache {

class OracleCache;
class SnapshotWriter;
class SnapshotCursor;

/// Outcome of one cache access.
enum class AccessResult : uint8_t {
  Hit,            ///< Word present; one-cycle access, no stall.
  FetchMiss,      ///< Memory block fetched; processor stalls for the penalty.
  NoFetchWriteMiss ///< Write-validate allocation; block claimed, no fetch.
};

/// Per-phase hit/miss counters.
struct CacheCounters {
  uint64_t Loads = 0;
  uint64_t Stores = 0;
  uint64_t FetchMisses = 0;   ///< Penalty-bearing misses (reads + FoW writes).
  uint64_t NoFetchMisses = 0; ///< Write-validate write misses (allocations).
  uint64_t Writebacks = 0;    ///< Dirty evictions.
  /// Always 0 (every cache is write-back); the benchmark's digest reads it.
  uint64_t WriteThroughs = 0;

  uint64_t refs() const { return Loads + Stores; }
  uint64_t allMisses() const { return FetchMisses + NoFetchMisses; }

  CacheCounters &operator+=(const CacheCounters &O) {
    Loads += O.Loads;
    Stores += O.Stores;
    FetchMisses += O.FetchMisses;
    NoFetchMisses += O.NoFetchMisses;
    Writebacks += O.Writebacks;
    WriteThroughs += O.WriteThroughs;
    return *this;
  }
};

/// One simulated cache. Also a TraceSink, so it can be wired directly onto
/// the trace bus of a program run.
class Cache final : public TraceSink {
public:
  explicit Cache(const CacheConfig &Config);

  const CacheConfig &config() const { return Config; }

  // Out-of-line (Cache.cpp) so the forward-declared OracleCache member is
  // complete where these are instantiated. Moves only; the shadow oracle
  // makes copying ambiguous (which model owns the comparison history?).
  Cache(Cache &&) noexcept;
  Cache &operator=(Cache &&) noexcept;
  ~Cache() override;

  /// Simulates one reference and returns its outcome. With a shadow oracle
  /// attached (enableCrossCheck), the oracle then takes the reference too
  /// and the two models' counters must agree.
  AccessResult access(const Ref &R);

  /// TraceSink entry point: simulate and discard the outcome.
  void onRef(const Ref &R) override { (void)access(R); }
  /// Simulates a span one same-block run at a time
  /// (BatchKernel::runSolo), then checks it against a shadow oracle as
  /// access does. This is also how the bank runs an associative cache
  /// (memsys/ShardPool.h).
  void onRefs(const RefSpan &S) override;

  /// Resets contents and statistics to the post-construction state.
  void reset();

  /// Counters for one phase, and their sum.
  const CacheCounters &counters(Phase P) const {
    return Counts[static_cast<unsigned>(P)];
  }
  CacheCounters totalCounters() const;

  /// Per-cache-block statistics (valid only with TrackPerBlockStats). The
  /// index is the cache block index 0..numBlocks()-1; for N-way caches a
  /// "block" here is a set.
  const std::vector<uint64_t> &perBlockRefs() const { return BlockRefs; }
  const std::vector<uint64_t> &perBlockMisses() const { return BlockMisses; }
  /// Per-cache-block misses excluding write-validate allocation misses, as
  /// used by the paper's local-miss-ratio graphs ("excluding allocation
  /// misses").
  const std::vector<uint64_t> &perBlockFetchMisses() const {
    return BlockFetchMisses;
  }

  /// Cache block (set) index a byte address maps to.
  uint32_t setIndexOf(Address Addr) const {
    return (Addr >> BlockShift) & SetMask;
  }

  /// Appends geometry, line array, counters, and per-block statistics to an
  /// open snapshot section (the owner frames the section).
  void saveState(SnapshotWriter &W) const;
  /// Restores the state written by saveState. Validates that the stored
  /// geometry matches this cache's configuration before touching anything;
  /// mismatches and decode failures latch in \p C. With a shadow oracle
  /// attached, the oracle is resynchronized to the restored state, so a
  /// resumed --crosscheck run stays in lockstep.
  void loadState(SnapshotCursor &C);

  //===--- Self-validation (--crosscheck / --audit) ----------------------===//

  /// Attaches a shadow OracleCache (memsys/OracleCache.h). Wherever this
  /// cache simulates references (access, onRefs, a chain batch), the
  /// oracle then takes them too, and every counter of both phases must
  /// agree, else StatusError(Divergence) (compareWithShadow). The shadow
  /// is synchronized to the current contents, so it may be attached to a
  /// warm cache.
  void enableCrossCheck();
  bool crossCheckEnabled() const { return Shadow != nullptr; }

  /// Deep comparison against the shadow: every counter of both phases,
  /// then full set-by-set contents in LRU order. Called at flush points
  /// and GC boundaries (CacheBank::flush) and at end of run. Ok when no
  /// shadow is attached.
  Status crossCheckNow() const;

  /// Internal-consistency audit: LRU stamps unique and bounded by the
  /// clock, valid masks within the block's words, store masks within the
  /// valid masks, per-block statistics summing to the global counters,
  /// and the write-policy conservation laws (no write-throughs, and
  /// no-fetch misses only in the mutator phase of a write-validate
  /// cache). Returns AuditFailure describing the first violated law.
  Status auditState() const;

  /// The inclusion law of an inclusion chain (BatchKernel::runChain), with
  /// this cache as the smaller of two of its links: every block resident
  /// here is resident in \p Larger, and its store mask here is a subset of
  /// its store mask there. Both caches must be direct-mapped with one
  /// block size. Returns AuditFailure naming the first block that breaks
  /// the law.
  Status auditInclusionIn(const Cache &Larger) const;

private:
  friend class CacheTestPeer; ///< Mutation tests corrupt state on purpose.
  /// The span walker mirrors simulate() and feeds the shadow oracle.
  friend class BatchKernel;

  struct Line {
    uint32_t Tag = 0;
    uint64_t ValidMask = 0; ///< Bit per word; 0 means the line is empty.
    /// Bit per word stored since the block was installed, so the line is
    /// dirty iff it is nonzero; always a subset of ValidMask. A smaller
    /// cache's mask is a subset of a larger one's for the same block,
    /// which is what lets a chain skip no-op runs (BatchKernel::runChain).
    uint64_t StoreMask = 0;
    /// Recency of the line in its set; written only when Ways > 1 (no
    /// direct-mapped victim choice reads it, so those lines keep 0 and
    /// the clock stays at 0). 64-bit so long sweeps can never wrap the
    /// recency order (a 32-bit stamp wraps after 2^32 references and
    /// corrupts LRU in associative configurations).
    uint64_t LruStamp = 0;

    bool dirty() const { return StoreMask != 0; }
  };

  /// The per-reference simulation body of access. The policy tests it
  /// would otherwise make on every reference are template parameters;
  /// each cache picks its instantiation once, at construction (Shape).
  template <bool DirectMapped, bool PerBlock>
  AccessResult simulate(const Ref &R);
  /// Shape bits: which instantiation of simulate a cache takes.
  static constexpr uint8_t ShapeDirect = 1, ShapePerBlock = 2;

  Line *setBase(uint32_t SetIdx) { return &Lines[SetIdx * Config.Ways]; }
  const Line *setBase(uint32_t SetIdx) const {
    return &Lines[SetIdx * Config.Ways];
  }
  /// The way of associative set \p SetIdx holding \p Tag, or null. On a
  /// miss, \p Victim is the way to fill: the last empty way of the set,
  /// else the one with the least stamp. Defined below, so simulate and
  /// the walker (BatchKernel) share it.
  Line *findWay(uint32_t SetIdx, uint32_t Tag, Line *&Victim);
  void resyncShadow();
  /// Feeds the shadow \p S, which this cache has just simulated, and
  /// throws StatusError(Divergence) unless the counters agree.
  void checkShadow(const RefSpan &S);
  /// The first disagreement with the shadow, or Ok: a counter, reported
  /// with both models' dumps of the first set whose contents differ, or
  /// (with \p Contents) such a set.
  Status compareWithShadow(bool Contents) const;
  /// The first set whose contents differ from the shadow's, or numSets().
  uint32_t firstDivergentSet() const;
  std::string dumpSet(uint32_t SetIdx) const;

  CacheConfig Config;
  uint8_t Shape;
  uint32_t SetMask;
  uint32_t SetShift; ///< log2(numSets): a block index's tag is above it.
  uint32_t BlockShift;
  uint64_t FullMask;
  uint64_t LruClock = 0;
  std::vector<Line> Lines;
  CacheCounters Counts[2];
  std::vector<uint64_t> BlockRefs;
  std::vector<uint64_t> BlockMisses;
  std::vector<uint64_t> BlockFetchMisses;
  std::unique_ptr<OracleCache> Shadow; ///< Null unless cross-checking.
  /// References the shadow took since it attached or the cache was reset.
  uint64_t ShadowRefs = 0;
};

[[gnu::always_inline]] inline Cache::Line *
Cache::findWay(uint32_t SetIdx, uint32_t Tag, Line *&Victim) {
  Line *Set = setBase(SetIdx);
  Victim = Set;
  for (uint32_t W = 0; W != Config.Ways; ++W) {
    Line &L = Set[W];
    if (L.ValidMask != 0 && L.Tag == Tag)
      return &L;
    if (L.ValidMask == 0) {
      Victim = &L; // Prefer an empty way.
    } else if (Victim->ValidMask != 0 && L.LruStamp < Victim->LruStamp) {
      Victim = &L;
    }
  }
  return nullptr;
}

} // namespace gcache

#endif // GCACHE_MEMSYS_CACHE_H
