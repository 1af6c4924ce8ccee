//===- MultiLevelCache.h - Two-level cache hierarchies ----------*- C++ -*-===//
//
// Part of the gcache project (Reinhold, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's §4 explicitly defers multi-level caches to future work
/// ("The results reported here are expected to extend to the two- and
/// even three-level caches that are becoming common"). This module
/// implements that extension: a two-level data-cache hierarchy with a
/// small, fast L1 backed by a large L2, both direct-mapped (or N-way),
/// with write-validate semantics at each level.
///
/// Model: every reference probes L1; an L1 fetch miss probes L2; an L2
/// fetch miss goes to main memory. Misses that write-validate (allocate
/// without fetching) at L1 do not touch L2. L1 dirty evictions write
/// into L2 (making the L2 line dirty); L2 dirty evictions count as
/// writebacks to memory. The temporal model charges an L1 miss penalty
/// for L1→L2 fills and the full Przybylski memory penalty for L2 misses:
///
///   O_cache2 = (M_L1 * P_L2hit + M_L2 * P_mem) / I
///
/// where P_L2hit is the L2 access time in cycles.
///
//===----------------------------------------------------------------------===//

#ifndef GCACHE_MEMSYS_MULTILEVELCACHE_H
#define GCACHE_MEMSYS_MULTILEVELCACHE_H

#include "gcache/memsys/Cache.h"
#include "gcache/memsys/MemoryTiming.h"

namespace gcache {

/// Timing for the L1<->L2 path.
struct L2Timing {
  /// L2 access time in nanoseconds (SRAM-class; default 4x the processor
  /// cycle of the fast machine).
  uint32_t AccessNs = 24;

  /// Cycles to fill an L1 block from L2.
  uint64_t l2HitCycles(uint32_t CycleNs, uint32_t L1BlockBytes) const {
    // Access plus one cycle per 16 bytes transferred on-chip.
    uint64_t Ns = AccessNs + (L1BlockBytes + 15) / 16 * CycleNs;
    return (Ns + CycleNs - 1) / CycleNs;
  }
};

/// A two-level hierarchy. Also a TraceSink.
class MultiLevelCache final : public TraceSink {
public:
  /// L2's block size must be >= L1's (inclusive hierarchies fetch whole
  /// L2 blocks on the way in).
  MultiLevelCache(const CacheConfig &L1Config, const CacheConfig &L2Config);

  void onRef(const Ref &R) override { (void)access(R); }
  void onRefs(const RefSpan &S) override {
    for (size_t I = 0; I != S.size(); ++I)
      onRef(S[I]);
  }

  /// Simulates one reference through both levels; returns the deepest
  /// level that missed: 0 = L1 hit, 1 = filled from L2, 2 = memory.
  int access(const Ref &R);

  const Cache &l1() const { return L1; }
  const Cache &l2() const { return L2; }

  /// Attaches shadow oracles to both levels (--crosscheck). The oracles
  /// follow each level's own reference stream (L2 sees only L1 fill
  /// loads), so the hierarchy's routing is validated as well.
  void enableCrossCheck() {
    L1.enableCrossCheck();
    L2.enableCrossCheck();
  }

  /// Deep comparison of both levels against their oracles, plus the
  /// hierarchy's own conservation law: every L1 fetch miss fills from L2,
  /// and every L2 fetch miss reaches memory.
  Status crossCheckNow() const;

  /// Internal-consistency audit of both levels and the fill counters.
  Status auditState() const;

  /// Fetch misses that were satisfied by L2.
  uint64_t l1FillsFromL2() const { return FillsFromL2; }
  /// Fetch misses that went to main memory.
  uint64_t memoryFetches() const { return MemoryFetches; }

  /// Combined overhead for a processor (see file comment). \p Instructions
  /// is the program's instruction count.
  double overhead(const MemoryTiming &Mem, const ProcessorModel &Proc,
                  const L2Timing &L2T, uint64_t Instructions) const;

private:
  Status auditFillCounters() const;

  Cache L1;
  Cache L2;
  uint64_t FillsFromL2 = 0;
  uint64_t MemoryFetches = 0;
};

} // namespace gcache

#endif // GCACHE_MEMSYS_MULTILEVELCACHE_H
