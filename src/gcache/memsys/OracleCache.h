//===- OracleCache.h - Obviously-correct reference cache model --*- C++ -*-===//
//
// Part of the gcache project (Reinhold, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An intentionally simple reference implementation of the cache model,
/// used as a shadow oracle for differential validation (--crosscheck).
/// Where Cache is written for throughput (stamp-based LRU over a flat line
/// array, shift/mask address math), OracleCache is written for obviousness:
/// each set is a list of resident lines kept literally in LRU order, and
/// the address arithmetic is plain division and modulus. The two models
/// share no code beyond the configuration and counter structs, so a bug in
/// the fast path cannot hide in the oracle.
///
/// The paper's conclusions are pure counter arithmetic over this model
/// (fetch vs. no-fetch misses per phase), so running the oracle in
/// lockstep against every optimized path — inclusion chains and the span
/// walker (BatchKernel), threaded CacheBank lanes, checkpoint-restored
/// state, the multi-level hierarchy — turns a silent counter bug into an
/// immediate, attributable divergence report. A cross-checked cache
/// keeps its path and feeds its oracle the references that path has just
/// simulated (Cache::enableCrossCheck).
///
//===----------------------------------------------------------------------===//

#ifndef GCACHE_MEMSYS_ORACLECACHE_H
#define GCACHE_MEMSYS_ORACLECACHE_H

#include "gcache/memsys/Cache.h"

#include <string>
#include <vector>

namespace gcache {

/// The reference model. Not a TraceSink on purpose: it is only ever driven
/// in lockstep by the model it shadows.
class OracleCache {
public:
  explicit OracleCache(const CacheConfig &Config);

  const CacheConfig &config() const { return Config; }

  /// Simulates one reference and returns its outcome.
  AccessResult access(const Ref &R);

  /// Resets contents and statistics to the post-construction state.
  void reset();

  const CacheCounters &counters(Phase P) const {
    return Counts[static_cast<unsigned>(P)];
  }
  CacheCounters totalCounters() const;

  /// One resident line, independent of its recency position.
  struct LineState {
    uint32_t Tag = 0;
    uint64_t ValidMask = 0;
    bool Dirty = false;

    bool operator==(const LineState &O) const {
      return Tag == O.Tag && ValidMask == O.ValidMask && Dirty == O.Dirty;
    }
  };

  uint32_t numSets() const { return static_cast<uint32_t>(Sets.size()); }

  /// Resident lines of one set in LRU order (least recently used first).
  const std::vector<LineState> &set(uint32_t SetIdx) const {
    return Sets[SetIdx];
  }

  /// Replaces one set's contents (\p Lines in least-recently-used-first
  /// order). Used to resynchronize the oracle after the shadowed cache
  /// restores itself from a checkpoint.
  void restoreSet(uint32_t SetIdx, std::vector<LineState> Lines);
  void setCounters(Phase P, const CacheCounters &C) {
    Counts[static_cast<unsigned>(P)] = C;
  }

  /// Human-readable dump of one set ("way0: tag 0x12 valid 0x0f dirty"),
  /// LRU first, for divergence reports.
  std::string dumpSet(uint32_t SetIdx) const;

private:
  CacheConfig Config;
  uint32_t NumSets;
  uint32_t WordsPerBlock;
  /// Sets[s] holds the resident lines of set s in true LRU order: front is
  /// the eviction victim, back is the most recently used.
  std::vector<std::vector<LineState>> Sets;
  CacheCounters Counts[2];
};

} // namespace gcache

#endif // GCACHE_MEMSYS_ORACLECACHE_H
