//===- CacheTestPeer.h - Deliberate state corruption for tests --*- C++ -*-===//
//
// Part of the gcache project (Reinhold, PLDI 1994 reproduction).
//
// The mutation tests (tests/test_selfcheck.cpp) must prove that the
// shadow oracle and the state auditor actually catch broken simulator
// state, which requires breaking it on purpose. This friend peer is the
// only sanctioned way to reach Cache internals from outside; production
// code must never include it.
//
//===----------------------------------------------------------------------===//

#ifndef GCACHE_TESTS_CACHETESTPEER_H
#define GCACHE_TESTS_CACHETESTPEER_H

#include "gcache/memsys/Cache.h"

namespace gcache {

class CacheTestPeer {
public:
  using Line = Cache::Line;

  static size_t numLines(const Cache &C) { return C.Lines.size(); }
  static Line &line(Cache &C, size_t I) { return C.Lines[I]; }
  static Line *setBase(Cache &C, uint32_t SetIdx) { return C.setBase(SetIdx); }
  static uint64_t &lruClock(Cache &C) { return C.LruClock; }
  static CacheCounters &counters(Cache &C, Phase P) {
    return C.Counts[static_cast<unsigned>(P)];
  }
  static std::vector<uint64_t> &blockMisses(Cache &C) { return C.BlockMisses; }

  // Read-only views for the bit-identity comparisons of the batch-kernel
  // differential tests (tests/test_batch_kernel.cpp): two caches are in
  // the same state iff clock, line array, counters, and per-block stats
  // all match exactly.
  static const std::vector<Line> &lines(const Cache &C) { return C.Lines; }
  static uint64_t lruClockOf(const Cache &C) { return C.LruClock; }
  static bool sameLine(const Line &A, const Line &B) {
    return A.Tag == B.Tag && A.ValidMask == B.ValidMask &&
           A.StoreMask == B.StoreMask && A.LruStamp == B.LruStamp;
  }
};

} // namespace gcache

#endif // GCACHE_TESTS_CACHETESTPEER_H
