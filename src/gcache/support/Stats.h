//===- Stats.h - Log2-bucketed histogram ------------------------*- C++ -*-===//
//
// Part of the gcache project (Reinhold, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A log2-bucketed histogram. The paper's §7
/// lifetime graphs are cumulative frequency distributions over a
/// logarithmic x axis (1k, 32k, 1m, 32m, 1g references); Log2Histogram is
/// the data structure behind them.
///
//===----------------------------------------------------------------------===//

#ifndef GCACHE_SUPPORT_STATS_H
#define GCACHE_SUPPORT_STATS_H

#include <cstdint>
#include <vector>

namespace gcache {

/// Histogram over power-of-two buckets: bucket B counts samples X with
/// 2^B <= X < 2^(B+1); bucket 0 also holds X in {0, 1}.
class Log2Histogram {
public:
  Log2Histogram() : Buckets(64, 0) {}

  void add(uint64_t X);

  /// Total number of samples recorded.
  uint64_t total() const { return Total; }

  /// Number of samples strictly less than or equal to \p X (computed from
  /// bucket boundaries; exact only at powers of two minus one).
  uint64_t countAtOrBelowBucketOf(uint64_t X) const;

  /// Fraction of samples with value <= bucket-ceiling of \p X.
  double cumulativeFractionAt(uint64_t X) const;

  const std::vector<uint64_t> &buckets() const { return Buckets; }

private:
  std::vector<uint64_t> Buckets;
  uint64_t Total = 0;
};

} // namespace gcache

#endif // GCACHE_SUPPORT_STATS_H
