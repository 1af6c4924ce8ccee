//===- MissPlot.h - Time x cache-block miss plots ---------------*- C++ -*-===//
//
// Part of the gcache project (Reinhold, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The §7 cache-miss plot: a dot at (x, y) when at least one miss occurred
/// in cache block y during the x-th 1024-reference interval. On such a
/// plot linear allocation appears as broken diagonal lines — the
/// allocation pointer sweeping the cache — and thrashing busy blocks as
/// horizontal stripes. Rendered as ASCII art (downsampled) or PGM.
///
/// The plot keeps one bit per (column, cache block), column after column
/// in one array. A column exists for every RefsPerColumn references seen,
/// the last one possibly partial, whether or not a miss landed in it.
///
//===----------------------------------------------------------------------===//

#ifndef GCACHE_ANALYSIS_MISSPLOT_H
#define GCACHE_ANALYSIS_MISSPLOT_H

#include "gcache/memsys/Cache.h"

#include <string>
#include <vector>

namespace gcache {

/// TraceSink owning a cache and recording when/where misses occur.
class MissPlot final : public TraceSink {
public:
  /// \p RefsPerColumn is the paper's 1024-reference time bucket.
  explicit MissPlot(const CacheConfig &Config, uint32_t RefsPerColumn = 1024);

  void onRef(const Ref &R) override;
  void onRefs(const RefSpan &S) override;

  const Cache &cache() const { return Sim; }
  /// Time columns: ceil(refsSeen() / refsPerColumn()).
  uint64_t columns() const { return Columns; }
  uint64_t refsSeen() const {
    return Columns * RefsPerColumn - ColumnRefsLeft;
  }
  uint32_t refsPerColumn() const { return RefsPerColumn; }

  /// Attaches a shadow oracle to the owned cache (--crosscheck).
  void enableCrossCheck() { Sim.enableCrossCheck(); }

  /// Whether any miss hit (column, cache block).
  bool missedAt(uint64_t Column, uint32_t Block) const;

  /// ASCII rendering downsampled to at most MaxCols x MaxRows characters;
  /// '*' marks a miss cell, '.' none. Row 0 is cache block 0 (top).
  std::string renderAscii(uint32_t MaxCols = 96, uint32_t MaxRows = 32) const;

  /// Binary PGM (P5) image, one pixel per (column, block).
  std::string renderPgm() const;

  /// Fraction of plot cells containing at least one miss.
  double fillFraction() const;

  /// Always false (the time axis is exact); perfbench's section7 checks it.
  bool degraded() const { return false; }

private:
  bool bit(uint64_t Column, uint32_t Block) const {
    return Bits[Column * WordsPerColumn + Block / 64] >> (Block % 64) & 1;
  }

  Cache Sim;
  uint32_t RefsPerColumn;
  uint32_t NumBlocks;
  uint32_t WordsPerColumn; ///< ceil(NumBlocks / 64).
  uint64_t Columns = 0;
  /// References left before the next column starts (0: start one).
  uint32_t ColumnRefsLeft = 0;
  /// One bit per cache block, WordsPerColumn words per time column.
  std::vector<uint64_t> Bits;
};

} // namespace gcache

#endif // GCACHE_ANALYSIS_MISSPLOT_H
