//===- CacheConfig.h - Cache geometry and policies --------------*- C++ -*-===//
//
// Part of the gcache project (Reinhold, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cache configuration covering the design space of the paper's §4:
/// virtually-indexed caches from 32 KB to 4 MB, block (= fetch) sizes from
/// 16 to 256 bytes, direct-mapped by default (generalized to N-way LRU for
/// the associativity ablation), with write-validate or fetch-on-write
/// write-miss policies.
///
/// Two policies are fixed properties of the model, not options. Every
/// cache is write-back: a store marks its block dirty, and memory is
/// written only when a dirty block is evicted. And a write miss while the
/// collector runs always fetches, whatever the write-miss policy, because
/// the paper's simulator charges fetch-on-write during collection (§6
/// footnote: "this graph slightly over-reports collection overheads").
///
//===----------------------------------------------------------------------===//

#ifndef GCACHE_MEMSYS_CACHECONFIG_H
#define GCACHE_MEMSYS_CACHECONFIG_H

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace gcache {

/// What happens on a mutator write miss (§4). WriteValidate allocates the
/// block without fetching and validates only the written word (sub-block
/// size of one word); FetchOnWrite fetches the whole memory block first.
/// A collector write miss fetches under either policy.
enum class WriteMissPolicy : uint8_t { WriteValidate, FetchOnWrite };

/// Static description of one simulated data cache.
struct CacheConfig {
  uint32_t SizeBytes = 64 * 1024;
  uint32_t BlockBytes = 64;
  uint32_t Ways = 1; // 1 = direct-mapped, the paper's focus.
  WriteMissPolicy WriteMiss = WriteMissPolicy::WriteValidate;
  /// When true the cache keeps per-cache-block reference and miss counts
  /// (needed for the §7 local-miss-ratio figures; costs memory/time).
  bool TrackPerBlockStats = false;

  uint32_t numBlocks() const { return SizeBytes / BlockBytes; }
  uint32_t numSets() const { return numBlocks() / Ways; }
  uint32_t wordsPerBlock() const { return BlockBytes / 4; }

  /// Checks the invariants the simulator relies on (power-of-two geometry,
  /// block size between one word and 64 words so a uint64 valid mask works).
  bool isValid() const {
    auto Pow2 = [](uint32_t X) { return X != 0 && (X & (X - 1)) == 0; };
    return Pow2(SizeBytes) && Pow2(BlockBytes) && Pow2(Ways) &&
           BlockBytes >= 4 && BlockBytes <= 256 && Ways <= numBlocks() &&
           SizeBytes >= BlockBytes;
  }

  /// "64kb/64b/direct/wv" style label for tables.
  std::string label() const;
};

/// The paper's cache-size axis: 32 KB to 4 MB in powers of two (§4).
std::vector<uint32_t> paperCacheSizes();

/// The paper's block-size axis: 16 to 256 bytes in powers of two (§4).
std::vector<uint32_t> paperBlockSizes();

} // namespace gcache

#endif // GCACHE_MEMSYS_CACHECONFIG_H
