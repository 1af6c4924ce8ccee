//===- Stats.cpp - Log2-bucketed histogram --------------------------------===//

#include "gcache/support/Stats.h"

#include <bit>

using namespace gcache;

static unsigned bucketOf(uint64_t X) {
  if (X < 2)
    return 0;
  return std::bit_width(X) - 1;
}

void Log2Histogram::add(uint64_t X) {
  ++Buckets[bucketOf(X)];
  ++Total;
}

uint64_t Log2Histogram::countAtOrBelowBucketOf(uint64_t X) const {
  unsigned B = bucketOf(X);
  uint64_t Count = 0;
  for (unsigned I = 0; I <= B; ++I)
    Count += Buckets[I];
  return Count;
}

double Log2Histogram::cumulativeFractionAt(uint64_t X) const {
  if (Total == 0)
    return 0.0;
  return static_cast<double>(countAtOrBelowBucketOf(X)) /
         static_cast<double>(Total);
}
