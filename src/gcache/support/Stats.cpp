//===- Stats.cpp - Running statistics and distributions -------------------===//

#include "gcache/support/Stats.h"
#include "gcache/support/Table.h"

#include <bit>
#include <cassert>

using namespace gcache;

void RunningStats::add(double X) {
  if (N == 0) {
    Lo = Hi = X;
  } else {
    if (X < Lo)
      Lo = X;
    if (X > Hi)
      Hi = X;
  }
  ++N;
  Sum += X;
}

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

std::string
Log2Histogram::renderCumulative(const std::vector<uint64_t> &Probes) const {
  std::string Out;
  for (uint64_t P : Probes) {
    Out += "x<=";
    Out += fmtCount(P);
    Out += ": ";
    Out += fmtDouble(cumulativeFractionAt(P), 4);
    Out += '\n';
  }
  return Out;
}
