//===- test_support.cpp - Support-library unit tests --------------------------===//

#include "gcache/support/Options.h"
#include "gcache/support/Random.h"
#include "gcache/support/Stats.h"
#include "gcache/support/Table.h"

#include <gtest/gtest.h>

#include <set>

using namespace gcache;

TEST(Rng, DeterministicForSeed) {
  Rng A(123), B(123);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  int Same = 0;
  for (int I = 0; I != 64; ++I)
    Same += A.next() == B.next();
  EXPECT_LT(Same, 2);
}

TEST(Rng, BelowInRange) {
  Rng R(7);
  for (int I = 0; I != 1000; ++I)
    EXPECT_LT(R.below(17), 17u);
}

TEST(Rng, BelowCoversRange) {
  Rng R(9);
  std::set<uint64_t> Seen;
  for (int I = 0; I != 500; ++I)
    Seen.insert(R.below(8));
  EXPECT_EQ(Seen.size(), 8u);
}

TEST(Rng, RangeInclusive) {
  Rng R(11);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I != 2000; ++I) {
    int64_t V = R.range(-3, 3);
    EXPECT_GE(V, -3);
    EXPECT_LE(V, 3);
    SawLo |= V == -3;
    SawHi |= V == 3;
  }
  EXPECT_TRUE(SawLo && SawHi);
}

TEST(Rng, UnitInHalfOpenInterval) {
  Rng R(13);
  for (int I = 0; I != 1000; ++I) {
    double U = R.unit();
    EXPECT_GE(U, 0.0);
    EXPECT_LT(U, 1.0);
  }
}

TEST(Table, AlignsColumns) {
  Table T({"name", "value"});
  T.addRow({"x", "1"});
  T.addRow({"longer", "22"});
  std::string S = T.toString();
  EXPECT_NE(S.find("name"), std::string::npos);
  EXPECT_NE(S.find("longer"), std::string::npos);
  // Each line has the same width.
  size_t FirstNl = S.find('\n');
  EXPECT_NE(FirstNl, std::string::npos);
}

TEST(Table, CsvOutput) {
  Table T({"a", "b"});
  T.addRow({"1", "2"});
  EXPECT_EQ(T.toCsv(), "a,b\n1,2\n");
}

TEST(TableFmt, FmtSize) {
  EXPECT_EQ(fmtSize(64 * 1024), "64kb");
  EXPECT_EQ(fmtSize(4 * 1024 * 1024), "4mb");
  EXPECT_EQ(fmtSize(16), "16b");
  EXPECT_EQ(fmtSize(1ull << 30), "1gb");
}

TEST(TableFmt, FmtCount) {
  EXPECT_EQ(fmtCount(42), "42");
  EXPECT_EQ(fmtCount(3680000000ull), "3.68e9");
}

TEST(TableFmt, FmtPercent) {
  EXPECT_EQ(fmtPercent(0.0497), "4.97%");
  EXPECT_EQ(fmtPercent(-0.012), "-1.20%");
}

TEST(RunningStats, Basic) {
  RunningStats S;
  S.add(1);
  S.add(3);
  S.add(2);
  EXPECT_EQ(S.count(), 3u);
  EXPECT_DOUBLE_EQ(S.mean(), 2.0);
  EXPECT_DOUBLE_EQ(S.min(), 1.0);
  EXPECT_DOUBLE_EQ(S.max(), 3.0);
}

TEST(Log2Histogram, BucketsAndCumulative) {
  Log2Histogram H;
  H.add(0);
  H.add(1);
  H.add(2);
  H.add(1000);
  EXPECT_EQ(H.total(), 4u);
  EXPECT_DOUBLE_EQ(H.cumulativeFractionAt(1), 0.5);
  EXPECT_DOUBLE_EQ(H.cumulativeFractionAt(3), 0.75);
  EXPECT_DOUBLE_EQ(H.cumulativeFractionAt(1 << 20), 1.0);
}

TEST(Options, ParsesForms) {
  const char *Argv[] = {"prog", "--scale", "0.5", "--csv", "--name=value"};
  Options O = Options::parse(5, const_cast<char **>(Argv));
  EXPECT_DOUBLE_EQ(O.getStrictDouble("scale", 1.0).take(), 0.5);
  EXPECT_TRUE(O.getBool("csv"));
  EXPECT_EQ(O.get("name", ""), "value");
  EXPECT_EQ(O.getStrictUnsigned("missing", 7).take(), 7u);
}

TEST(Options, EnvFallback) {
  setenv("GCACHE_TESTOPT", "99", 1);
  const char *Argv[] = {"prog"};
  Options O = Options::parse(1, const_cast<char **>(Argv));
  EXPECT_EQ(O.getStrictUnsigned("testopt", 0).take(), 99u);
  unsetenv("GCACHE_TESTOPT");
}
