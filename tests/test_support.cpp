//===- test_support.cpp - Support-library unit tests --------------------------===//

#include "gcache/support/Crc32.h"
#include "gcache/support/Options.h"
#include "gcache/support/Random.h"
#include "gcache/support/Stats.h"
#include "gcache/support/Table.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <vector>

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
  EXPECT_TRUE(O.getStrictBool("csv", false).take());
  EXPECT_EQ(O.get("name", ""), "value");
  EXPECT_EQ(O.getStrictUnsigned("missing", 7).take(), 7u);
}

TEST(Options, StrictBoolTakesOnlyBooleanValues) {
  const char *Argv[] = {"prog", "--a", "--b=0", "--c=true", "--d=maybe",
                        "--e=no"};
  Options O = Options::parse(6, const_cast<char **>(Argv));
  EXPECT_TRUE(O.getStrictBool("a", false).take());
  EXPECT_FALSE(O.getStrictBool("b", true).take());
  EXPECT_TRUE(O.getStrictBool("c", false).take());
  EXPECT_TRUE(O.getStrictBool("missing", true).take());
  for (const char *Bad : {"d", "e"}) {
    Expected<bool> V = O.getStrictBool(Bad, false);
    ASSERT_FALSE(V.ok()) << Bad;
    EXPECT_EQ(V.status().code(), StatusCode::InvalidArgument);
    EXPECT_NE(V.status().message().find(std::string("--") + Bad),
              std::string::npos);
  }
}

TEST(Options, EnvFallback) {
  setenv("GCACHE_TESTOPT", "99", 1);
  const char *Argv[] = {"prog"};
  Options O = Options::parse(1, const_cast<char **>(Argv));
  EXPECT_EQ(O.getStrictUnsigned("testopt", 0).take(), 99u);
  unsetenv("GCACHE_TESTOPT");
}

// exitOnUnknown names each unknown flag and GCACHE_* variable, then the
// usage line, and exits 2. An EnvOnly name is known in the environment
// only: GCACHE_FAULT passes, --fault does not.
TEST(OptionsDeath, ExitOnUnknownNamesFlagsAndVariables) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  const char *Argv[] = {"prog", "--scale=1", "--sacle=2"};
  Options Typo = Options::parse(3, const_cast<char **>(Argv));
  EXPECT_EXIT(Typo.exitOnUnknown({"scale"}, "usage: prog [--scale S]"),
              testing::ExitedWithCode(2),
              "unknown flag --sacle\n.*usage: prog \\[--scale S\\]");
  Options Fault = Options::parse(2, const_cast<char **>(Argv));
  EXPECT_EXIT(
      {
        setenv("GCACHE_SCAL", "1", 1);
        Fault.exitOnUnknown({"scale"}, "usage: prog", {"fault"});
      },
      testing::ExitedWithCode(2), "unknown environment variable GCACHE_SCAL");
  EXPECT_EXIT(
      {
        setenv("GCACHE_FAULT", "x:1", 1);
        setenv("GCACHE_SCALE", "1", 1);
        Fault.exitOnUnknown({"scale"}, "usage: prog", {"fault"});
        std::exit(0);
      },
      testing::ExitedWithCode(0), "");
  const char *FaultFlag[] = {"prog", "--fault=x:1"};
  Options FaultOnCommandLine = Options::parse(2, const_cast<char **>(FaultFlag));
  EXPECT_EXIT(FaultOnCommandLine.exitOnUnknown({"scale"}, "usage: prog",
                                               {"fault"}),
              testing::ExitedWithCode(2), "unknown flag --fault");
}

namespace {

/// The textbook byte-at-a-time IEEE CRC-32 (reflected, polynomial
/// 0xEDB88320, inverted in and out): the reference the sliced
/// implementation must match on every input.
uint32_t referenceCrc32(const uint8_t *P, size_t Len) {
  static const std::vector<uint32_t> Table = [] {
    std::vector<uint32_t> T(256);
    for (uint32_t I = 0; I != 256; ++I) {
      uint32_t C = I;
      for (int K = 0; K != 8; ++K)
        C = (C & 1) ? 0xedb88320u ^ (C >> 1) : C >> 1;
      T[I] = C;
    }
    return T;
  }();
  uint32_t C = 0xffffffffu;
  for (size_t I = 0; I != Len; ++I)
    C = Table[(C ^ P[I]) & 0xff] ^ (C >> 8);
  return C ^ 0xffffffffu;
}

} // namespace

TEST(Crc32, KnownAnswers) {
  EXPECT_EQ(crc32("123456789", 9), 0xcbf43926u);
  EXPECT_EQ(crc32("", 0), 0u);
  EXPECT_EQ(crc32(nullptr, 0, 0x12345678u), 0x12345678u)
      << "no bytes leave a running checksum unchanged";
  Crc32 C;
  C.update("1234", 4);
  C.update("56789", 5);
  EXPECT_EQ(C.value(), 0xcbf43926u);
}

// Every length through 4096 at each of the 8 start alignments, so the
// 8-byte loop, the byte tail and their seam all meet the reference, and
// random split points through Crc32::update, so a checksum continued
// across calls of any length (a trace's chunks, a snapshot's pieces)
// equals the one-shot value.
TEST(Crc32, MatchesByteReferenceAtEveryLengthAlignmentAndSplit) {
  Rng R(2024);
  std::vector<uint8_t> Buf(4096 + 8);
  for (uint8_t &B : Buf)
    B = static_cast<uint8_t>(R.next());
  for (size_t Align = 0; Align != 8; ++Align)
    for (size_t Len = 0; Len <= 4096; ++Len) {
      const uint8_t *P = Buf.data() + Align;
      uint32_t Want = referenceCrc32(P, Len);
      ASSERT_EQ(crc32(P, Len), Want) << "length " << Len << " at +" << Align;
      Crc32 C;
      size_t Done = 0;
      while (Done != Len) {
        size_t Step = R.below(Len - Done + 1);
        C.update(P + Done, Step);
        Done += Step;
      }
      ASSERT_EQ(C.value(), Want) << "split length " << Len << " at +" << Align;
    }
}
