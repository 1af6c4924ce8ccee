//===- test_trace.cpp - Trace event and sink unit tests -----------------------===//

#include "gcache/core/Experiment.h"
#include "gcache/support/Crc32.h"
#include "gcache/support/FaultInjector.h"
#include "gcache/trace/Sinks.h"
#include "gcache/trace/TraceFile.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace gcache;

TEST(CountingSink, CountsByKindAndPhase) {
  CountingSink S;
  S.onRef({0x100, AccessKind::Load, Phase::Mutator});
  S.onRef({0x104, AccessKind::Store, Phase::Mutator});
  S.onRef({0x108, AccessKind::Store, Phase::Mutator});
  S.onRef({0x10c, AccessKind::Load, Phase::Collector});
  EXPECT_EQ(S.loads(Phase::Mutator), 1u);
  EXPECT_EQ(S.stores(Phase::Mutator), 2u);
  EXPECT_EQ(S.loads(Phase::Collector), 1u);
  EXPECT_EQ(S.totalRefs(), 4u);
  EXPECT_EQ(S.mutatorRefs(), 3u);
}

TEST(CountingSink, AllocationAndCollections) {
  CountingSink S;
  S.onAlloc(0x1000, 64);
  S.onAlloc(0x1040, 16);
  S.onGcBegin();
  S.onGcBegin();
  EXPECT_EQ(S.allocatedBytes(), 80u);
  EXPECT_EQ(S.collections(), 2u);
}

TEST(TraceBus, BroadcastsInOrder) {
  TraceBus Bus;
  CountingSink A, B;
  Bus.addSink(&A);
  Bus.addSink(&B);
  Bus.onRef({0x10, AccessKind::Load, Phase::Mutator});
  Bus.onAlloc(0x20, 8);
  EXPECT_EQ(A.totalRefs(), 1u);
  EXPECT_EQ(B.totalRefs(), 1u);
  EXPECT_EQ(A.allocatedBytes(), 8u);
}

TEST(CallbackSink, InvokesCallbacks) {
  CallbackSink S;
  std::vector<Address> Addrs;
  S.OnRef = [&](const Ref &R) { Addrs.push_back(R.Addr); };
  S.onRef({0x4, AccessKind::Load, Phase::Mutator});
  S.onRef({0x8, AccessKind::Store, Phase::Collector});
  ASSERT_EQ(Addrs.size(), 2u);
  EXPECT_EQ(Addrs[1], 0x8u);
}

namespace {
std::string tempPath(const char *Name) {
  return std::string(::testing::TempDir()) + "/" + Name;
}
} // namespace

TEST(TraceFile, RoundTrip) {
  std::string Path = tempPath("trace_roundtrip.gct");
  TraceWriter W;
  ASSERT_TRUE(W.open(Path).ok());
  W.onRef({0x1000, AccessKind::Load, Phase::Mutator});
  W.onRef({0x1004, AccessKind::Store, Phase::Mutator});
  W.onGcBegin();
  W.onRef({0x2000, AccessKind::Store, Phase::Collector});
  W.onGcEnd();
  W.onAlloc(0x3000, 24);
  W.onRef({0x3000, AccessKind::Store, Phase::Mutator});
  EXPECT_EQ(W.recordCount(), 7u);
  ASSERT_TRUE(W.close().ok());

  struct Recorder final : TraceSink {
    std::vector<Ref> Refs;
    uint64_t Allocs = 0, Begins = 0, Ends = 0;
    void onRef(const Ref &R) override { Refs.push_back(R); }
    void onAlloc(Address, uint32_t Bytes) override { Allocs += Bytes; }
    void onGcBegin() override { ++Begins; }
    void onGcEnd() override { ++Ends; }
  } R;
  Expected<uint64_t> N = TraceReader::replayEx(Path, R);
  ASSERT_TRUE(N.ok()) << N.status().message();
  EXPECT_EQ(*N, 7u);
  ASSERT_EQ(R.Refs.size(), 4u);
  EXPECT_EQ(R.Refs[0].Addr, 0x1000u);
  EXPECT_EQ(R.Refs[0].Kind, AccessKind::Load);
  EXPECT_EQ(R.Refs[2].ExecPhase, Phase::Collector);
  EXPECT_EQ(R.Allocs, 24u);
  EXPECT_EQ(R.Begins, 1u);
  EXPECT_EQ(R.Ends, 1u);
  std::remove(Path.c_str());
}

TEST(TraceFile, RejectsMissingFile) {
  CountingSink S;
  EXPECT_FALSE(TraceReader::replayEx(tempPath("nope.gct"), S).ok());
}

TEST(TraceFile, RejectsCorruptHeader) {
  std::string Path = tempPath("corrupt.gct");
  FILE *F = fopen(Path.c_str(), "wb");
  fputs("NOT A TRACE FILE AT ALL", F);
  fclose(F);
  CountingSink S;
  EXPECT_FALSE(TraceReader::replayEx(Path, S).ok());
  std::remove(Path.c_str());
}

namespace {
/// Writes raw bytes as a trace file for malformed-input tests.
void writeRaw(const std::string &Path, const std::vector<uint8_t> &Bytes) {
  FILE *F = fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr);
  ASSERT_EQ(fwrite(Bytes.data(), 1, Bytes.size(), F), Bytes.size());
  fclose(F);
}

/// A valid header claiming \p Records records, with \p Version.
std::vector<uint8_t> header(uint32_t Records, uint32_t Version = 3) {
  std::vector<uint8_t> H(16, 0);
  std::memcpy(H.data(), "GCTR", 4);
  H[4] = static_cast<uint8_t>(Version);
  H[8] = static_cast<uint8_t>(Records);
  return H;
}

/// \p Bytes (a header and records) followed by the footer the writer
/// appends: "GCTF" and the CRC-32 of every byte after the header.
std::vector<uint8_t> sealed(std::vector<uint8_t> Bytes) {
  uint32_t Crc = crc32(Bytes.data() + 16, Bytes.size() - 16);
  Bytes.insert(Bytes.end(), {'G', 'C', 'T', 'F'});
  for (unsigned Shift = 0; Shift != 32; Shift += 8)
    Bytes.push_back(static_cast<uint8_t>(Crc >> Shift));
  return Bytes;
}

/// Expects replay of \p Bytes to fail with a message containing \p Why
/// (the defect the file was built to carry) and to leave the sink
/// completely untouched (no partial event delivery before the error).
void expectRejectedWithoutSinkMutation(const char *Name,
                                       const std::vector<uint8_t> &Bytes,
                                       const char *Why) {
  std::string Path =
      std::string(::testing::TempDir()) + "/" + Name + ".gct";
  writeRaw(Path, Bytes);
  CountingSink S;
  Expected<uint64_t> R = TraceReader::replayEx(Path, S);
  ASSERT_FALSE(R.ok()) << Name;
  EXPECT_NE(R.status().message().find(Why), std::string::npos)
      << Name << ": " << R.status().message();
  EXPECT_EQ(S.totalRefs(), 0u) << Name;
  EXPECT_EQ(S.allocatedBytes(), 0u) << Name;
  EXPECT_EQ(S.collections(), 0u) << Name;
  std::remove(Path.c_str());
}
} // namespace

TEST(TraceFile, RejectsTruncatedHeader) {
  std::vector<uint8_t> Bytes = header(0);
  Bytes.resize(8); // header cut in half
  expectRejectedWithoutSinkMutation("trunc_header", Bytes,
                                    "shorter than its header");
}

TEST(TraceFile, RejectsBadMagic) {
  std::vector<uint8_t> Bytes = sealed(header(0));
  Bytes[0] = 'X';
  expectRejectedWithoutSinkMutation("bad_magic", Bytes, "bad magic");
}

TEST(TraceFile, RejectsWrongVersion) {
  // Each is a well-formed empty file of its version: version 1 had no
  // footer, version 2 had no phase markers, 0 and 4 never existed. Only
  // version 3 is read.
  for (uint32_t Version : {0u, 1u, 2u, 4u}) {
    std::vector<uint8_t> Bytes =
        Version == 1 ? header(0, Version) : sealed(header(0, Version));
    std::string Name = "bad_version_" + std::to_string(Version);
    expectRejectedWithoutSinkMutation(Name.c_str(), Bytes,
                                      "unsupported version");
  }
}

TEST(TraceFile, RejectsMidRecordEofWithoutMutatingSink) {
  // Two refs promised; the second record is cut after 3 of its 5 bytes.
  // The valid first ref must NOT reach the sink.
  std::vector<uint8_t> Bytes = header(2);
  Bytes.insert(Bytes.end(), {0 /*OpLoadMut*/, 0x00, 0x10, 0x00, 0x00});
  Bytes.insert(Bytes.end(), {1 /*OpStoreMut*/, 0x04, 0x10});
  expectRejectedWithoutSinkMutation("mid_record_eof", sealed(Bytes),
                                    "ends inside record 1");
}

TEST(TraceFile, RejectsTruncatedAllocPayload) {
  // An alloc record missing two bytes of its 4-byte size payload, after a
  // valid ref that must not leak into the sink.
  std::vector<uint8_t> Bytes = header(2);
  Bytes.insert(Bytes.end(), {0 /*OpLoadMut*/, 0x00, 0x10, 0x00, 0x00});
  Bytes.insert(Bytes.end(), {4 /*OpAlloc*/, 0x00, 0x20, 0x00, 0x00, 0x40});
  expectRejectedWithoutSinkMutation("trunc_alloc", sealed(Bytes),
                                    "ends inside record 1");
}

TEST(TraceFile, RejectsUnknownOpcodeWithoutMutatingSink) {
  std::vector<uint8_t> Bytes = header(2);
  Bytes.insert(Bytes.end(), {0 /*OpLoadMut*/, 0x00, 0x10, 0x00, 0x00});
  Bytes.insert(Bytes.end(), {0x7f /*bogus*/, 0x00, 0x00, 0x00, 0x00});
  expectRejectedWithoutSinkMutation("bad_opcode", sealed(Bytes),
                                    "unknown opcode 127");
}

TEST(TraceFile, RejectsRecordCountMismatchWithoutMutatingSink) {
  // Header promises three records but the stream holds one.
  std::vector<uint8_t> Bytes = header(3);
  Bytes.insert(Bytes.end(), {0 /*OpLoadMut*/, 0x00, 0x10, 0x00, 0x00});
  expectRejectedWithoutSinkMutation("count_mismatch", sealed(Bytes),
                                    "promises 3");
}

//===----------------------------------------------------------------------===//
// Checksum footer, corrupt/truncated classification, salvage
//===----------------------------------------------------------------------===//

namespace {

/// Reads \p Path back as raw bytes.
std::vector<uint8_t> readRaw(const std::string &Path) {
  std::vector<uint8_t> Bytes;
  FILE *F = fopen(Path.c_str(), "rb");
  EXPECT_NE(F, nullptr) << Path;
  if (!F)
    return Bytes;
  uint8_t Buf[4096];
  size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), F)) > 0)
    Bytes.insert(Bytes.end(), Buf, Buf + N);
  fclose(F);
  return Bytes;
}

/// Writes a small valid current-version trace (4 records: two mutator
/// refs, a GC begin/end pair) and returns its path.
std::string writeSmallTrace(const char *Name) {
  std::string Path = tempPath(Name);
  TraceWriter W;
  EXPECT_TRUE(W.open(Path).ok());
  W.onRef({0x1000, AccessKind::Load, Phase::Mutator});
  W.onRef({0x1004, AccessKind::Store, Phase::Mutator});
  W.onGcBegin();
  W.onGcEnd();
  EXPECT_TRUE(W.close().ok());
  return Path;
}

} // namespace

TEST(TraceFileV2, WriterEmitsCurrentVersionWithFooter) {
  std::string Path = writeSmallTrace("v2_format.gct");
  std::vector<uint8_t> Bytes = readRaw(Path);
  // Header: magic, version 3, count 4. Records: 2+2 at 5 bytes each.
  // Footer: "GCTF" + CRC.
  ASSERT_EQ(Bytes.size(), 16u + 4 * 5 + 8);
  EXPECT_EQ(Bytes[4], 3u) << "writer must stamp the current version";
  EXPECT_EQ(std::memcmp(Bytes.data() + Bytes.size() - 8, "GCTF", 4), 0);
  std::remove(Path.c_str());
}

TEST(TraceFileV2, ChecksumCatchesFlippedRecordByte) {
  std::string Path = writeSmallTrace("v2_crc.gct");
  std::vector<uint8_t> Bytes = readRaw(Path);
  Bytes[16 + 2] ^= 0x01; // an address byte: framing stays valid
  writeRaw(Path, Bytes);

  CountingSink S;
  Expected<uint64_t> R = TraceReader::replayEx(Path, S);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.status().code(), StatusCode::Corrupt);
  EXPECT_EQ(S.totalRefs(), 0u) << "no partial delivery on checksum failure";
  std::remove(Path.c_str());
}

TEST(TraceFileV2, ReportsTruncationDistinctlyFromCorruption) {
  std::string Path = writeSmallTrace("v2_trunc.gct");
  std::vector<uint8_t> Good = readRaw(Path);

  // Every proper prefix is Truncated — a torn write, not corruption.
  for (size_t Cut : {Good.size() - 1, Good.size() - 8, size_t(16 + 7)}) {
    writeRaw(Path, std::vector<uint8_t>(Good.begin(), Good.begin() + Cut));
    CountingSink S;
    Expected<uint64_t> R = TraceReader::replayEx(Path, S);
    ASSERT_FALSE(R.ok()) << "cut at " << Cut;
    EXPECT_EQ(R.status().code(), StatusCode::Truncated) << "cut at " << Cut;
  }

  // A damaged footer magic is Corrupt, not Truncated.
  std::vector<uint8_t> BadFooter = Good;
  BadFooter[BadFooter.size() - 8] = 'X';
  writeRaw(Path, BadFooter);
  CountingSink S;
  Expected<uint64_t> R = TraceReader::replayEx(Path, S);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.status().code(), StatusCode::Corrupt);
  std::remove(Path.c_str());
}

namespace {

/// Writes a sealed trace of \p N loads, one 5-byte record each, to
/// \p Path and returns its bytes.
std::vector<uint8_t> writeLoads(const std::string &Path, uint64_t N) {
  TraceWriter W;
  EXPECT_TRUE(W.open(Path).ok());
  for (Address A = 0; A != N * 4; A += 4)
    W.onRef({0x1000 + A, AccessKind::Load, Phase::Mutator});
  EXPECT_TRUE(W.close().ok());
  std::vector<uint8_t> Bytes = readRaw(Path);
  EXPECT_EQ(Bytes.size(), 16 + N * 5 + 8);
  return Bytes;
}

/// Tears \p Good, the sealed trace of \p N loads, to its first \p Len
/// bytes at \p Path. With no footer at the end, the bytes reserved for it
/// are record bytes: salvage keeps every whole record before the tear,
/// and the strict error names the tear by that same count.
void expectTearNamed(const std::string &Path, const std::vector<uint8_t> &Good,
                     uint64_t N, size_t Len) {
  const size_t RecordBytes = std::min<size_t>(Len - 16, N * 5);
  const uint64_t Whole = RecordBytes / 5;
  const std::string Want =
      RecordBytes % 5 != 0
          ? "ends inside record " + std::to_string(Whole)
          : "ends before its footer (" + std::to_string(Whole) + " of " +
                std::to_string(N) + " records present)";
  writeRaw(Path, std::vector<uint8_t>(Good.begin(), Good.begin() + Len));
  SCOPED_TRACE(std::to_string(N) + " records cut to " + std::to_string(Len) +
               " bytes");

  CountingSink Strict;
  Expected<uint64_t> Refused = TraceReader::replayEx(Path, Strict);
  ASSERT_FALSE(Refused.ok());
  EXPECT_EQ(Refused.status().code(), StatusCode::Truncated);
  EXPECT_NE(Refused.status().message().find(Want), std::string::npos)
      << Refused.status().message() << " (want: " << Want << ")";

  CountingSink S;
  ReplayOptions Opts;
  Opts.Salvage = true;
  Expected<uint64_t> R = TraceReader::replayEx(Path, S, Opts);
  ASSERT_TRUE(R.ok()) << R.status().message();
  EXPECT_EQ(*R, Whole);
  EXPECT_EQ(S.totalRefs(), Whole) << "salvage delivers exactly the prefix";

  // The suppressed damage is still visible through TraceStream, says
  // what the strict open said, and the accounting names what the tear
  // took.
  TraceStream Stream;
  ASSERT_TRUE(Stream.open(Path, /*Salvage=*/true).ok());
  EXPECT_EQ(Stream.damage().code(), StatusCode::Truncated);
  EXPECT_EQ(Stream.damage().message(), Refused.status().message());
  EXPECT_EQ(Stream.recordCount(), Whole);
  EXPECT_EQ(Stream.droppedBytes(), Len - 16 - Whole * 5);
  EXPECT_EQ(Stream.droppedRecords(), N - Whole);
}

} // namespace

TEST(TraceFileV2, SalvageReplaysLongestValidPrefix) {
  std::string Path = tempPath("v2_salvage.gct");
  std::vector<uint8_t> Good = writeLoads(Path, 6);

  // Tear the file at every length from one byte short to the footer and
  // three records short: inside the footer, on record boundaries and
  // inside records.
  for (size_t Cut = 1; Cut <= 8 + 3 * 5; ++Cut)
    expectTearNamed(Path, Good, 6, Good.size() - Cut);

  // Files shorter than header and footer together, torn at every length
  // from the header alone: the walk reaches what is left of the footer.
  for (uint64_t N : {0, 1}) {
    const std::vector<uint8_t> Short = writeLoads(Path, N);
    for (size_t Len = 16; Len != Short.size(); ++Len)
      expectTearNamed(Path, Short, N, Len);
  }

  // A full-length file whose footer magic is damaged is Corrupt, and its
  // footer bytes are no records, even when the damaged first byte reads
  // as an opcode.
  std::vector<uint8_t> BadFooter = Good;
  BadFooter[BadFooter.size() - 8] = 0 /*OpLoadMut*/;
  writeRaw(Path, BadFooter);
  TraceStream Stream;
  ASSERT_TRUE(Stream.open(Path, /*Salvage=*/true).ok());
  EXPECT_EQ(Stream.damage().code(), StatusCode::Corrupt);
  EXPECT_EQ(Stream.recordCount(), 6u);
  EXPECT_EQ(Stream.droppedBytes(), 8u);
  std::remove(Path.c_str());
}

TEST(TraceFileV2, SalvageKeepsWholeStreamWhenOnlyChecksumFails) {
  std::string Path = writeSmallTrace("v2_salvage_crc.gct");
  std::vector<uint8_t> Bytes = readRaw(Path);
  Bytes[16 + 2] ^= 0x01;
  writeRaw(Path, Bytes);

  // Framing is intact, so salvage keeps all records (the flipped address
  // is indistinguishable from a legitimate one) and reports the mismatch.
  CountingSink S;
  ReplayOptions Opts;
  Opts.Salvage = true;
  Expected<uint64_t> R = TraceReader::replayEx(Path, S, Opts);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(*R, 4u);

  TraceStream Stream;
  ASSERT_TRUE(Stream.open(Path, /*Salvage=*/true).ok());
  EXPECT_EQ(Stream.damage().code(), StatusCode::Corrupt);
  std::remove(Path.c_str());
}

TEST(TraceFileV2, WriterIsAtomicNothingVisibleUntilClose) {
  std::string Path = tempPath("v2_atomic.gct");
  std::remove(Path.c_str());
  TraceWriter W;
  ASSERT_TRUE(W.open(Path).ok());
  W.onRef({0x1000, AccessKind::Load, Phase::Mutator});

  // Mid-stream, nothing exists at the final path — only the temporary.
  FILE *F = fopen(Path.c_str(), "rb");
  EXPECT_EQ(F, nullptr) << "final path must not appear before close()";
  if (F)
    fclose(F);
  F = fopen((Path + ".tmp").c_str(), "rb");
  EXPECT_NE(F, nullptr);
  if (F)
    fclose(F);

  ASSERT_TRUE(W.close().ok());
  F = fopen(Path.c_str(), "rb");
  EXPECT_NE(F, nullptr) << "close() must install the file";
  if (F)
    fclose(F);
  F = fopen((Path + ".tmp").c_str(), "rb");
  EXPECT_EQ(F, nullptr) << "close() must remove the temporary";
  if (F)
    fclose(F);

  CountingSink S;
  Expected<uint64_t> N = TraceReader::replayEx(Path, S);
  ASSERT_TRUE(N.ok()) << N.status().message();
  EXPECT_EQ(*N, 1u);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Chunked writes
//===----------------------------------------------------------------------===//

// The writer buffers records into 64 KiB chunks. A stream of more than
// three chunks, with a 9-byte allocation record across every 64 KiB edge
// of the record stream, must come out byte for byte as the format spec
// lays it out, read back record for record, and reach the file in a
// handful of writes rather than one per record.
TEST(TraceFileChunks, StreamAcrossChunkEdgesMatchesTheFormatSpec) {
  constexpr size_t Chunk = 64 * 1024;
  std::string Path = tempPath("chunked.gct");
  faultInjector().resetCounters(); // Disarmed: the io-* sites only count.
  TraceWriter W;
  ASSERT_TRUE(W.open(Path).ok());

  std::vector<uint8_t> Records; // The record stream, encoded from the spec.
  auto put = [&](uint8_t Op, uint32_t A) {
    Records.push_back(Op);
    for (unsigned Shift = 0; Shift != 32; Shift += 8)
      Records.push_back(static_cast<uint8_t>(A >> Shift));
  };
  std::vector<TraceRecord> Want;
  size_t NextEdge = Chunk, Straddles = 0;
  for (uint32_t I = 0; Records.size() < 3 * Chunk + Chunk / 2; ++I) {
    TraceRecord Rec;
    if (Records.size() + 9 > NextEdge) {
      // Starts before the edge, ends after it.
      Rec.Op = TraceRecord::Kind::Alloc;
      Rec.AllocAddr = 0x100000 + 16 * I;
      Rec.AllocBytes = 8 + I % 64;
      W.onAlloc(Rec.AllocAddr, Rec.AllocBytes);
      put(4, Rec.AllocAddr);
      for (unsigned Shift = 0; Shift != 32; Shift += 8)
        Records.push_back(static_cast<uint8_t>(Rec.AllocBytes >> Shift));
      NextEdge += Chunk;
      ++Straddles;
    } else if (I % 1000 == 999) {
      Rec.Op = TraceRecord::Kind::GcPhase;
      Rec.PhaseMark = GcPhase::Trace;
      W.onGcPhase(Rec.PhaseMark);
      put(7, static_cast<uint32_t>(Rec.PhaseMark));
    } else {
      Rec.R = {0x200000 + 4 * I,
               I % 3 ? AccessKind::Load : AccessKind::Store,
               I % 5 ? Phase::Mutator : Phase::Collector};
      W.onRef(Rec.R);
      put(static_cast<uint8_t>((Rec.R.ExecPhase == Phase::Collector ? 2 : 0) +
                               (Rec.R.Kind == AccessKind::Store ? 1 : 0)),
          Rec.R.Addr);
    }
    Want.push_back(Rec);
  }
  ASSERT_EQ(Straddles, 3u);
  EXPECT_EQ(W.recordCount(), Want.size());
  ASSERT_TRUE(W.close().ok());
  // Header, chunks, footer and the count patch: one write per chunk.
  EXPECT_LE(faultInjector().occurrences(FaultSite::IoShortWrite),
            3 + Records.size() / (Chunk - 8) + 1);

  std::vector<uint8_t> Image(16, 0);
  std::memcpy(Image.data(), "GCTR", 4);
  Image[4] = 3;
  for (unsigned Shift = 0; Shift != 64; Shift += 8)
    Image[8 + Shift / 8] = static_cast<uint8_t>(uint64_t(Want.size()) >> Shift);
  Image.insert(Image.end(), Records.begin(), Records.end());
  Image = sealed(std::move(Image));
  std::vector<uint8_t> Got = readRaw(Path);
  ASSERT_EQ(Got.size(), Image.size());
  EXPECT_TRUE(Got == Image) << "the file differs from the spec's encoding";

  TraceStream Stream;
  ASSERT_TRUE(Stream.open(Path).ok());
  ASSERT_EQ(Stream.recordCount(), Want.size());
  TraceRecord Rec;
  for (size_t I = 0; I != Want.size(); ++I) {
    ASSERT_TRUE(Stream.next(Rec)) << "record " << I;
    ASSERT_EQ(Rec.Op, Want[I].Op) << "record " << I;
    switch (Rec.Op) {
    case TraceRecord::Kind::Ref:
      ASSERT_EQ(Rec.R.Addr, Want[I].R.Addr) << "record " << I;
      ASSERT_EQ(Rec.R.Kind, Want[I].R.Kind) << "record " << I;
      ASSERT_EQ(Rec.R.ExecPhase, Want[I].R.ExecPhase) << "record " << I;
      break;
    case TraceRecord::Kind::Alloc:
      ASSERT_EQ(Rec.AllocAddr, Want[I].AllocAddr) << "record " << I;
      ASSERT_EQ(Rec.AllocBytes, Want[I].AllocBytes) << "record " << I;
      break;
    default:
      ASSERT_EQ(Rec.PhaseMark, Want[I].PhaseMark) << "record " << I;
    }
  }
  EXPECT_FALSE(Stream.next(Rec));
  std::remove(Path.c_str());
}

TEST(TraceFile, EmptyTraceRoundTrips) {
  std::string Path = tempPath("empty.gct");
  TraceWriter W;
  ASSERT_TRUE(W.open(Path).ok());
  ASSERT_TRUE(W.close().ok());
  CountingSink S;
  Expected<uint64_t> N = TraceReader::replayEx(Path, S);
  ASSERT_TRUE(N.ok()) << N.status().message();
  EXPECT_EQ(*N, 0u);
  EXPECT_EQ(S.totalRefs(), 0u);
  std::remove(Path.c_str());
}

TEST(TraceFile, OpenReportsUnwritablePathAsIoError) {
  TraceWriter W;
  Status S = W.open("/nonexistent-gcache-dir/trace.gct");
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.code(), StatusCode::IoError);
  EXPECT_NE(S.message().find("/nonexistent-gcache-dir/trace.gct"),
            std::string::npos)
      << "error must name the path: " << S.message();
  EXPECT_FALSE(W.isOpen()) << "a failed open must leave the writer closed";
}

TEST(TraceFile, CloseWithoutOpenIsAnError) {
  TraceWriter W;
  Status S = W.close();
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.code(), StatusCode::IoError);
}

TEST(TraceFile, EmitAfterFailedOpenIsSafe) {
  TraceWriter W;
  ASSERT_FALSE(W.open("/nonexistent-gcache-dir/trace.gct").ok());
  // Sinks can't report errors from callbacks; a closed writer must simply
  // ignore events rather than crash.
  W.onRef({0x1000, AccessKind::Load, Phase::Mutator});
  W.onGcBegin();
  W.onAlloc(0x2000, 16);
  EXPECT_EQ(W.recordCount(), 0u);
  EXPECT_TRUE(W.status().ok()) << "no stream error: nothing was streamed";
}

// The golden replay loop the TraceFile.h header promises: a live run
// simulated against the full paper-grid bank, recorded, and replayed into
// a fresh identical bank must reproduce every cache's counters for both
// phases exactly.
TEST(TraceFile, GoldenReplayMatchesLiveRun) {
  std::string Path = tempPath("golden_replay.gct");
  TraceWriter W;
  ASSERT_TRUE(W.open(Path).ok());

  ExperimentOptions Opts;
  Opts.Scale = 0.05;
  Opts.Gc = GcKind::Cheney;
  Opts.SemispaceBytes = 512 << 10;
  Opts.Grid = CacheGridKind::PaperGrid;
  Opts.ExtraSinks = {&W};
  ProgramRun Live = runProgram(nbodyWorkload(), Opts);
  ASSERT_GT(Live.Collections, 0u) << "need collector phases in the trace";
  ASSERT_TRUE(W.close().ok());

  CacheBank Replayed;
  Replayed.addPaperGrid(CacheConfig{});
  Expected<uint64_t> N = TraceReader::replayEx(Path, Replayed);
  ASSERT_TRUE(N.ok()) << N.status().message();
  ASSERT_GT(*N, 0u);

  ASSERT_EQ(Replayed.size(), Live.Bank->size());
  for (size_t I = 0; I != Replayed.size(); ++I) {
    const Cache &L = Live.Bank->cache(I);
    const Cache &R = Replayed.cache(I);
    std::string Where = L.config().label();
    for (Phase P : {Phase::Mutator, Phase::Collector}) {
      const CacheCounters &A = L.counters(P);
      const CacheCounters &B = R.counters(P);
      EXPECT_EQ(A.Loads, B.Loads) << Where;
      EXPECT_EQ(A.Stores, B.Stores) << Where;
      EXPECT_EQ(A.FetchMisses, B.FetchMisses) << Where;
      EXPECT_EQ(A.NoFetchMisses, B.NoFetchMisses) << Where;
      EXPECT_EQ(A.Writebacks, B.Writebacks) << Where;
      EXPECT_EQ(A.WriteThroughs, B.WriteThroughs) << Where;
    }
  }
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Version 3: GC phase markers (stepped collectors)
//===----------------------------------------------------------------------===//

TEST(TraceFileV3, GcPhaseMarkersRoundTrip) {
  std::string Path = tempPath("v3_phases.gct");
  TraceWriter W;
  ASSERT_TRUE(W.open(Path).ok());
  W.onRef({0x1000, AccessKind::Load, Phase::Mutator});
  W.onGcBegin();
  W.onGcPhase(GcPhase::Begin);
  W.onGcPhase(GcPhase::RootScan);
  W.onRef({0x2000, AccessKind::Store, Phase::Collector});
  W.onGcPhase(GcPhase::Trace);
  W.onGcPhase(GcPhase::Finish);
  W.onGcEnd();
  EXPECT_EQ(W.recordCount(), 8u);
  ASSERT_TRUE(W.close().ok());

  struct Recorder final : TraceSink {
    std::vector<GcPhase> Phases;
    void onRef(const Ref &) override {}
    void onGcPhase(GcPhase P) override { Phases.push_back(P); }
  } R;
  Expected<uint64_t> N = TraceReader::replayEx(Path, R);
  ASSERT_TRUE(N.ok()) << N.status().message();
  EXPECT_EQ(*N, 8u);
  ASSERT_EQ(R.Phases.size(), 4u);
  EXPECT_EQ(R.Phases[0], GcPhase::Begin);
  EXPECT_EQ(R.Phases[1], GcPhase::RootScan);
  EXPECT_EQ(R.Phases[2], GcPhase::Trace);
  EXPECT_EQ(R.Phases[3], GcPhase::Finish);

  // The record-level stream sees the same markers with their payloads.
  TraceStream S;
  ASSERT_TRUE(S.open(Path, /*Salvage=*/false).ok());
  std::vector<GcPhase> Streamed;
  TraceRecord Rec;
  while (S.next(Rec))
    if (Rec.Op == TraceRecord::Kind::GcPhase)
      Streamed.push_back(Rec.PhaseMark);
  EXPECT_EQ(Streamed, R.Phases);
  std::remove(Path.c_str());
}

TEST(TraceFileV3, RejectsIdlePhasePayloadWithoutMutatingSink) {
  // Idle is never emitted as a marker, so its payload value is invalid.
  std::vector<uint8_t> Bytes = header(1);
  Bytes.insert(Bytes.end(), {7 /*OpGcPhase*/, 0x00, 0x00, 0x00, 0x00});
  expectRejectedWithoutSinkMutation("phase_idle", sealed(Bytes),
                                    "invalid phase 0");
}

TEST(TraceFileV3, RejectsOutOfRangePhasePayloadWithoutMutatingSink) {
  // A valid Begin marker precedes the bad record: it must not leak into
  // the sink before the stream is rejected.
  std::vector<uint8_t> Bytes = header(2);
  Bytes.insert(Bytes.end(), {7 /*OpGcPhase*/, 0x01, 0x00, 0x00, 0x00});
  Bytes.insert(Bytes.end(), {7 /*OpGcPhase*/, 0x63, 0x00, 0x00, 0x00});
  expectRejectedWithoutSinkMutation("phase_range", sealed(Bytes),
                                    "invalid phase 99");
}

TEST(TraceFileV3, StreamReportsInvalidPhaseAsCorrupt) {
  std::string Path = tempPath("phase_corrupt.gct");
  std::vector<uint8_t> Bytes = header(1);
  Bytes.insert(Bytes.end(), {7 /*OpGcPhase*/, 0x07, 0x00, 0x00, 0x00});
  writeRaw(Path, sealed(Bytes));
  TraceStream S;
  Status St = S.open(Path, /*Salvage=*/false);
  ASSERT_FALSE(St.ok());
  EXPECT_EQ(St.code(), StatusCode::Corrupt);
  EXPECT_NE(St.message().find("invalid"), std::string::npos) << St.message();
  std::remove(Path.c_str());
}

TEST(TraceFileV3, PhaseStatsSummarizeSyntheticTrace) {
  std::string Path = tempPath("v3_phase_stats.gct");
  TraceWriter W;
  ASSERT_TRUE(W.open(Path).ok());
  W.onRef({0x100, AccessKind::Load, Phase::Mutator});
  // Cycle 1: Begin preamble plus three bounded steps.
  W.onGcBegin();
  W.onGcPhase(GcPhase::Begin);
  W.onRef({0x200, AccessKind::Load, Phase::Collector});
  W.onGcPhase(GcPhase::RootScan);
  W.onRef({0x204, AccessKind::Store, Phase::Collector});
  W.onGcPhase(GcPhase::Trace);
  W.onGcPhase(GcPhase::Finish);
  W.onGcEnd();
  W.onRef({0x104, AccessKind::Store, Phase::Mutator});
  // Cycle 2: a collector ref before any marker (unattributed) and a
  // single bounded step.
  W.onGcBegin();
  W.onRef({0x300, AccessKind::Load, Phase::Collector});
  W.onGcPhase(GcPhase::Trace);
  W.onRef({0x304, AccessKind::Load, Phase::Collector});
  W.onGcEnd();
  ASSERT_TRUE(W.close().ok());

  TraceStream S;
  ASSERT_TRUE(S.open(Path, /*Salvage=*/false).ok());
  TracePhaseStats P = collectTracePhaseStats(S);
  EXPECT_EQ(P.Cycles, 2u);
  EXPECT_EQ(P.PhaseMarks, 5u);
  EXPECT_EQ(P.Steps, 4u); // RootScan/Trace/Finish + cycle 2's Trace
  EXPECT_EQ(P.MinSteps, 1u);
  EXPECT_EQ(P.MaxSteps, 3u);
  EXPECT_DOUBLE_EQ(P.meanSteps(), 2.0);
  EXPECT_EQ(P.MarksByPhase[static_cast<unsigned>(GcPhase::Begin)], 1u);
  EXPECT_EQ(P.MarksByPhase[static_cast<unsigned>(GcPhase::RootScan)], 1u);
  EXPECT_EQ(P.MarksByPhase[static_cast<unsigned>(GcPhase::Trace)], 2u);
  EXPECT_EQ(P.MarksByPhase[static_cast<unsigned>(GcPhase::Finish)], 1u);
  EXPECT_EQ(P.RefsByPhase[static_cast<unsigned>(GcPhase::Begin)], 1u);
  EXPECT_EQ(P.RefsByPhase[static_cast<unsigned>(GcPhase::RootScan)], 1u);
  EXPECT_EQ(P.RefsByPhase[static_cast<unsigned>(GcPhase::Trace)], 1u);
  EXPECT_EQ(P.MutatorRefs, 2u);
  EXPECT_EQ(P.UnattributedCollectorRefs, 1u);
  std::remove(Path.c_str());
}
