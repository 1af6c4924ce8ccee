//===- TraceFile.cpp - Binary reference-trace files ------------------------===//

#include "gcache/trace/TraceFile.h"

#include "gcache/support/FaultInjector.h"
#include "gcache/support/Vfs.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace gcache;

namespace {
constexpr char Magic[4] = {'G', 'C', 'T', 'R'};
constexpr char FooterMagic[4] = {'G', 'C', 'T', 'F'};
constexpr uint32_t Version = 3;
constexpr size_t HeaderBytes = 16;
constexpr size_t FooterBytes = 8;
constexpr size_t MaxRecordBytes = 9; // An allocation: opcode, address, size.

enum Opcode : uint8_t {
  OpLoadMut = 0,
  OpStoreMut = 1,
  OpLoadGc = 2,
  OpStoreGc = 3,
  OpAlloc = 4,
  OpGcBegin = 5,
  OpGcEnd = 6,
  OpGcPhase = 7, // Stepped-collector phase marker; payload = GcPhase.
};

/// A GC phase marker's payload must name a real in-cycle phase; Idle never
/// appears in a trace and anything above Finish is from a future format.
bool gcPhasePayloadValid(uint32_t V) {
  return V >= static_cast<uint32_t>(GcPhase::Begin) &&
         V <= static_cast<uint32_t>(GcPhase::Finish);
}

void put32(uint8_t *P, uint32_t V) {
  P[0] = V & 0xff;
  P[1] = (V >> 8) & 0xff;
  P[2] = (V >> 16) & 0xff;
  P[3] = (V >> 24) & 0xff;
}

uint32_t get32(const uint8_t *P) {
  return static_cast<uint32_t>(P[0]) | (static_cast<uint32_t>(P[1]) << 8) |
         (static_cast<uint32_t>(P[2]) << 16) |
         (static_cast<uint32_t>(P[3]) << 24);
}
} // namespace

Status TraceWriter::open(const std::string &Path) {
  assert(!File && "writer already open");
  FinalPath = Path;
  TmpPath = Path + ".tmp";
  Expected<std::unique_ptr<VfsFile>> F = vfs().openWrite(TmpPath);
  if (!F)
    return F.status();
  File = F.take();
  Records = 0;
  RecordCrc.reset();
  StreamStatus = Status();
  if (!Chunk)
    Chunk = std::make_unique<uint8_t[]>(ChunkBytes);
  ChunkFill = 0;
  // Placeholder header; record count is patched in close().
  uint8_t Header[HeaderBytes] = {};
  std::memcpy(Header, Magic, 4);
  put32(Header + 4, Version);
  if (Status S = File->write(Header, sizeof(Header)); !S.ok()) {
    (void)File->close();
    File.reset();
    (void)vfs().unlink(TmpPath);
    return S;
  }
  return Status();
}

void TraceWriter::emit(uint8_t Op, uint32_t A, uint32_t B, bool HasB) {
  if (!File || !StreamStatus.ok())
    return;
  // trace-write fault site: simulate disk-full at the Nth emitted record.
  if (faultInjector().shouldFire(FaultSite::TraceShortWrite)) {
    StreamStatus = Status::failf(
        StatusCode::IoError,
        "injected short write at trace record %llu (site trace-write)",
        static_cast<unsigned long long>(Records));
    return;
  }
  uint8_t *P = Chunk.get() + ChunkFill;
  P[0] = Op;
  put32(P + 1, A);
  ChunkFill += 5;
  if (HasB) {
    put32(P + 5, B);
    ChunkFill += 4;
  }
  ++Records;
  if (ChunkFill > ChunkBytes - MaxRecordBytes) // The next may not fit.
    flushChunk();
}

void TraceWriter::flushChunk() {
  if (ChunkFill == 0)
    return;
  if (Status S = File->write(Chunk.get(), ChunkFill); !S.ok()) {
    StreamStatus = Status::failf(
        StatusCode::IoError,
        "short write of the trace chunk ending at record %llu of '%s': %s",
        static_cast<unsigned long long>(Records - 1), TmpPath.c_str(),
        S.message().c_str());
    return;
  }
  RecordCrc.update(Chunk.get(), ChunkFill);
  ChunkFill = 0;
}

void TraceWriter::onRef(const Ref &R) {
  uint8_t Op = R.ExecPhase == Phase::Mutator
                   ? (R.Kind == AccessKind::Load ? OpLoadMut : OpStoreMut)
                   : (R.Kind == AccessKind::Load ? OpLoadGc : OpStoreGc);
  emit(Op, R.Addr, 0, /*HasB=*/false);
}

void TraceWriter::onRefs(const RefSpan &S) {
  for (size_t I = 0; I != S.size(); ++I)
    onRef(S[I]);
}

void TraceWriter::onAlloc(Address Addr, uint32_t Bytes) {
  emit(OpAlloc, Addr, Bytes, /*HasB=*/true);
}

void TraceWriter::onGcBegin() { emit(OpGcBegin, 0, 0, /*HasB=*/false); }
void TraceWriter::onGcEnd() { emit(OpGcEnd, 0, 0, /*HasB=*/false); }
void TraceWriter::onGcPhase(GcPhase P) {
  emit(OpGcPhase, static_cast<uint32_t>(P), 0, /*HasB=*/false);
}

Status TraceWriter::close() {
  if (!File)
    return Status::fail(StatusCode::IoError, "trace writer is not open");
  if (StreamStatus.ok())
    flushChunk();
  Status Result = StreamStatus;

  // Footer: checksum over every record byte.
  if (Result.ok()) {
    uint8_t Footer[FooterBytes];
    std::memcpy(Footer, FooterMagic, 4);
    put32(Footer + 4, RecordCrc.value());
    Result = File->write(Footer, sizeof(Footer));
  }
  // Patch the record count into the header and make the bytes durable
  // before the rename makes them reachable.
  uint8_t Count[8];
  put32(Count, static_cast<uint32_t>(Records));
  put32(Count + 4, static_cast<uint32_t>(Records >> 32));
  if (Result.ok())
    Result = File->writeAt(8, Count, sizeof(Count));
  if (Result.ok())
    Result = File->sync();
  Status CloseS = File->close();
  if (Result.ok())
    Result = CloseS;
  File.reset();

  // Install atomically on success; otherwise leave no partial file behind.
  if (Result.ok())
    Result = vfs().rename(TmpPath, FinalPath);
  if (!Result.ok())
    (void)vfs().unlink(TmpPath);
  return Result;
}

TraceWriter::TraceWriter() = default;

TraceWriter::~TraceWriter() {
  if (!File)
    return;
  // A FaultVfs power cut surfaces as a StatusError from the write path;
  // destruction must absorb it (the stack is already unwinding).
  try {
    close();
  } catch (const StatusError &) {
    File.reset();
  }
}

//===----------------------------------------------------------------------===//
// TraceStream
//===----------------------------------------------------------------------===//

void TraceRecord::dispatch(TraceSink &S) const {
  switch (Op) {
  case Kind::Ref:
    S.onRef(R);
    break;
  case Kind::Alloc:
    S.onAlloc(AllocAddr, AllocBytes);
    break;
  case Kind::GcBegin:
    S.onGcBegin();
    break;
  case Kind::GcEnd:
    S.onGcEnd();
    break;
  case Kind::GcPhase:
    S.onGcPhase(PhaseMark);
    break;
  }
}

namespace {

/// Length in bytes of the record starting with \p Op, or 0 if the opcode
/// is unknown.
size_t recordLen(uint8_t Op) {
  switch (Op) {
  case OpLoadMut:
  case OpStoreMut:
  case OpLoadGc:
  case OpStoreGc:
  case OpGcBegin:
  case OpGcEnd:
  case OpGcPhase:
    return 5;
  case OpAlloc:
    return 9;
  default:
    return 0;
  }
}

/// Decodes one whole record at \p P (length already validated against
/// recordLen) — the single decode truth shared by the whole-file and the
/// incremental readers.
void decodeRecordAt(const uint8_t *P, TraceRecord &Rec) {
  uint32_t A = get32(P + 1);
  switch (P[0]) {
  case OpLoadMut:
    Rec.Op = TraceRecord::Kind::Ref;
    Rec.R = {A, AccessKind::Load, Phase::Mutator};
    break;
  case OpStoreMut:
    Rec.Op = TraceRecord::Kind::Ref;
    Rec.R = {A, AccessKind::Store, Phase::Mutator};
    break;
  case OpLoadGc:
    Rec.Op = TraceRecord::Kind::Ref;
    Rec.R = {A, AccessKind::Load, Phase::Collector};
    break;
  case OpStoreGc:
    Rec.Op = TraceRecord::Kind::Ref;
    Rec.R = {A, AccessKind::Store, Phase::Collector};
    break;
  case OpAlloc:
    Rec.Op = TraceRecord::Kind::Alloc;
    Rec.AllocAddr = A;
    Rec.AllocBytes = get32(P + 5);
    break;
  case OpGcBegin:
    Rec.Op = TraceRecord::Kind::GcBegin;
    break;
  case OpGcEnd:
    Rec.Op = TraceRecord::Kind::GcEnd;
    break;
  case OpGcPhase:
    Rec.Op = TraceRecord::Kind::GcPhase;
    Rec.PhaseMark = static_cast<GcPhase>(A);
    break;
  }
}

} // namespace

Status TraceStream::open(const std::string &Path, bool Salvage) {
  Expected<std::vector<uint8_t>> Bytes = vfs().readFile(Path);
  if (!Bytes)
    return Bytes.status();
  return openBuffer(Bytes.take(), Salvage, Path);
}

Status TraceStream::openBuffer(std::vector<uint8_t> Bytes, bool Salvage,
                               const std::string &Name) {
  Data = std::move(Bytes);
  RecordsBegin = RecordsEnd = Pos = 0;
  Index = Count = Declared = 0;
  Damage = Status();

  // Header. Damage this early is never salvageable: with no intact header
  // there is no record stream to cut a prefix from.
  if (Data.size() < HeaderBytes)
    return Status::failf(StatusCode::Truncated,
                         "trace '%s' is %zu bytes, shorter than its header",
                         Name.c_str(), Data.size());
  if (std::memcmp(Data.data(), Magic, 4) != 0)
    return Status::failf(StatusCode::Corrupt,
                         "'%s' is not a trace file (bad magic)", Name.c_str());
  uint32_t FileVersion = get32(Data.data() + 4);
  if (FileVersion != Version)
    return Status::failf(StatusCode::Corrupt,
                         "trace '%s' has unsupported version %u (only "
                         "version %u is read)",
                         Name.c_str(), FileVersion, Version);
  uint64_t Expected = static_cast<uint64_t>(get32(Data.data() + 8)) |
                      (static_cast<uint64_t>(get32(Data.data() + 12)) << 32);
  Declared = Expected;

  // Walk the record stream up to the footer's place, remembering the end
  // of the last whole record so salvage can cut there.
  size_t StreamEnd = Data.size() - FooterBytes;
  bool FooterMissing = false;
  if (Data.size() < HeaderBytes + FooterBytes) {
    StreamEnd = Data.size();
    FooterMissing = true;
  }
  RecordsBegin = HeaderBytes;
  size_t P = RecordsBegin;
  uint64_t Seen = 0;
  // Advances P over whole records that end by \p End; the first record
  // that does not is the structural problem returned.
  auto walkTo = [&](size_t End) -> Status {
    while (P < End) {
      size_t Len = recordLen(Data[P]);
      if (Len == 0)
        return Status::failf(StatusCode::Corrupt,
                             "trace '%s' has unknown opcode %u at record %llu",
                             Name.c_str(), Data[P],
                             static_cast<unsigned long long>(Seen));
      if (P + Len > End)
        // The stream ends inside this record. The tail bytes reserved for
        // the footer might actually be record bytes of a truncated file —
        // either way the structure ends early.
        return Status::failf(StatusCode::Truncated,
                             "trace '%s' ends inside record %llu",
                             Name.c_str(),
                             static_cast<unsigned long long>(Seen));
      if (Data[P] == OpGcPhase && !gcPhasePayloadValid(get32(&Data[P] + 1)))
        return Status::failf(StatusCode::Corrupt,
                             "trace '%s' has GC phase marker with invalid "
                             "phase %u at record %llu",
                             Name.c_str(), get32(&Data[P] + 1),
                             static_cast<unsigned long long>(Seen));
      P += Len;
      ++Seen;
    }
    return Status();
  };
  Status Found = walkTo(StreamEnd); // first structural problem, if any
  RecordsEnd = P;

  // Without a footer at its end a file was torn, unless it holds every
  // record the header promises: then the bytes where "GCTF" belongs are
  // wrong, and it is Corrupt.
  const bool FooterAtEnd =
      !FooterMissing &&
      std::memcmp(Data.data() + StreamEnd, FooterMagic, 4) == 0;
  if (!FooterAtEnd && Found.ok() && !FooterMissing && Seen >= Expected) {
    Found = Status::failf(StatusCode::Corrupt,
                          "trace '%s' has a malformed footer", Name.c_str());
  } else if (!FooterAtEnd && (Found.ok() || FooterMissing ||
                               Found.code() == StatusCode::Truncated)) {
    // The bytes reserved for the footer belong to the torn record stream:
    // walk whole records to the end of the file, and name the tear from
    // there, so the error counts the records salvage keeps. After the
    // last whole record comes the record the file ends inside, or the
    // start of the footer (nothing, on a record boundary). A file shorter
    // than header and footer was walked to its end already, and the walk
    // may have read the footer's "G" as an opcode.
    Found = walkTo(Data.size());
    RecordsEnd = P;
    const size_t Left = Data.size() - P;
    const size_t MagicLeft = std::min<size_t>(Left, 4);
    if (Left < FooterBytes &&
        std::memcmp(Data.data() + P, FooterMagic, MagicLeft) == 0)
      Found = Status::failf(StatusCode::Truncated,
                            "trace '%s' ends before its footer (%llu of %llu "
                            "records present)",
                            Name.c_str(), static_cast<unsigned long long>(Seen),
                            static_cast<unsigned long long>(Expected));
  }
  if (Found.ok()) {
    uint32_t WantCrc = get32(Data.data() + StreamEnd + 4);
    uint32_t GotCrc =
        crc32(Data.data() + RecordsBegin, RecordsEnd - RecordsBegin);
    if (GotCrc != WantCrc)
      Found = Status::failf(StatusCode::Corrupt,
                            "trace '%s' fails its checksum (stored %08x, "
                            "computed %08x)",
                            Name.c_str(), WantCrc, GotCrc);
  }
  if (Found.ok() && Seen != Expected)
    Found = Status::failf(StatusCode::Corrupt,
                          "trace '%s' holds %llu records but its header "
                          "promises %llu",
                          Name.c_str(),
                          static_cast<unsigned long long>(Seen),
                          static_cast<unsigned long long>(Expected));

  if (!Found.ok()) {
    if (!Salvage) {
      Data.clear();
      RecordsBegin = RecordsEnd = 0;
      return Found;
    }
    // Salvage: keep the longest valid record prefix, remember what was
    // lost. A checksum failure cannot localize the damage, so the whole
    // stream stays (the framing was intact) — the caller opted into
    // trusting it. A torn stream was already walked to the end of the
    // file; the bytes of a malformed footer are no records.
    Damage = Found;
  }
  Count = Seen;
  Pos = RecordsBegin;
  return Status();
}

bool TraceStream::next(TraceRecord &Rec) {
  if (Pos >= RecordsEnd)
    return false;
  const uint8_t *P = Data.data() + Pos;
  size_t Len = recordLen(P[0]);
  assert(Len != 0 && Pos + Len <= RecordsEnd && "stream validated at open");
  decodeRecordAt(P, Rec);
  Pos += Len;
  ++Index;
  return true;
}

size_t TraceStream::nextRefBatch(RefColumns &Out, size_t MaxRefs) {
  size_t Appended = 0;
  const uint8_t *D = Data.data();
  while ((MaxRefs == 0 || Appended < MaxRefs) && Pos < RecordsEnd) {
    const uint8_t Op = D[Pos];
    if (Op > OpStoreGc) // Allocation or GC marker ends the run.
      break;
    Out.Addr.push_back(get32(D + Pos + 1));
    Out.Kind.push_back(Op & 1);      // Load/Store is the opcode's low bit.
    Out.PhaseTag.push_back(Op >> 1); // Mutator/Collector is the next bit.
    Pos += 5;
    ++Index;
    ++Appended;
  }
  return Appended;
}

TraceBatchStats gcache::collectTraceBatchStats(TraceStream &S,
                                               size_t BatchRefs) {
  TraceBatchStats St;
  RefColumns Batch;
  TraceRecord Rec;
  for (;;) {
    Batch.clear();
    size_t N = S.nextRefBatch(Batch, BatchRefs);
    if (N) {
      ++St.Batches;
      if (BatchRefs && N == BatchRefs)
        ++St.FullBatches;
      St.Refs += N;
      St.MinBatch = St.Batches == 1 ? N : std::min<uint64_t>(St.MinBatch, N);
      St.MaxBatch = std::max<uint64_t>(St.MaxBatch, N);
      for (uint8_t K : Batch.Kind)
        St.Stores += K;
      for (uint8_t P : Batch.PhaseTag)
        St.CollectorRefs += P;
    }
    if (BatchRefs && N == BatchRefs)
      continue; // Cut by capacity; the run may continue in the next batch.
    if (!S.next(Rec))
      break;
    ++St.OtherRecords; // nextRefBatch stopped short, so this is not a Ref.
  }
  St.Loads = St.Refs - St.Stores;
  St.MutatorRefs = St.Refs - St.CollectorRefs;
  return St;
}

TracePhaseStats gcache::collectTracePhaseStats(TraceStream &S) {
  TracePhaseStats St;
  TraceRecord Rec{};
  GcPhase Cur = GcPhase::Idle;
  uint64_t StepsThisCycle = 0;
  bool InCycle = false;
  auto closeCycle = [&] {
    if (!InCycle)
      return;
    St.MinSteps = St.Cycles == 1 ? StepsThisCycle
                                 : std::min(St.MinSteps, StepsThisCycle);
    St.MaxSteps = std::max(St.MaxSteps, StepsThisCycle);
    St.Steps += StepsThisCycle;
    InCycle = false;
    Cur = GcPhase::Idle;
  };
  while (S.next(Rec)) {
    switch (Rec.Op) {
    case TraceRecord::Kind::Ref:
      if (Cur != GcPhase::Idle)
        ++St.RefsByPhase[static_cast<unsigned>(Cur)];
      else if (Rec.R.ExecPhase == Phase::Collector)
        ++St.UnattributedCollectorRefs; // no marker before it
      else
        ++St.MutatorRefs;
      break;
    case TraceRecord::Kind::Alloc:
      break;
    case TraceRecord::Kind::GcBegin:
      closeCycle(); // tolerate a missing GcEnd
      ++St.Cycles;
      InCycle = true;
      StepsThisCycle = 0;
      break;
    case TraceRecord::Kind::GcEnd:
      closeCycle();
      break;
    case TraceRecord::Kind::GcPhase:
      ++St.PhaseMarks;
      ++St.MarksByPhase[static_cast<unsigned>(Rec.PhaseMark)];
      Cur = Rec.PhaseMark;
      // The Begin marker is the cycle preamble, not a bounded step.
      if (InCycle && Rec.PhaseMark != GcPhase::Begin)
        ++StepsThisCycle;
      break;
    }
  }
  closeCycle();
  return St;
}

Status TraceStream::seekTo(uint64_t RecordIndex, uint64_t ByteOffset) {
  if (ByteOffset < RecordsBegin || ByteOffset > RecordsEnd ||
      RecordIndex > Count)
    return Status::failf(StatusCode::Corrupt,
                         "trace resume point (record %llu, byte %llu) is "
                         "outside the stream",
                         static_cast<unsigned long long>(RecordIndex),
                         static_cast<unsigned long long>(ByteOffset));
  Pos = static_cast<size_t>(ByteOffset);
  Index = RecordIndex;
  return Status();
}

//===----------------------------------------------------------------------===//
// TraceReader
//===----------------------------------------------------------------------===//

Expected<uint64_t> TraceReader::replayEx(const std::string &Path,
                                         TraceSink &Sink,
                                         const ReplayOptions &Opts) {
  TraceStream Stream;
  if (Status S = Stream.open(Path, Opts.Salvage); !S.ok())
    return S;
  TraceRecord Rec;
  uint64_t Replayed = 0;
  while (Stream.next(Rec)) {
    Rec.dispatch(Sink);
    ++Replayed;
  }
  return Replayed;
}
