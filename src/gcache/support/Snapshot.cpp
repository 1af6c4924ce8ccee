//===- Snapshot.cpp - Crash-safe simulation-state snapshots ----------------===//

#include "gcache/support/Snapshot.h"

#include "gcache/support/Crc32.h"
#include "gcache/support/FaultInjector.h"
#include "gcache/support/Vfs.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace gcache;

static const char SnapshotMagic[4] = {'G', 'C', 'S', 'P'};
static const uint32_t SnapshotVersion = 1;

//===----------------------------------------------------------------------===//
// SnapshotWriter
//===----------------------------------------------------------------------===//

void SnapshotWriter::beginSection(const std::string &Tag) {
  assert(!Tag.empty() && Tag.size() <= 64 && "section tag must be 1..64 bytes");
  Sections.push_back(Section{Tag, {}});
}

void SnapshotWriter::append(const void *Data, size_t Len) {
  assert(!Sections.empty() && "put* before beginSection");
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  Sections.back().Payload.insert(Sections.back().Payload.end(), P, P + Len);
}

void SnapshotWriter::putU32(uint32_t V) {
  uint8_t B[4] = {static_cast<uint8_t>(V), static_cast<uint8_t>(V >> 8),
                  static_cast<uint8_t>(V >> 16), static_cast<uint8_t>(V >> 24)};
  append(B, 4);
}

void SnapshotWriter::putU64(uint64_t V) {
  putU32(static_cast<uint32_t>(V));
  putU32(static_cast<uint32_t>(V >> 32));
}

void SnapshotWriter::putString(const std::string &S) {
  putU64(S.size());
  append(S.data(), S.size());
}

void SnapshotWriter::putVecU64(const std::vector<uint64_t> &V) {
  putU64(V.size());
  for (uint64_t X : V)
    putU64(X);
}

namespace {

/// Little-endian scalar encoders for the container framing (header and
/// section frames are built outside any SnapshotWriter section).
void pushU32(std::vector<uint8_t> &Out, uint32_t V) {
  Out.push_back(static_cast<uint8_t>(V));
  Out.push_back(static_cast<uint8_t>(V >> 8));
  Out.push_back(static_cast<uint8_t>(V >> 16));
  Out.push_back(static_cast<uint8_t>(V >> 24));
}

void pushU64(std::vector<uint8_t> &Out, uint64_t V) {
  pushU32(Out, static_cast<uint32_t>(V));
  pushU32(Out, static_cast<uint32_t>(V >> 32));
}

uint32_t readU32(const uint8_t *P) {
  return static_cast<uint32_t>(P[0]) | static_cast<uint32_t>(P[1]) << 8 |
         static_cast<uint32_t>(P[2]) << 16 | static_cast<uint32_t>(P[3]) << 24;
}

uint64_t readU64(const uint8_t *P) {
  return static_cast<uint64_t>(readU32(P)) |
         static_cast<uint64_t>(readU32(P + 4)) << 32;
}

} // namespace

uint32_t SnapshotWriter::contentCrc() const {
  Crc32 C;
  for (const Section &S : Sections) {
    uint64_t TagLen = S.Tag.size();
    C.update(&TagLen, sizeof(TagLen));
    C.update(S.Tag.data(), S.Tag.size());
    uint64_t PayloadLen = S.Payload.size();
    C.update(&PayloadLen, sizeof(PayloadLen));
    C.update(S.Payload.data(), S.Payload.size());
  }
  return C.value();
}

std::vector<uint8_t> SnapshotWriter::serialize() const {
  std::vector<uint8_t> Blob;
  Blob.insert(Blob.end(), SnapshotMagic, SnapshotMagic + 4);
  pushU32(Blob, SnapshotVersion);
  pushU32(Blob, static_cast<uint32_t>(Sections.size()));
  pushU32(Blob, 0); // reserved
  for (const Section &S : Sections) {
    pushU32(Blob, static_cast<uint32_t>(S.Tag.size()));
    Blob.insert(Blob.end(), S.Tag.begin(), S.Tag.end());
    pushU64(Blob, S.Payload.size());
    pushU32(Blob, crc32(S.Payload.data(), S.Payload.size()));
    Blob.insert(Blob.end(), S.Payload.begin(), S.Payload.end());
  }
  return Blob;
}

Status SnapshotWriter::writeFile(const std::string &Path) const {
  if (faultInjector().shouldFire(FaultSite::SnapshotWrite))
    return Status::failf(StatusCode::IoError,
                         "injected snapshot-write fault for '%s'",
                         Path.c_str());

  // The Vfs's atomic protocol: `<path>.tmp`, write, fsync, rename. A crash
  // at any point leaves either the old snapshot or no snapshot at Path —
  // never a torn one.
  std::vector<uint8_t> Blob = serialize();
  return vfs().writeFileAtomic(Path, Blob.data(), Blob.size());
}

//===----------------------------------------------------------------------===//
// SnapshotCursor
//===----------------------------------------------------------------------===//

bool SnapshotCursor::take(void *Out, size_t N) {
  if (!Error.ok()) {
    std::memset(Out, 0, N);
    return false;
  }
  if (N > Len - Pos) {
    latchTruncated(N);
    std::memset(Out, 0, N);
    return false;
  }
  std::memcpy(Out, Data + Pos, N);
  Pos += N;
  return true;
}

void SnapshotCursor::latchTruncated(uint64_t Wanted) {
  if (Error.ok())
    Error = Status::failf(
        StatusCode::Truncated,
        "snapshot section '%s' ends with %zu bytes left, needing %llu",
        Tag.c_str(), Len - Pos, static_cast<unsigned long long>(Wanted));
}

uint8_t SnapshotCursor::getU8() {
  uint8_t V = 0;
  take(&V, 1);
  return V;
}

uint32_t SnapshotCursor::getU32() {
  uint8_t B[4] = {};
  take(B, 4);
  return readU32(B);
}

uint64_t SnapshotCursor::getU64() {
  uint8_t B[8] = {};
  take(B, 8);
  return readU64(B);
}

std::string SnapshotCursor::getString() {
  uint64_t N = getU64();
  if (!Error.ok())
    return std::string();
  if (N > Len - Pos) {
    latchTruncated(N);
    return std::string();
  }
  std::string S(reinterpret_cast<const char *>(Data + Pos),
                static_cast<size_t>(N));
  Pos += static_cast<size_t>(N);
  return S;
}

std::vector<uint64_t> SnapshotCursor::getVecU64() {
  uint64_t N = getU64();
  std::vector<uint64_t> V;
  if (!Error.ok())
    return V;
  // Guard the reserve against a hostile length: each element needs 8 bytes
  // of payload, so a count beyond remaining()/8 is already truncation.
  if (N > remaining() / 8) {
    latchTruncated(N * 8);
    return V;
  }
  V.reserve(static_cast<size_t>(N));
  for (uint64_t I = 0; I != N; ++I)
    V.push_back(getU64());
  return V;
}

Status SnapshotCursor::finish() const {
  if (!Error.ok())
    return Error;
  if (Pos != Len)
    return Status::failf(StatusCode::Corrupt,
                         "snapshot section '%s' has %zu trailing bytes",
                         Tag.c_str(), Len - Pos);
  return Status();
}

void SnapshotCursor::fail(Status S) {
  assert(!S.ok() && "fail() needs an error status");
  if (Error.ok())
    Error = std::move(S);
}

//===----------------------------------------------------------------------===//
// SnapshotReader
//===----------------------------------------------------------------------===//

Status SnapshotReader::open(const std::string &Path) {
  Sections.clear();
  if (faultInjector().shouldFire(FaultSite::SnapshotLoad))
    return Status::failf(StatusCode::IoError,
                         "injected snapshot-load fault for '%s'", Path.c_str());

  Expected<std::vector<uint8_t>> Blob = vfs().readFile(Path);
  if (!Blob)
    return Blob.status();
  return openBuffer(*Blob, Path);
}

Status SnapshotReader::openBuffer(const std::vector<uint8_t> &Blob,
                                  const std::string &Path) {
  Sections.clear();

  // Header.
  if (Blob.size() < 16)
    return Status::failf(StatusCode::Truncated,
                         "snapshot '%s' is %zu bytes, shorter than its header",
                         Path.c_str(), Blob.size());
  if (std::memcmp(Blob.data(), SnapshotMagic, 4) != 0)
    return Status::failf(StatusCode::Corrupt,
                         "'%s' is not a snapshot file (bad magic)",
                         Path.c_str());
  uint32_t Version = readU32(Blob.data() + 4);
  if (Version != SnapshotVersion)
    return Status::failf(StatusCode::Corrupt,
                         "snapshot '%s' has unsupported version %u",
                         Path.c_str(), Version);
  uint32_t Count = readU32(Blob.data() + 8);

  // Sections.
  size_t Pos = 16;
  std::vector<Section> Loaded;
  for (uint32_t I = 0; I != Count; ++I) {
    if (Pos + 4 > Blob.size())
      return Status::failf(StatusCode::Truncated,
                           "snapshot '%s' ends inside section %u's frame",
                           Path.c_str(), I);
    uint32_t TagLen = readU32(Blob.data() + Pos);
    Pos += 4;
    if (TagLen == 0 || TagLen > 64)
      return Status::failf(StatusCode::Corrupt,
                           "snapshot '%s' section %u has tag length %u",
                           Path.c_str(), I, TagLen);
    if (Pos + TagLen + 12 > Blob.size())
      return Status::failf(StatusCode::Truncated,
                           "snapshot '%s' ends inside section %u's frame",
                           Path.c_str(), I);
    std::string Tag(reinterpret_cast<const char *>(Blob.data() + Pos), TagLen);
    Pos += TagLen;
    uint64_t PayloadLen = readU64(Blob.data() + Pos);
    Pos += 8;
    uint32_t WantCrc = readU32(Blob.data() + Pos);
    Pos += 4;
    if (PayloadLen > Blob.size() - Pos)
      return Status::failf(StatusCode::Truncated,
                           "snapshot '%s' section '%s' ends after %zu of "
                           "%llu payload bytes",
                           Path.c_str(), Tag.c_str(), Blob.size() - Pos,
                           static_cast<unsigned long long>(PayloadLen));
    uint32_t GotCrc = crc32(Blob.data() + Pos, PayloadLen);
    if (GotCrc != WantCrc)
      return Status::failf(StatusCode::Corrupt,
                           "snapshot '%s' section '%s' fails its checksum "
                           "(stored %08x, computed %08x)",
                           Path.c_str(), Tag.c_str(), WantCrc, GotCrc);
    Loaded.push_back(Section{
        std::move(Tag),
        std::vector<uint8_t>(Blob.begin() + Pos,
                             Blob.begin() + Pos + PayloadLen)});
    Pos += PayloadLen;
  }
  if (Pos != Blob.size())
    return Status::failf(StatusCode::Corrupt,
                         "snapshot '%s' has %zu trailing bytes", Path.c_str(),
                         Blob.size() - Pos);
  Sections = std::move(Loaded);
  return Status();
}

bool SnapshotReader::hasSection(const std::string &Tag) const {
  for (const Section &S : Sections)
    if (S.Tag == Tag)
      return true;
  return false;
}

SnapshotCursor SnapshotReader::section(const std::string &Tag) const {
  for (const Section &S : Sections)
    if (S.Tag == Tag)
      return SnapshotCursor(S.Tag, S.Payload.data(), S.Payload.size());
  SnapshotCursor C;
  C.fail(Status::failf(StatusCode::Corrupt, "snapshot has no section '%s'",
                       Tag.c_str()));
  return C;
}

//===----------------------------------------------------------------------===//
// Self-healing A/B snapshot slots
//===----------------------------------------------------------------------===//

static const char *const AbGenTag = "ab-generation";

std::string gcache::snapshotSlotA(const std::string &Base) {
  return Base + ".a";
}
std::string gcache::snapshotSlotB(const std::string &Base) {
  return Base + ".b";
}

namespace {

/// One slot's probed state. Probing reads the raw bytes and validates them
/// with openBuffer — deliberately NOT SnapshotReader::open, so slot
/// selection never consumes `snapshot-load` fault occurrences; that site
/// keeps firing exactly once per logical resume, at the authoritative
/// load.
struct SlotProbe {
  std::string Path;
  bool Present = false;  ///< A file exists at Path.
  bool Valid = false;    ///< It parses and carries a generation.
  uint64_t Gen = 0;
  std::vector<uint8_t> Bytes; ///< Raw image (valid slots only; scrub source).
  Status Err;
};

SlotProbe probeSlot(const std::string &Path) {
  SlotProbe P;
  P.Path = Path;
  if (!vfs().exists(Path)) {
    P.Err = Status::failf(StatusCode::IoError, "snapshot slot '%s' is absent",
                          Path.c_str());
    return P;
  }
  P.Present = true;
  Expected<std::vector<uint8_t>> Blob = vfs().readFile(Path);
  if (!Blob) {
    P.Err = Blob.status();
    return P;
  }
  SnapshotReader R;
  if (Status S = R.openBuffer(*Blob, Path); !S.ok()) {
    P.Err = S;
    return P;
  }
  if (!R.hasSection(AbGenTag)) {
    P.Err = Status::failf(StatusCode::Corrupt,
                          "snapshot slot '%s' carries no '%s' section",
                          Path.c_str(), AbGenTag);
    return P;
  }
  SnapshotCursor C = R.section(AbGenTag);
  uint64_t Gen = C.getU64();
  if (Status S = C.finish(); !S.ok()) {
    P.Err = S;
    return P;
  }
  P.Valid = true;
  P.Gen = Gen;
  P.Bytes = Blob.take();
  return P;
}

} // namespace

bool gcache::snapshotAbExists(const std::string &Base) {
  return vfs().exists(snapshotSlotA(Base)) ||
         vfs().exists(snapshotSlotB(Base));
}

Status gcache::writeSnapshotAb(SnapshotWriter &W, const std::string &Base) {
  SlotProbe A = probeSlot(snapshotSlotA(Base));
  SlotProbe B = probeSlot(snapshotSlotB(Base));
  // Overwrite whichever slot does NOT hold the newest valid checkpoint, so
  // the previous good generation survives until this one is durable.
  const std::string &Target =
      (A.Valid && (!B.Valid || A.Gen >= B.Gen)) ? B.Path : A.Path;
  uint64_t Gen = std::max(A.Gen, B.Gen) + 1;
  W.beginSection(AbGenTag);
  W.putU64(Gen);
  return W.writeFile(Target);
}

Status gcache::openSnapshotAb(SnapshotReader &R, const std::string &Base,
                              AbSlotInfo *Info) {
  AbSlotInfo Local;
  AbSlotInfo &I = Info ? *Info : Local;
  I = AbSlotInfo();

  SlotProbe A = probeSlot(snapshotSlotA(Base));
  SlotProbe B = probeSlot(snapshotSlotB(Base));

  if (!A.Valid && !B.Valid) {
    // Both slots are damaged (or the only slot is): report the newer
    // failure — "newer" meaning the slot that exists, or A by convention.
    return (B.Present && !A.Present) ? B.Err : A.Err;
  }

  const SlotProbe &Good = (A.Valid && (!B.Valid || A.Gen >= B.Gen)) ? A : B;
  const SlotProbe &Other = (&Good == &A) ? B : A;

  // Fallback fired iff a slot that should have been newer (it exists but
  // does not validate) lost to an older good one.
  I.FellBack = Other.Present && !Other.Valid;
  I.LoadedPath = Good.Path;
  I.Generation = Good.Gen;

  // The authoritative load — the only SnapshotReader::open of the
  // operation, so the snapshot-load fault site fires here or not at all.
  if (Status S = R.open(Good.Path); !S.ok())
    return S;

  // Scrub: restore redundancy by rewriting the damaged (or missing after a
  // crash consumed it) slot from the good slot's bytes. Failure to scrub
  // is not failure to load; the caller proceeds on the good slot.
  if (!Other.Valid) {
    if (vfs().writeFileAtomic(Other.Path, Good.Bytes.data(),
                              Good.Bytes.size())
            .ok())
      I.Scrubbed = true;
  }
  return Status();
}
