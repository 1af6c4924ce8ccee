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

namespace {

uint32_t readU32(const uint8_t *P) {
  return static_cast<uint32_t>(P[0]) | static_cast<uint32_t>(P[1]) << 8 |
         static_cast<uint32_t>(P[2]) << 16 | static_cast<uint32_t>(P[3]) << 24;
}

uint64_t readU64(const uint8_t *P) {
  return static_cast<uint64_t>(readU32(P)) |
         static_cast<uint64_t>(readU32(P + 4)) << 32;
}

/// A section's frame is a u32 tag length, the tag, then the u64 payload
/// length and u32 payload CRC.
constexpr size_t HeaderBytes = 16;
constexpr size_t LenCrcBytes = 8 + 4;

} // namespace

//===----------------------------------------------------------------------===//
// SnapshotWriter
//===----------------------------------------------------------------------===//

SnapshotWriter::SnapshotWriter() : Image(HeaderBytes, 0) {
  std::memcpy(Image.data(), SnapshotMagic, 4);
  storeU32(Image.data() + 4, SnapshotVersion);
  // Section count (offset 8) is filled in by seal(); offset 12 is reserved.
}

uint8_t *SnapshotWriter::storeU32(uint8_t *P, uint32_t V) {
  P[0] = static_cast<uint8_t>(V);
  P[1] = static_cast<uint8_t>(V >> 8);
  P[2] = static_cast<uint8_t>(V >> 16);
  P[3] = static_cast<uint8_t>(V >> 24);
  return P + 4;
}

uint8_t *SnapshotWriter::storeU64(uint8_t *P, uint64_t V) {
  return storeU32(storeU32(P, static_cast<uint32_t>(V)),
                  static_cast<uint32_t>(V >> 32));
}

void SnapshotWriter::beginSection(const std::string &Tag) {
  assert(!Tag.empty() && Tag.size() <= 64 && "section tag must be 1..64 bytes");
  seal();
  size_t FrameAt = Image.size();
  Image.resize(FrameAt + 4 + Tag.size() + LenCrcBytes);
  storeU32(Image.data() + FrameAt, static_cast<uint32_t>(Tag.size()));
  std::memcpy(Image.data() + FrameAt + 4, Tag.data(), Tag.size());
  Sections.push_back(Section{FrameAt, Image.size()});
}

uint8_t *SnapshotWriter::extend(size_t Len) {
  assert(!Sections.empty() && "put* before beginSection");
  size_t At = Image.size();
  Image.resize(At + Len);
  return Image.data() + At;
}

void SnapshotWriter::putString(const std::string &S) {
  putU64(S.size());
  if (!S.empty())
    std::memcpy(extend(S.size()), S.data(), S.size());
}

void SnapshotWriter::putVecU64(const std::vector<uint64_t> &V) {
  putU64(V.size());
  uint8_t *P = extend(8 * V.size());
  for (uint64_t X : V)
    P = storeU64(P, X);
}

void SnapshotWriter::seal() {
  storeU32(Image.data() + 8, static_cast<uint32_t>(Sections.size()));
  if (Sections.empty())
    return;
  const Section &S = Sections.back();
  size_t PayloadLen = Image.size() - S.PayloadAt;
  uint8_t *Frame = Image.data() + S.PayloadAt - LenCrcBytes;
  storeU64(Frame, PayloadLen);
  storeU32(Frame + 8, crc32(Image.data() + S.PayloadAt, PayloadLen));
}

uint32_t SnapshotWriter::contentCrc() const {
  Crc32 C;
  for (size_t I = 0; I != Sections.size(); ++I) {
    const Section &S = Sections[I];
    uint64_t TagLen = S.PayloadAt - LenCrcBytes - (S.FrameAt + 4);
    C.update(&TagLen, sizeof(TagLen));
    C.update(Image.data() + S.FrameAt + 4, TagLen);
    size_t End = I + 1 != Sections.size() ? Sections[I + 1].FrameAt
                                          : Image.size();
    uint64_t PayloadLen = End - S.PayloadAt;
    C.update(&PayloadLen, sizeof(PayloadLen));
    C.update(Image.data() + S.PayloadAt, PayloadLen);
  }
  return C.value();
}

const std::vector<uint8_t> &SnapshotWriter::image() {
  seal();
  return Image;
}

Status SnapshotWriter::writeFile(const std::string &Path) {
  if (faultInjector().shouldFire(FaultSite::SnapshotWrite))
    return Status::failf(StatusCode::IoError,
                         "injected snapshot-write fault for '%s'",
                         Path.c_str());

  // The Vfs's atomic protocol: `<path>.tmp`, write, fsync, rename. A crash
  // at any point leaves either the old snapshot or no snapshot at Path —
  // never a torn one.
  const std::vector<uint8_t> &Blob = image();
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
  Image.clear();
  if (faultInjector().shouldFire(FaultSite::SnapshotLoad))
    return Status::failf(StatusCode::IoError,
                         "injected snapshot-load fault for '%s'", Path.c_str());

  Expected<std::vector<uint8_t>> Blob = vfs().readFile(Path);
  if (!Blob)
    return Blob.status();
  return openBuffer(Blob.take(), Path);
}

Status SnapshotReader::openBuffer(std::vector<uint8_t> Blob,
                                  const std::string &Path) {
  Sections.clear();
  Image.clear();

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
    Loaded.push_back(Section{std::move(Tag), Pos, PayloadLen});
    Pos += PayloadLen;
  }
  if (Pos != Blob.size())
    return Status::failf(StatusCode::Corrupt,
                         "snapshot '%s' has %zu trailing bytes", Path.c_str(),
                         Blob.size() - Pos);
  Sections = std::move(Loaded);
  Image = std::move(Blob);
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
      return SnapshotCursor(S.Tag, Image.data() + S.PayloadAt, S.PayloadLen);
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
/// (every section's CRC) with openBuffer — deliberately NOT
/// SnapshotReader::open, so slot selection never consumes `snapshot-load`
/// fault occurrences; that site keeps firing exactly once per logical
/// resume, at the authoritative load. The bytes are dropped once the
/// generation is read.
struct SlotProbe {
  std::string Path;
  bool Present = false;  ///< A file exists at Path.
  bool Valid = false;    ///< It parses and carries a generation.
  uint64_t Gen = 0;
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
  if (Status S = R.openBuffer(Blob.take(), Path); !S.ok()) {
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
  // crash consumed it) slot from the good slot's bytes, which R has just
  // read and validated. Failure to scrub is not failure to load; the
  // caller proceeds on the good slot.
  if (!Other.Valid) {
    const std::vector<uint8_t> &Bytes = R.image();
    if (vfs().writeFileAtomic(Other.Path, Bytes.data(), Bytes.size()).ok())
      I.Scrubbed = true;
  }
  return Status();
}
