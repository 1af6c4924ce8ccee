//===- Snapshot.h - Crash-safe simulation-state snapshots -------*- C++ -*-===//
//
// Part of the gcache project (Reinhold, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The checkpoint/resume substrate. A snapshot is a small container file
/// holding named, individually CRC-32-checksummed sections. A replay
/// checkpoint stores the cache bank, the counting sink, the fault injector
/// and the replay cursor, each in one or more sections, and each restores
/// itself bit-identically from them.
///
/// Durability contract:
///  - SnapshotWriter::writeFile writes to `<path>.tmp`, fflushes, fsyncs,
///    and atomically renames onto `<path>`, so a crash mid-write can never
///    leave a half-written file at the snapshot path.
///  - SnapshotReader::open validates the whole file — magic, version,
///    section framing, and every section's CRC — before exposing any
///    section, and reports StatusCode::Truncated (file ends early: a torn
///    or interrupted write) distinctly from StatusCode::Corrupt (framing or
///    checksum violation: the bytes are not what was written). A damaged
///    snapshot is therefore always *detected*; it is never loaded as valid
///    data.
///
/// File format (version 1, all integers little-endian):
///   header   "GCSP" u32 version u32 sectionCount u32 reserved(0)
///   section  u32 tagLen, tag bytes, u64 payloadLen, u32 payloadCrc, payload
///
/// Checkpoint I/O is itself fault-injectable: writeFile is the
/// `snapshot-write` site and open the `snapshot-load` site (see
/// support/FaultInjector.h), so tests can prove that checkpoint failures
/// degrade as structured errors rather than crashes.
///
//===----------------------------------------------------------------------===//

#ifndef GCACHE_SUPPORT_SNAPSHOT_H
#define GCACHE_SUPPORT_SNAPSHOT_H

#include "gcache/support/Status.h"

#include <cstdint>
#include <string>
#include <vector>

namespace gcache {

class SnapshotWriter;
class SnapshotCursor;

/// Builds the container image in one buffer as sections are put, then
/// writes it out atomically. Each section's frame is appended when the
/// section begins; its payload length and CRC are filled in when the next
/// section begins or the image is taken, so the bytes written are the
/// buffer itself, never a copy.
class SnapshotWriter {
public:
  SnapshotWriter();

  /// Starts a new section; subsequent put* calls append to it. \p Tag must
  /// be non-empty and at most 64 bytes.
  void beginSection(const std::string &Tag);

  void putU8(uint8_t V) { *extend(1) = V; }
  void putU32(uint32_t V) { storeU32(extend(4), V); }
  void putU64(uint64_t V) { storeU64(extend(8), V); }
  /// u64 length followed by the raw bytes.
  void putString(const std::string &S);
  /// u64 element count followed by the values.
  void putVecU64(const std::vector<uint64_t> &V);

  /// Appends \p Len bytes to the open section and returns where they
  /// start, for encoders that fill a large array in one pass (with
  /// storeU32/storeU64, so the bytes are what the put* calls would have
  /// written). The pointer is valid until the next put.
  uint8_t *extend(size_t Len);

  /// Little-endian encoders for extend()ed space; each returns the byte
  /// after the value.
  static uint8_t *storeU32(uint8_t *P, uint32_t V);
  static uint8_t *storeU64(uint8_t *P, uint64_t V);

  size_t sectionCount() const { return Sections.size(); }

  /// CRC-32 over every section's tag and payload — a strong digest of the
  /// serialized state, independent of which file (or A/B slot) it lands
  /// in. Two writers with bit-identical state have equal contentCrc().
  uint32_t contentCrc() const;

  /// The exact container image writeFile persists (header + framed
  /// sections), for callers that place the bytes themselves. Later puts
  /// extend it; take it again afterwards.
  const std::vector<uint8_t> &image();

  /// Writes the image to `<Path>.tmp`, fsyncs, and renames onto \p Path —
  /// all through the process Vfs. On any failure (including an injected
  /// `snapshot-write` fault) the temporary file is removed and IoError is
  /// returned; the previous snapshot at \p Path, if any, is left
  /// untouched.
  Status writeFile(const std::string &Path);

private:
  /// Fills in the last section's payload length and CRC and the header's
  /// section count.
  void seal();

  struct Section {
    size_t FrameAt;   ///< Offset of the section's u32 tag length.
    size_t PayloadAt; ///< Offset of its first payload byte.
  };
  std::vector<Section> Sections;
  std::vector<uint8_t> Image;
};

/// A sticky-error read cursor over one section's payload. Reading past the
/// end latches a Truncated error and returns zeros; callers check
/// finish()/status() once after decoding instead of after every field.
class SnapshotCursor {
public:
  SnapshotCursor() = default;
  SnapshotCursor(std::string Tag, const uint8_t *Data, size_t Len)
      : Tag(std::move(Tag)), Data(Data), Len(Len) {}

  uint8_t getU8();
  uint32_t getU32();
  uint64_t getU64();
  std::string getString();
  std::vector<uint64_t> getVecU64();

  size_t remaining() const { return Len - Pos; }
  bool ok() const { return Error.ok(); }
  const Status &status() const { return Error; }

  /// Ok exactly when every read succeeded and the payload was consumed in
  /// full (leftover bytes mean the reader and writer disagree about the
  /// format and the data cannot be trusted).
  Status finish() const;

  /// Latches a caller-detected validation failure (e.g. a geometry
  /// mismatch) so it surfaces through finish().
  void fail(Status S);

private:
  bool take(void *Out, size_t N);
  void latchTruncated(uint64_t Wanted);

  std::string Tag;
  const uint8_t *Data = nullptr;
  size_t Len = 0;
  size_t Pos = 0;
  Status Error;
};

/// Loads a snapshot file, validates it in full, and hands out section
/// cursors that read the validated image in place.
class SnapshotReader {
public:
  /// Reads and validates \p Path. Returns IoError when the file cannot be
  /// read (including an injected `snapshot-load` fault), Truncated when it
  /// ends mid-structure, and Corrupt when magic, version, framing, or any
  /// section CRC is wrong. After a failed open no section is accessible.
  Status open(const std::string &Path);

  /// open() over an in-memory image instead of a file — the same
  /// validation semantics. \p Name labels diagnostics. This is the
  /// fuzzing entry point: hostile bytes go through the identical code
  /// path as hostile files.
  Status openBuffer(std::vector<uint8_t> Bytes,
                    const std::string &Name = "<buffer>");

  bool hasSection(const std::string &Tag) const;
  /// Cursor over the section's payload; a missing section returns a cursor
  /// whose status is already Corrupt (the caller's finish() reports it).
  /// The cursor reads this reader's image, so it must not outlive it.
  SnapshotCursor section(const std::string &Tag) const;

  size_t sectionCount() const { return Sections.size(); }
  /// Tag of the I-th section in file order (tests and fuzz walkers).
  const std::string &sectionTag(size_t I) const { return Sections[I].Tag; }

  /// The validated container image (empty after a failed open).
  const std::vector<uint8_t> &image() const { return Image; }

private:
  struct Section {
    std::string Tag;
    size_t PayloadAt;
    size_t PayloadLen;
  };
  std::vector<Section> Sections;
  std::vector<uint8_t> Image;
};

//===----------------------------------------------------------------------===//
// Self-healing A/B snapshot slots
//===----------------------------------------------------------------------===//
//
// A single snapshot file is atomic against crashes *during its own write*,
// but once it is the only copy, any later damage (torn sector, bit rot, a
// power cut racing the page cache) voids the whole checkpoint. The A/B
// scheme keeps two slots, `<base>.a` and `<base>.b`, each a complete
// snapshot carrying an "ab-generation" section with a monotonically
// increasing generation counter:
//
//  - writeSnapshotAb targets whichever slot is NOT the newest valid one
//    (round-robin in the steady state), with generation max+1, so the
//    previous good checkpoint survives until the new one is durable.
//  - openSnapshotAb loads the highest-generation valid slot; when the
//    newer slot is damaged it *falls back* to the older good one, and the
//    open-time scrubber rewrites the damaged slot from the good slot's
//    bytes so redundancy is restored before the run proceeds.

/// What openSnapshotAb found and did — the fallback/scrub telemetry the
/// mutation tests assert on.
struct AbSlotInfo {
  std::string LoadedPath;    ///< The slot that served.
  uint64_t Generation = 0;   ///< Its generation.
  bool FellBack = false;     ///< The newer slot was damaged; used the older.
  bool Scrubbed = false;     ///< A damaged/missing slot was repaired.
};

/// Paths of the two slots for \p Base.
std::string snapshotSlotA(const std::string &Base);
std::string snapshotSlotB(const std::string &Base);

/// True when a resumable checkpoint exists at \p Base: either A/B slot.
bool snapshotAbExists(const std::string &Base);

/// Appends the "ab-generation" section to \p W and writes it into the slot
/// that does not hold the newest valid checkpoint. \p W must not already
/// carry an "ab-generation" section (build a fresh writer per cut).
Status writeSnapshotAb(SnapshotWriter &W, const std::string &Base);

/// Opens the best slot for \p Base into \p R (see scheme comment above).
/// On success \p Info (if non-null) reports which slot served, whether
/// fallback fired, and whether the scrubber repaired the other slot. When
/// both slots are damaged, returns the newer slot's error.
Status openSnapshotAb(SnapshotReader &R, const std::string &Base,
                      AbSlotInfo *Info = nullptr);

} // namespace gcache

#endif // GCACHE_SUPPORT_SNAPSHOT_H
