//===- TraceFile.h - Binary reference-trace files ---------------*- C++ -*-===//
//
// Part of the gcache project (Reinhold, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A compact binary on-disk format for reference traces. The experiments
/// normally run execution-driven (the program feeds the simulators live),
/// but a file format allows decoupled replay, cross-checking, testing, and
/// — together with the snapshot layer — crash-safe checkpointed replay:
/// write a run once, then re-simulate it under many cache models, resuming
/// after an interruption from the exact record where a checkpoint was cut.
///
/// Format (version 3, all integers little-endian):
///   header   "GCTR", u32 version, u64 record count
///   records  one per event: 1-byte opcode (kind+phase or control event),
///            4-byte address, and for allocations a further 4-byte size
///   footer   "GCTF", u32 CRC-32 over all record bytes
/// Opcodes: 0/1 mutator load/store, 2/3 collector load/store (bit 0 is
/// the access kind, bit 1 the phase), 4 allocation (address, size),
/// 5 GC begin, 6 GC end, 7 GC phase marker (the phase in the address
/// field); the control events carry 0 where no value is named.
///
/// The GC phase marker record (opcode 7, 5 bytes) lets the stepped
/// collectors emit one marker per bounded step, so a trace partitions
/// every collector reference by the phase that produced it, and step
/// shapes are observable from the artifact alone (trace_inspect
/// --gc-phases); a marker whose phase value is out of range is Corrupt.
/// Only version 3 is read: versions 1 and 2 (no phase markers; version 1
/// also without the footer) are refused as Corrupt.
///
/// The writer is durable: the stream goes to `<path>.tmp` and is flushed,
/// fsynced, and atomically renamed onto the final path only when close()
/// succeeds — a crash or write failure never leaves a half-written trace
/// at the final path.
///
/// The writer encodes records into one 64 KiB chunk and checksums and
/// writes the chunk when it fills (and at close()), so the Vfs sees one
/// write per chunk, not one per record.
///
/// Error handling: open() and close() return Status; mid-stream write
/// failures (a failed chunk write, injected trace-write disk-full) latch a
/// sticky IoError visible through status(), and the writer stops emitting
/// so a single failure does not cascade into thousands of write errors.
/// Because records are buffered, a write error reaches status() up to one
/// chunk late: when the chunk holding the record is written, at the
/// latest at close(). The trace-write fault site still counts every
/// record; the Vfs's io-* sites count one write per chunk.
/// Readers distinguish StatusCode::Corrupt (bad magic, unknown opcode or
/// version, checksum or record-count mismatch) from StatusCode::Truncated
/// (the file ends mid-structure), and an opt-in salvage mode replays the
/// longest valid record prefix of a damaged file instead of refusing it.
///
//===----------------------------------------------------------------------===//

#ifndef GCACHE_TRACE_TRACEFILE_H
#define GCACHE_TRACE_TRACEFILE_H

#include "gcache/support/Crc32.h"
#include "gcache/support/Status.h"
#include "gcache/trace/Event.h"

#include <memory>
#include <string>
#include <vector>

namespace gcache {

class VfsFile;

/// Streams trace events to a binary file (current version, with footer),
/// durably: the final path is only ever empty, the complete old file, or
/// the complete new file.
class TraceWriter final : public TraceSink {
public:
  TraceWriter(); // Out of line: File's deleter needs the complete type.

  /// Opens `<Path>.tmp` for writing; on error returns IoError and stays
  /// closed. The file appears at \p Path when close() succeeds.
  Status open(const std::string &Path);

  /// Writes the checksum footer, finalizes the header, fsyncs, and
  /// atomically renames the temporary onto the final path. Returns the
  /// sticky stream status: any short write during the stream (including an
  /// injected trace-write fault) or a failed finalize surfaces here, and
  /// on failure the temporary is removed — nothing is installed.
  Status close();

  bool isOpen() const { return File != nullptr; }
  uint64_t recordCount() const { return Records; }

  /// Sticky stream state: Ok until the first write failure, then the
  /// IoError that stopped the stream. TraceSink callbacks cannot return
  /// errors, so mid-run failures are reported here and at close(). A
  /// write error shows here up to one chunk late (see the file comment).
  const Status &status() const { return StreamStatus; }

  void onRef(const Ref &R) override;
  /// One record per reference, so the trace-write fault site still
  /// counts records.
  void onRefs(const RefSpan &S) override;
  void onAlloc(Address Addr, uint32_t Bytes) override;
  void onGcBegin() override;
  void onGcEnd() override;
  void onGcPhase(GcPhase P) override;

  ~TraceWriter() override;

private:
  /// Bytes of encoded records buffered per write.
  static constexpr size_t ChunkBytes = 64 * 1024;

  void emit(uint8_t Op, uint32_t A, uint32_t B, bool HasB);
  /// Checksums and writes the buffered records; a failure latches
  /// StreamStatus.
  void flushChunk();

  std::unique_ptr<VfsFile> File;
  std::unique_ptr<uint8_t[]> Chunk; ///< ChunkBytes, allocated at open().
  size_t ChunkFill = 0;             ///< Encoded bytes in Chunk.
  std::string FinalPath;
  std::string TmpPath;
  uint64_t Records = 0;
  Crc32 RecordCrc;
  Status StreamStatus;
};

/// One decoded trace record.
struct TraceRecord {
  enum class Kind : uint8_t { Ref, Alloc, GcBegin, GcEnd, GcPhase };
  Kind Op = Kind::Ref;
  Ref R;                   ///< Valid for Kind::Ref.
  Address AllocAddr = 0;   ///< Valid for Kind::Alloc.
  uint32_t AllocBytes = 0; ///< Valid for Kind::Alloc.
  GcPhase PhaseMark = GcPhase::Idle; ///< Valid for Kind::GcPhase.

  /// Forwards this record to the matching TraceSink callback.
  void dispatch(TraceSink &S) const;
};

/// A validated, seekable reader over one trace file's record stream — the
/// substrate for both whole-file replay and checkpointed resume.
///
/// open() reads and validates the entire file up front (framing, record
/// count, and the footer checksum), so next() never fails mid-stream
/// and a malformed trace never partially mutates a sink. recordIndex() and
/// byteOffset() identify the exact resume point for a checkpoint;
/// seekTo() returns there.
class TraceStream {
public:
  /// Opens and fully validates \p Path. Returns IoError (unreadable),
  /// Corrupt (bad magic/version/opcode, checksum or count mismatch,
  /// trailing bytes), or Truncated (ends mid-structure). With \p Salvage,
  /// structural damage is not fatal: the stream is cut to the longest
  /// valid record prefix, open() succeeds, and the suppressed error is
  /// reported by damage().
  Status open(const std::string &Path, bool Salvage = false);

  /// open() over an in-memory image instead of a file — the same
  /// validation, salvage, and replay semantics. \p Name labels
  /// diagnostics. This is the fuzzing entry point: hostile bytes go
  /// through the identical code path as hostile files.
  Status openBuffer(std::vector<uint8_t> Bytes, bool Salvage = false,
                    const std::string &Name = "<buffer>");

  /// Decodes the next record; false at end of stream.
  bool next(TraceRecord &Rec);

  /// Batched decode: appends up to \p MaxRefs consecutive data-reference
  /// records to \p Out's columns and returns how many were appended. Stops
  /// early — without consuming anything further — at the first non-Ref
  /// record (allocation or GC marker, which the caller replays via next()
  /// so event order is preserved) or at end of stream. Decoding is
  /// columnar all the way down: the opcode's low bit is the AccessKind and
  /// its next bit the Phase, so a run of references becomes three column
  /// appends per record with no intermediate TraceRecord. recordIndex()
  /// and byteOffset() advance exactly as if next() had been called per
  /// record, so checkpoint resume points are unaffected.
  size_t nextRefBatch(RefColumns &Out, size_t MaxRefs);

  /// Records decoded so far / the byte position of the next record.
  uint64_t recordIndex() const { return Index; }
  uint64_t byteOffset() const { return Pos; }

  /// Repositions to a (recordIndex, byteOffset) pair previously read from
  /// this trace (typically out of a checkpoint). The offset is validated
  /// against the record stream's bounds.
  Status seekTo(uint64_t RecordIndex, uint64_t ByteOffset);

  /// Valid records in the (possibly salvage-cut) stream.
  uint64_t recordCount() const { return Count; }

  /// Ok unless salvage mode suppressed damage; then the Corrupt/Truncated
  /// status describing what was cut off.
  const Status &damage() const { return Damage; }

  /// Record count promised by the header (meaningful even when salvage cut
  /// the stream short).
  uint64_t declaredRecordCount() const { return Declared; }
  /// What a salvage cut dropped: file bytes after the last whole record,
  /// and header-promised records that are not in the salvaged prefix.
  /// Both 0 for an undamaged stream.
  uint64_t droppedBytes() const {
    return Damage.ok() ? 0 : Data.size() - RecordsEnd;
  }
  uint64_t droppedRecords() const {
    return !Damage.ok() && Declared > Count ? Declared - Count : 0;
  }

private:
  std::vector<uint8_t> Data; ///< Whole file, validated at open().
  size_t RecordsBegin = 0;   ///< First record byte.
  size_t RecordsEnd = 0;     ///< One past the last valid record byte.
  size_t Pos = 0;
  uint64_t Index = 0;
  uint64_t Count = 0;
  uint64_t Declared = 0; ///< Header's record count.
  Status Damage;
};

/// Summary of how a trace's reference stream divides into columnar
/// batches of a given capacity (trace_inspect --batch-stats). A batch is
/// a maximal run of consecutive data-reference records, split at the
/// capacity: allocation records and GC markers end the run, mirroring the
/// flush points of batched replay.
struct TraceBatchStats {
  uint64_t Refs = 0;          ///< Data-reference records.
  uint64_t OtherRecords = 0;  ///< Allocations and GC markers.
  uint64_t Batches = 0;       ///< Non-empty batches produced.
  uint64_t FullBatches = 0;   ///< Batches cut by the capacity, not a marker.
  uint64_t MinBatch = 0;      ///< Smallest batch (0 when no batches).
  uint64_t MaxBatch = 0;      ///< Largest batch.
  /// Per-phase / per-kind column occupancy over all batched references.
  uint64_t MutatorRefs = 0;
  uint64_t CollectorRefs = 0;
  uint64_t Loads = 0;
  uint64_t Stores = 0;

  double meanBatch() const {
    return Batches ? static_cast<double>(Refs) / Batches : 0.0;
  }
};

/// Scans \p S from its current position to the end, batching with
/// capacity \p BatchRefs (0 means unlimited runs).
TraceBatchStats collectTraceBatchStats(TraceStream &S, size_t BatchRefs);

/// Per-trace GC phase statistics (trace_inspect --gc-phases): how many
/// cycles and bounded steps the trace's collections took, and how its
/// references distribute over the stepped phases. Collector references
/// before the first marker of a cycle show up as unattributed.
struct TracePhaseStats {
  uint64_t Cycles = 0;     ///< GcBegin records.
  uint64_t PhaseMarks = 0; ///< GC phase markers (including Begin).
  uint64_t Steps = 0;      ///< Step markers (excluding Begin) in cycles.
  uint64_t MinSteps = 0;   ///< Fewest steps of any cycle (0 when none).
  uint64_t MaxSteps = 0;   ///< Most steps of any cycle.
  uint64_t MarksByPhase[NumGcPhases] = {};
  uint64_t RefsByPhase[NumGcPhases] = {}; ///< Refs under each phase marker.
  uint64_t MutatorRefs = 0;               ///< Refs outside any cycle.
  /// Collector refs outside any phase marker.
  uint64_t UnattributedCollectorRefs = 0;

  double meanSteps() const {
    return Cycles ? static_cast<double>(Steps) / Cycles : 0.0;
  }
};

/// Scans \p S from its current position to the end.
TracePhaseStats collectTracePhaseStats(TraceStream &S);

/// Replay options for TraceReader::replayEx.
struct ReplayOptions {
  bool Salvage = false; ///< Replay the longest valid prefix of damage.
};

/// Replays a binary trace file into a sink.
class TraceReader {
public:
  /// Reads \p Path and replays every event into \p Sink. Returns the
  /// number of records replayed, or the open error (IoError / Corrupt /
  /// Truncated — see TraceStream::open). With Opts.Salvage, damaged files
  /// replay their longest valid prefix instead of failing.
  static Expected<uint64_t> replayEx(const std::string &Path, TraceSink &Sink,
                                     const ReplayOptions &Opts = {});
};

} // namespace gcache

#endif // GCACHE_TRACE_TRACEFILE_H
