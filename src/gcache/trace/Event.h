//===- Event.h - Data-reference trace events --------------------*- C++ -*-===//
//
// Part of the gcache project (Reinhold, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reference-trace event model. The paper's measurements were made by
/// running each program under an instruction-level emulator; here, the VM
/// and heap emit one Ref event per simulated data load/store, tagged with
/// the execution phase (mutator vs. collector) so that the §6 accounting
/// can separate M_gc from M_prog. Allocation events carry the advancing
/// allocation frontier that defines the paper's allocation cycles.
///
/// Delivery contract of a live run: the heap buffers its references and
/// hands them to the bus in spans (TraceSink::onRefs). A sink sees each
/// reference, in program order, no later than the first of: the next
/// allocation event, GC begin, GC end or GC phase marker, cooperative poll
/// site (vm-step, gc-step), tracing toggle or bus change, full buffer, or
/// Heap::flushTrace(). Every non-reference event therefore reaches a sink
/// after every reference emitted before it, exactly as in the stream.
/// Trace-file replay still delivers one reference at a time (onRef).
///
//===----------------------------------------------------------------------===//

#ifndef GCACHE_TRACE_EVENT_H
#define GCACHE_TRACE_EVENT_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace gcache {

/// Simulated byte address. The simulated machine is 32-bit (MIPS R3000 in
/// the paper), so 32 bits of virtual address space suffice.
using Address = uint32_t;

/// Whether a data reference reads or writes memory.
enum class AccessKind : uint8_t { Load, Store };

/// Who is executing: the program or the garbage collector. The paper's
/// overhead metrics charge these to different accounts (§6).
enum class Phase : uint8_t { Mutator, Collector };

/// One simulated data reference. Word-sized (4-byte) accesses only, as on
/// the paper's MIPS R3000 data path.
struct Ref {
  Address Addr;
  AccessKind Kind;
  Phase ExecPhase;
};

/// The phase of a stepped collection cycle (gc/Collector.h). Idle means no
/// cycle is active; Begin tags the marker a cycle emits right after its
/// GcBegin event; the remaining values label the work each bounded step
/// performs. Values appear in trace files (OpGcPhase), so they are stable.
enum class GcPhase : uint8_t {
  Idle = 0,
  Begin = 1,
  RootScan = 2,
  Trace = 3,
  Sweep = 4,
  Finish = 5,
};
constexpr unsigned NumGcPhases = 6;

/// Stable display name of \p P ("idle", "root-scan", ...).
const char *gcPhaseName(GcPhase P);

/// A borrowed run of references in columnar form: the address, kind and
/// phase columns of Size references, valid only for the duration of the
/// call that receives it. Kind and PhaseTag hold the numeric values of
/// AccessKind and Phase, as in RefColumns.
struct RefSpan {
  const Address *Addr = nullptr;
  const uint8_t *Kind = nullptr;
  const uint8_t *PhaseTag = nullptr;
  size_t Size = 0;

  size_t size() const { return Size; }

  /// Reassembles row \p I as a Ref.
  Ref operator[](size_t I) const {
    return {Addr[I], static_cast<AccessKind>(Kind[I]),
            static_cast<Phase>(PhaseTag[I])};
  }

  /// The \p N references starting at \p Off.
  RefSpan subspan(size_t Off, size_t N) const {
    return {Addr + Off, Kind + Off, PhaseTag + Off, N};
  }
};

/// Adds the references of \p S to \p Counts, indexed [phase][kind]. Kinds
/// and phase tags are 0 or 1, so three byte sums (stores, collector
/// references, collector stores) give all four counts. The sums take eight
/// references at a time: a 64-bit word of kind (or phase) bytes is added
/// lane by lane, and up to 255 words fit in the byte lanes before they are
/// folded into 64-bit totals, so a span of any length fits. No sum depends
/// on the previous reference's count, unlike an increment per reference.
inline void tallyRefs(const RefSpan &S, uint64_t (&Counts)[2][2]) {
  // The sum of a word's eight byte lanes, each at most 255.
  auto LaneSum = [](uint64_t X) {
    X = (X & 0x00ff00ff00ff00ffull) + ((X >> 8) & 0x00ff00ff00ff00ffull);
    return (X * 0x0001000100010001ull) >> 48;
  };
  uint64_t Stores = 0, Collector = 0, CollectorStores = 0;
  const size_t N = S.size();
  size_t I = 0;
  while (N - I >= 8) {
    uint64_t K = 0, P = 0, KP = 0;
    for (unsigned W = 0; W != 255 && N - I >= 8; ++W, I += 8) {
      uint64_t WK, WP;
      std::memcpy(&WK, S.Kind + I, 8);
      std::memcpy(&WP, S.PhaseTag + I, 8);
      K += WK;
      P += WP;
      KP += WK & WP;
    }
    Stores += LaneSum(K);
    Collector += LaneSum(P);
    CollectorStores += LaneSum(KP);
  }
  for (; I != N; ++I) {
    Stores += S.Kind[I];
    Collector += S.PhaseTag[I];
    CollectorStores += S.Kind[I] & S.PhaseTag[I];
  }
  Counts[1][1] += CollectorStores;
  Counts[1][0] += Collector - CollectorStores;
  Counts[0][1] += Stores - CollectorStores;
  Counts[0][0] += N - Stores - Collector + CollectorStores;
}

/// A batch of references in structure-of-arrays (columnar) form: the
/// addresses, access kinds, and phase tags live in three separate
/// contiguous columns instead of an array of Ref structs. This is the unit
/// of work of the cache bank (memsys/CacheBank.h): a column scan touches
/// only the bytes the inner loop actually needs.
///
/// Invariant: all three columns are the same length. Kind and PhaseTag
/// hold the numeric values of AccessKind and Phase, as push_back and
/// append copy them from references and spans.
struct RefColumns {
  std::vector<Address> Addr;
  std::vector<uint8_t> Kind;     ///< AccessKind as its underlying value.
  std::vector<uint8_t> PhaseTag; ///< Phase as its underlying value.

  size_t size() const { return Addr.size(); }
  bool empty() const { return Addr.empty(); }

  void clear() {
    Addr.clear();
    Kind.clear();
    PhaseTag.clear();
  }

  void reserve(size_t N) {
    Addr.reserve(N);
    Kind.reserve(N);
    PhaseTag.reserve(N);
  }

  void push_back(const Ref &R) {
    Addr.push_back(R.Addr);
    Kind.push_back(static_cast<uint8_t>(R.Kind));
    PhaseTag.push_back(static_cast<uint8_t>(R.ExecPhase));
  }

  /// Appends every reference of \p S (one bulk copy per column).
  void append(const RefSpan &S) {
    Addr.insert(Addr.end(), S.Addr, S.Addr + S.Size);
    Kind.insert(Kind.end(), S.Kind, S.Kind + S.Size);
    PhaseTag.insert(PhaseTag.end(), S.PhaseTag, S.PhaseTag + S.Size);
  }

  /// Reassembles row \p I as a Ref.
  Ref get(size_t I) const {
    return {Addr[I], static_cast<AccessKind>(Kind[I]),
            static_cast<Phase>(PhaseTag[I])};
  }
};

/// Receives the reference stream of one program run. The hot entry points
/// are onRef and onRefs; the remaining hooks have empty defaults.
class TraceSink {
public:
  virtual ~TraceSink();

  /// Called once per simulated data reference, in program order, by
  /// trace-file replay and by the default onRefs.
  virtual void onRef(const Ref &R) = 0;

  /// Called with the next run of references of a live run (see the
  /// delivery contract above). The default calls onRef per reference; a
  /// sink on a live bus overrides it with one loop over its onRef body.
  virtual void onRefs(const RefSpan &S) {
    for (size_t I = 0; I != S.size(); ++I)
      onRef(S[I]);
  }

  /// Called when \p Bytes of fresh storage are allocated at \p Addr in the
  /// dynamic area (before its initializing stores are emitted).
  virtual void onAlloc(Address Addr, uint32_t Bytes) {}

  /// Called when a garbage collection begins / ends.
  virtual void onGcBegin() {}
  virtual void onGcEnd() {}

  /// Called at the start of every bounded collector step with the phase of
  /// the work about to run (and once with GcPhase::Begin right after
  /// onGcBegin). Markers partition the collector's references by phase;
  /// they carry no references themselves, so sinks that only count or
  /// simulate refs can ignore them.
  virtual void onGcPhase(GcPhase P) { (void)P; }
};

} // namespace gcache

#endif // GCACHE_TRACE_EVENT_H
