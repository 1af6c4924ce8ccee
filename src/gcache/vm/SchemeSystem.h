//===- SchemeSystem.h - Heap + collector + VM facade ------------*- C++ -*-===//
//
// Part of the gcache project (Reinhold, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Wires a complete Scheme system: a traced heap, a collector (none /
/// Cheney / generational, per configuration), the VM with its primitives,
/// and the Scheme prelude, loaded in load mode into the static area. The
/// experiment drivers use this facade as "the T system": loadDefinitions()
/// installs a program, run() performs the measured, traced program run.
///
//===----------------------------------------------------------------------===//

#ifndef GCACHE_VM_SCHEMESYSTEM_H
#define GCACHE_VM_SCHEMESYSTEM_H

#include "gcache/gc/CheneyCollector.h"
#include "gcache/gc/Collector.h"
#include "gcache/gc/GenerationalCollector.h"
#include "gcache/gc/MarkSweepCollector.h"
#include "gcache/vm/VM.h"

#include <memory>
#include <string>

namespace gcache {

/// Which collector manages the dynamic area.
enum class GcKind : uint8_t {
  None,         ///< Linear allocation, unbounded (the §5 control).
  Cheney,       ///< Semispace compacting collector (§6).
  Generational, ///< Two-generation collector (§6 discussion).
  MarkSweep,    ///< Non-moving free-list collector (§8 counterfactual).
};

/// System configuration.
struct SchemeSystemConfig {
  GcKind Gc = GcKind::None;
  /// Cheney semispace size (the paper's runs use 16 MB).
  uint32_t SemispaceBytes = 16u << 20;
  /// Generational sizing; NurseryBytes <= cache size gives the paper's
  /// "aggressive" collector.
  GenerationalConfig Generational;
  /// Receives the trace of the measured run (may be null).
  TraceSink *Bus = nullptr;
  /// Seed for the static-area scatter layout (0 = default layout).
  uint64_t LayoutSeed = 0;
  /// Run verifyHeapRange over the live heap after every collection and at
  /// every injected allocation failure. Verification only peeks (untraced
  /// reads), so all simulated counters stay bit-identical; see
  /// Collector::setParanoid.
  bool Paranoid = false;
  /// Certify the in-flight cycle's per-phase invariants (GcCertifier) at
  /// every step boundary; peek-only too. See Collector::setPhaseParanoid.
  bool ParanoidPhase = false;
};

/// Statistics of one measured run.
struct RunStats {
  uint64_t Instructions = 0;      ///< I_prog (mutator instructions).
  uint64_t ExtraInstructions = 0; ///< ΔI_prog (rehash + barrier work).
  uint64_t DynamicBytes = 0;      ///< Bytes allocated during the run.
  GcStats Gc;                     ///< Collector activity during the run.
};

/// A complete, ready-to-run Scheme system.
class SchemeSystem {
public:
  explicit SchemeSystem(const SchemeSystemConfig &Config);
  ~SchemeSystem();

  VM &vm() { return *TheVM; }
  Heap &heap() { return *TheHeap; }
  Collector &collector() { return *TheCollector; }
  const SchemeSystemConfig &config() const { return Config; }

  /// Loads program text in load mode (untraced; allocates statically).
  void loadDefinitions(const std::string &Source);

  /// Compiles \p Source, then executes it traced in run mode, returning
  /// the value of the last form. Statistics land in lastRunStats().
  /// Raises StatusError on read/compile/runtime failure or an injected
  /// fault (heap-oom, step-abort, ...); the experiment layer catches it
  /// at the unit boundary (Experiment::tryRunProgram).
  Value run(const std::string &Source);

  const RunStats &lastRunStats() const { return LastRun; }

  /// Fraction of the last run's top-level forms that completed, in
  /// [0, 1]; negative before any run. After a cooperative cancellation
  /// unwinds run(), lastRunStats() still holds the completed prefix's
  /// statistics and this reports how much of the workload they cover.
  double lastRunCoverage() const {
    return FormsTotal ? double(FormsCompleted) / double(FormsTotal) : -1.0;
  }

private:
  SchemeSystemConfig Config;
  std::unique_ptr<Heap> TheHeap;
  std::unique_ptr<VM> TheVM;
  std::unique_ptr<Collector> TheCollector;
  RunStats LastRun;
  uint64_t FormsCompleted = 0;
  uint64_t FormsTotal = 0;
};

} // namespace gcache

#endif // GCACHE_VM_SCHEMESYSTEM_H
