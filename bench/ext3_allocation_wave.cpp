//===- ext3_allocation_wave.cpp - §8 conjecture: the allocation wave -----------===//
//
// The paper's closing conjecture: "allocation can be faster than
// mutation" — a mostly-functional program riding the linear-allocation
// wave should beat the same computation running over recycled storage,
// because free-list reuse scatters consecutive allocations and destroys
// the one-cycle-block structure of §7. This extension runs each workload
// under linear allocation with the Cheney collector vs. a non-moving
// mark-sweep collector with the SAME total memory budget, and compares:
//
//  - the fraction of one-cycle-like allocation behaviour (adjacency of
//    consecutive allocations),
//  - mutator fetch misses and O_cache,
//  - total overhead including collector and allocation (free-list search)
//    instruction costs.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace gcache;

namespace {

/// Measures how often consecutive dynamic allocations are adjacent (the
/// linear-allocation wave) vs. scattered (free-list reuse).
class AdjacencySink final : public TraceSink {
public:
  void onRef(const Ref &) override {}
  void onRefs(const RefSpan &) override {}
  void onAlloc(Address A, uint32_t Bytes) override {
    if (LastEnd && A == LastEnd)
      ++Adjacent;
    ++Total;
    LastEnd = A + Bytes;
  }
  double adjacentFraction() const {
    return Total ? static_cast<double>(Adjacent) / Total : 0;
  }

private:
  Address LastEnd = 0;
  uint64_t Adjacent = 0, Total = 0;
};

} // namespace

int main(int Argc, char **Argv) {
  BenchArgs A = parseBenchArgs(Argc, Argv);
  benchHeader("Extension 3 (§8 conjecture)",
              "linear allocation (Cheney) vs free-list reuse (mark-sweep), "
              "equal memory budgets, 64kb/64b",
              A);

  Machine Slow = slowMachine();
  Machine Fast = fastMachine();
  Table T({"program", "collector", "adjacent allocs", "mutator misses",
           "GCs", "O_cache 64kb slow", "total ovh 64kb fast"});

  BenchUnitRunner Runner;
  for (const Workload *W : selectWorkloads(A)) {
    ExperimentOptions Ctrl = baseExperimentOptions(A);
    Ctrl.Grid = CacheGridKind::None;
    Expected<ProgramRun> Probe = Runner.run(W->Name + " (probe)", *W, Ctrl);
    if (!Probe.ok())
      continue;
    uint32_t Semi = semispaceFor(*Probe);

    for (GcKind Kind : {GcKind::Cheney, GcKind::MarkSweep}) {
      AdjacencySink Adjacency;
      Cache Sim({.SizeBytes = 64 << 10, .BlockBytes = 64});
      // The cache rides as an extra sink, outside any bank, so the
      // validation flags are applied to it directly.
      if (A.CrossCheck)
        Sim.enableCrossCheck();
      ExperimentOptions O = Ctrl;
      O.Gc = Kind;
      O.SemispaceBytes = Semi; // mark-sweep heap = 2x this: same budget
      O.ExtraSinks = {&Adjacency, &Sim};
      const char *Name = Kind == GcKind::Cheney ? "cheney" : "marksweep";
      std::printf("running %s (%s)...\n", W->Name.c_str(), Name);
      const std::string Unit = W->Name + " (" + Name + ")";
      Expected<ProgramRun> R = Runner.run(Unit, *W, O);
      if (!R.ok())
        continue;
      ProgramRun Run = R.take();
      Status V = Sim.crossCheckNow();
      if (V.ok() && A.Audit)
        V = Sim.auditState();
      if (!V.ok()) {
        Runner.recordFailure(Unit + " validation", V);
        continue;
      }

      uint64_t MutMisses = Sim.counters(Phase::Mutator).FetchMisses;
      uint64_t GcMisses = Sim.counters(Phase::Collector).FetchMisses;
      uint64_t P = Fast.penaltyCycles(64);
      // Total overhead: all fetch misses plus collector instructions and
      // (for mark-sweep) the mutator's free-list search cost, over the
      // program's instructions.
      double TotalFast =
          (static_cast<double>(MutMisses + GcMisses) * P +
           static_cast<double>(Run.Stats.Gc.Instructions) +
           static_cast<double>(Run.Stats.ExtraInstructions)) /
          static_cast<double>(Run.Stats.Instructions);
      T.addRow({W->Name, Name, fmtPercent(Adjacency.adjacentFraction()),
                fmtCount(MutMisses), std::to_string(Run.Collections),
                fmtPercent(cacheOverhead(MutMisses, Slow.penaltyCycles(64),
                                         Run.Stats.Instructions)),
                fmtPercent(TotalFast)});
    }
  }
  std::printf("\n");
  printTable(T, A);
  std::printf("\nReading the table: Cheney's linear allocation should show "
              "near-100%% adjacent allocations and fewer mutator misses; "
              "mark-sweep scatters allocations over recycled holes — the "
              "cache behaviour the paper predicts for imperative-style "
              "storage reuse.\n");
  return Runner.finish();
}
