//===- OrbitStream.h - A real reference stream held in memory ---*- C++ -*-===//
//
// Part of the gcache project (Reinhold, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The stream the bank throughput benchmarks feed: the data references of
/// one orbit run without garbage collection (the fig1 control run),
/// recorded in memory. A synthetic stream reaches the opposite verdict on
/// threading from real runs, so the benchmarks time a real one.
///
//===----------------------------------------------------------------------===//

#ifndef GCACHE_BENCH_ORBITSTREAM_H
#define GCACHE_BENCH_ORBITSTREAM_H

#include "gcache/core/Experiment.h"
#include "gcache/workloads/Workload.h"

#include <vector>

namespace gcache {

/// The first \p MaxRefs data references of orbit at \p Scale.
inline std::vector<Ref> recordOrbitStream(double Scale, size_t MaxRefs) {
  struct Recorder final : TraceSink {
    std::vector<Ref> Refs;
    size_t Cap;
    void onRef(const Ref &R) override {
      if (Refs.size() != Cap)
        Refs.push_back(R);
    }
  } Rec;
  Rec.Cap = MaxRefs;
  ExperimentOptions O;
  O.Scale = Scale;
  O.Grid = CacheGridKind::None;
  O.ExtraSinks = {&Rec};
  (void)runProgram(orbitWorkload(), O);
  return std::move(Rec.Refs);
}

} // namespace gcache

#endif // GCACHE_BENCH_ORBITSTREAM_H
