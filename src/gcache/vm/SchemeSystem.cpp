//===- SchemeSystem.cpp - Heap + collector + VM facade ----------------------===//

#include "gcache/vm/SchemeSystem.h"

#include "gcache/support/FaultInjector.h"
#include "gcache/vm/Compiler.h"
#include "gcache/vm/Prelude.h"
#include "gcache/vm/Primitives.h"
#include "gcache/vm/Sexpr.h"

using namespace gcache;

SchemeSystem::SchemeSystem(const SchemeSystemConfig &Config) : Config(Config) {
  TheHeap = std::make_unique<Heap>(Config.Bus);
  TheHeap->setTracing(false); // Enabled only for the measured run.
  TheVM = std::make_unique<VM>(*TheHeap);
  if (Config.LayoutSeed)
    TheVM->setLayoutSeed(Config.LayoutSeed);

  switch (Config.Gc) {
  case GcKind::None:
    TheCollector = std::make_unique<NullCollector>(*TheHeap, *TheVM);
    break;
  case GcKind::Cheney:
    TheCollector = std::make_unique<CheneyCollector>(*TheHeap, *TheVM,
                                                     Config.SemispaceBytes);
    break;
  case GcKind::Generational:
    TheCollector = std::make_unique<GenerationalCollector>(
        *TheHeap, *TheVM, Config.Generational);
    break;
  case GcKind::MarkSweep:
    // Equal memory budget to a Cheney pair of semispaces.
    TheCollector = std::make_unique<MarkSweepCollector>(
        *TheHeap, *TheVM, 2 * Config.SemispaceBytes);
    break;
  }
  TheCollector->setParanoid(Config.Paranoid);
  TheCollector->setPhaseParanoid(Config.ParanoidPhase);
  TheVM->setCollector(TheCollector.get());

  registerPrimitives(*TheVM);
  TheVM->bindPrimitiveGlobals();
  loadDefinitions(preludeSource());
}

SchemeSystem::~SchemeSystem() = default;

void SchemeSystem::loadDefinitions(const std::string &Source) {
  assert(TheVM->loadMode() && "definitions must be loaded before run()");
  compileAndRun(*TheVM, Source);
}

Value SchemeSystem::run(const std::string &Source) {
  ReadResult R = readAll(Source);
  if (!R.Ok)
    throw StatusError(Status::fail(StatusCode::ParseError, R.Error));

  // Compile everything up front (still load mode: quoted data and code
  // become static), then execute traced.
  Compiler C(*TheVM);
  std::vector<uint32_t> Ids;
  Ids.reserve(R.Data.size());
  for (const Sexpr &Form : R.Data)
    Ids.push_back(C.compileToplevel(Form));

  TheVM->setLoadMode(false);
  TheHeap->setTracing(true);

  uint64_t Instr0 = TheVM->instructions();
  uint64_t Extra0 = TheVM->extraInstructions();
  uint64_t Alloc0 = TheCollector->mutatorAllocInstructions();
  uint64_t Bytes0 = TheHeap->dynamicBytesAllocated();
  GcStats Gc0 = TheCollector->stats();

  FormsTotal = Ids.size();
  FormsCompleted = 0;

  // Finalized on every exit path — including a cooperative-cancellation
  // unwind — so lastRunStats() always describes the completed prefix and
  // tracing never leaks into post-run bookkeeping.
  auto Finalize = [&] {
    TheHeap->setTracing(false);
    // Free-list search work (non-linear allocators) is mutator work the
    // collector choice induced: fold it into both counters, like barriers.
    uint64_t AllocExtra = TheCollector->mutatorAllocInstructions() - Alloc0;
    LastRun.Instructions = TheVM->instructions() - Instr0 + AllocExtra;
    LastRun.ExtraInstructions =
        TheVM->extraInstructions() - Extra0 + AllocExtra;
    LastRun.DynamicBytes = TheHeap->dynamicBytesAllocated() - Bytes0;
    const GcStats &Gc1 = TheCollector->stats();
    LastRun.Gc.Collections = Gc1.Collections - Gc0.Collections;
    LastRun.Gc.MajorCollections = Gc1.MajorCollections - Gc0.MajorCollections;
    LastRun.Gc.ObjectsCopied = Gc1.ObjectsCopied - Gc0.ObjectsCopied;
    LastRun.Gc.WordsCopied = Gc1.WordsCopied - Gc0.WordsCopied;
    LastRun.Gc.Instructions = Gc1.Instructions - Gc0.Instructions;
  };

  Value Result = Value::unspecified();
  FaultInjector &Fi = faultInjector();
  try {
    for (uint32_t Id : Ids) {
      // step-abort fault site: one hit per toplevel form of the measured
      // run.
      if (Fi.shouldFire(FaultSite::StepAbort))
        throw StatusError(Status::failf(
            StatusCode::Aborted,
            "injected workload-step abort before toplevel form %u (site %s)",
            Id, faultSiteName(FaultSite::StepAbort)));
      Result = TheVM->executeCode(Id);
      ++FormsCompleted;
    }
  } catch (...) {
    Finalize();
    throw;
  }

  Finalize();
  return Result;
}
