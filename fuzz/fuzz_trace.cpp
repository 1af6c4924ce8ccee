//===- fuzz_trace.cpp - Fuzz target: binary trace files -----------------------===//
//
// Part of the gcache project (Reinhold, PLDI 1994 reproduction).
//
// Property under test: TraceStream must either reject arbitrary bytes
// with a structured Status or decode them correctly — never crash, hang,
// or read out of bounds. Concretely:
//
//  - strict open and salvage open never crash on any input;
//  - an input the strict open accepts is accepted undamaged by salvage,
//    with the identical record stream;
//  - every salvaged stream replays cleanly into a cross-checked cache
//    (the oracle and the invariant audit both stay green), and its
//    salvage accounting (droppedBytes/droppedRecords) is consistent;
//  - replaying the stream into a CacheBank, whose batches run an
//    inclusion chain and an associative cache through the batch kernels,
//    ends with counters identical to standalone caches fed through
//    Cache::access — for any input and any batch size.
//
//===----------------------------------------------------------------------===//

#include "FuzzCheck.h"

#include "gcache/memsys/CacheBank.h"
#include "gcache/trace/TraceFile.h"

#include <cstdint>
#include <vector>

using namespace gcache;

namespace {

const CacheConfig FuzzCacheConfig{.SizeBytes = 1 << 10, .BlockBytes = 32};

bool sameCounters(const Cache &A, const Cache &B, Phase P) {
  const CacheCounters &X = A.counters(P);
  const CacheCounters &Y = B.counters(P);
  return X.Loads == Y.Loads && X.Stores == Y.Stores &&
         X.FetchMisses == Y.FetchMisses &&
         X.NoFetchMisses == Y.NoFetchMisses && X.Writebacks == Y.Writebacks &&
         X.WriteThroughs == Y.WriteThroughs;
}

/// Replays every record of \p S into a tiny cross-checked cache and
/// checks the model invariants afterwards.
void replayChecked(TraceStream &S) {
  Cache C(FuzzCacheConfig);
  C.enableCrossCheck(1);
  TraceRecord Rec;
  uint64_t Seen = 0;
  while (S.next(Rec)) {
    Rec.dispatch(C);
    ++Seen;
  }
  FUZZ_CHECK(Seen == S.recordCount(),
             "next() must deliver exactly recordCount() records");
  FUZZ_CHECK(C.crossCheckNow().ok(),
             "oracle must agree with the cache after any valid trace");
  FUZZ_CHECK(C.auditState().ok(),
             "cache invariants must hold after any valid trace");
}

/// Replays \p S into a bank publishing batches of \p BatchRefs: a
/// two-link direct-mapped chain and a 2-way cache, so both batch kernels
/// run. Each bank cache must end with the counters of a standalone cache
/// fed the same references through Cache::access.
void replayBankChecked(TraceStream &S, size_t BatchRefs) {
  const CacheConfig Configs[] = {
      FuzzCacheConfig,
      {.SizeBytes = 2 << 10, .BlockBytes = 32},
      {.SizeBytes = 1 << 10, .BlockBytes = 32, .Ways = 2}};
  CacheBank Bank;
  std::vector<Cache> Scalar;
  for (const CacheConfig &C : Configs) {
    Bank.addConfig(C);
    Scalar.emplace_back(C);
  }
  Bank.setThreads(0, BatchRefs);
  TraceRecord Rec;
  while (S.next(Rec)) {
    Rec.dispatch(Bank);
    if (Rec.Op == TraceRecord::Kind::Ref)
      for (Cache &C : Scalar)
        (void)C.access(Rec.R);
  }
  for (size_t I = 0; I != Scalar.size(); ++I)
    FUZZ_CHECK(sameCounters(Scalar[I], Bank.cache(I), Phase::Mutator) &&
                   sameCounters(Scalar[I], Bank.cache(I), Phase::Collector),
               "the bank must match Cache::access on any valid trace");
  FUZZ_CHECK(Bank.auditAll().ok(),
             "cache and chain invariants must hold after any bank replay");
}

} // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t *Data, size_t Size) {
  std::vector<uint8_t> Bytes(Data, Data + Size);

  TraceStream Strict;
  Status StrictStatus = Strict.openBuffer(Bytes, /*Salvage=*/false);

  TraceStream Salvaged;
  Status SalvageStatus = Salvaged.openBuffer(Bytes, /*Salvage=*/true);

  if (StrictStatus.ok()) {
    // A file strict mode accepts is undamaged; salvage must agree in full.
    FUZZ_CHECK(SalvageStatus.ok(), "salvage must accept what strict accepts");
    FUZZ_CHECK(Salvaged.damage().ok(), "valid input must report no damage");
    FUZZ_CHECK(Salvaged.recordCount() == Strict.recordCount(),
               "salvage of a valid file must keep every record");
    FUZZ_CHECK(Strict.droppedBytes() == 0 && Strict.droppedRecords() == 0,
               "no salvage accounting on a valid file");
    (void)replayChecked(Strict);
  }

  if (SalvageStatus.ok()) {
    if (!Salvaged.damage().ok())
      // A missing-footer cut can drop zero bytes, but a cut can never be
      // accounted as larger than the input itself.
      FUZZ_CHECK(Salvaged.droppedBytes() <= Bytes.size(),
                 "cannot drop more bytes than the input holds");
    replayChecked(Salvaged);

    // Bank differential: the same bytes through the bank's batch kernels,
    // with an input-derived batch size so the fuzzer explores the
    // segmentation space too.
    TraceStream Banked;
    FUZZ_CHECK(Banked.openBuffer(Bytes, /*Salvage=*/true).ok(),
               "salvage open must be deterministic");
    replayBankChecked(Banked, 1 + Size % 301);
  }
  return 0;
}
