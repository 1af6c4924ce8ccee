//===- Audit.h - Online conservation-law auditor ----------------*- C++ -*-===//
//
// Part of the gcache project (Reinhold, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The --audit mode: an independent witness of the trace stream that
/// checks conservation laws at every GC boundary and at end of run. The
/// paper's results are sums of counters accumulated over hundreds of
/// millions of references across several cooperating components (the
/// trace bus, the threaded cache bank, the per-block analyses, checkpoint
/// restore); a single dropped or double-counted batch would silently skew
/// every figure. The auditor re-counts references itself and demands that
/// every other counter in the run be consistent with that count and with
/// each other:
///
///  - each cache's loads + stores equal the references actually delivered
///    (equivalently: hits + fetch misses + no-fetch misses == refs, since
///    a hit is exactly a reference that missed nowhere);
///  - the CountingSink agrees with the auditor's independent count;
///  - per-block statistics sum to the global counters, and the
///    write-policy laws hold (Cache::auditState);
///  - analysis products (local-miss curves, miss plots) are arithmetic
///    restatements of the cache counters they were derived from.
///
/// Violations surface as StatusCode::AuditFailure through the structured
/// error model; the experiment drivers abort the run on the first one.
///
//===----------------------------------------------------------------------===//

#ifndef GCACHE_CORE_AUDIT_H
#define GCACHE_CORE_AUDIT_H

#include "gcache/analysis/LocalMissStats.h"
#include "gcache/analysis/MissPlot.h"
#include "gcache/memsys/CacheBank.h"
#include "gcache/support/Status.h"
#include "gcache/trace/Event.h"

namespace gcache {

class CountingSink;

/// Checks that \p Curves is an arithmetic restatement of \p Sim's
/// per-block statistics: point sums reproduce the counters, the ordering
/// is ascending in refs, the cumulative fractions are monotone and end at
/// 1, and the global miss ratio endpoint matches fetch-misses / refs.
Status auditLocalMissCurves(const LocalMissCurves &Curves, const Cache &Sim);

/// Checks a miss plot against its owned cache: the column count covers
/// exactly the references seen, and the number of marked cells is
/// consistent with the cache's miss counters (each miss marks at most one
/// cell; misses imply at least one mark).
Status auditMissPlot(const MissPlot &Plot);

/// TraceSink implementing the --audit mode. Wire it onto the trace bus
/// AFTER the cache bank (bus order is delivery order, so the bank has
/// flushed by the time a GC boundary reaches the auditor). Audits run at
/// every GC boundary and on finalCheck(); failures throw
/// StatusError(AuditFailure) from the boundary that detected them.
class AuditSink final : public TraceSink {
public:
  /// \p Bank and \p Counts must outlive the sink; either may be null to
  /// skip its checks (behaviour-analysis runs have no bank).
  AuditSink(CacheBank *Bank, const CountingSink *Counts)
      : Bank(Bank), Counts(Counts) {}

  void onRef(const Ref &R) override {
    ++Refs[static_cast<unsigned>(R.ExecPhase)][static_cast<unsigned>(R.Kind)];
  }
  void onRefs(const RefSpan &S) override { tallyRefs(S, Refs); }
  void onGcBegin() override { runAudit("gc-begin"); }
  void onGcEnd() override { runAudit("gc-end"); }

  /// The end-of-run audit; returns the first violated law instead of
  /// throwing so unit boundaries can wrap it into their own reporting.
  /// \p Where labels the failure ("resume-restore" when re-auditing a
  /// freshly restored checkpoint).
  Status finalCheck(const char *Where = "end-of-run") { return check(Where); }

  /// Number of boundary audits executed (tests assert the auditor ran).
  uint64_t auditsRun() const { return AuditsRun; }

  /// Adopts the CountingSink's current totals as the audit baseline. Call
  /// after a checkpoint restore, where the auditor's independent recount
  /// necessarily starts mid-stream; references delivered after this call
  /// are witnessed independently again.
  void adoptBaseline();

private:
  void runAudit(const char *Where);
  Status check(const char *Where);

  CacheBank *Bank;
  const CountingSink *Counts;
  /// Independent [phase][kind] reference counts — the auditor's own
  /// witness, shared with nothing.
  uint64_t Refs[2][2] = {{0, 0}, {0, 0}};
  uint64_t AuditsRun = 0;
};

} // namespace gcache

#endif // GCACHE_CORE_AUDIT_H
