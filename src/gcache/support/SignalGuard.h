//===- SignalGuard.h - SIGTERM/SIGINT drain handling ------------*- C++ -*-===//
//
// Part of the gcache project (Reinhold, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Signal-to-drain plumbing: the first SIGTERM or SIGINT trips the
/// process-wide CancelToken (support/Budget.h) so the run drains to a
/// partial result at the next cooperative poll — an audit of the drained
/// state, a `PARTIAL` stamp on the unit, exit code 3 (a checkpointed
/// replay also cuts a final checkpoint). A second signal restores the
/// default disposition and re-raises, i.e. immediate termination for an
/// operator who has stopped waiting.
///
/// The handler is async-signal-safe: it performs one lock-free CAS on the
/// token and one write(2) to stderr, nothing else.
///
//===----------------------------------------------------------------------===//

#ifndef GCACHE_SUPPORT_SIGNALGUARD_H
#define GCACHE_SUPPORT_SIGNALGUARD_H

#include <cstdint>

namespace gcache {
namespace SignalGuard {

/// Installs the SIGTERM/SIGINT drain handlers (idempotent). The bench
/// binaries install them once their flags parse.
void install();

/// Restores the dispositions saved by install() (tests).
void uninstall();

/// Drain-requesting signals received since install() (tests; resets on
/// install).
uint64_t signalsSeen();

} // namespace SignalGuard
} // namespace gcache

#endif // GCACHE_SUPPORT_SIGNALGUARD_H
