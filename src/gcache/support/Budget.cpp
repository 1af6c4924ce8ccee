//===- Budget.cpp - Resource budgets and cooperative cancellation ----------===//

#include "gcache/support/Budget.h"

#include "gcache/support/FaultInjector.h"
#include "gcache/support/Options.h"

#include <cmath>
#include <cstdio>
#include <mutex>

#ifdef __linux__
#include <unistd.h>
#endif

using namespace gcache;

const char *gcache::cancelReasonName(CancelReason Reason) {
  switch (Reason) {
  case CancelReason::None:
    return "none";
  case CancelReason::Deadline:
    return "deadline";
  case CancelReason::RefBudget:
    return "ref-budget";
  case CancelReason::MemBudget:
    return "mem-budget";
  case CancelReason::Signal:
    return "signal";
  }
  return "unknown";
}

const char *gcache::unitOutcomeName(UnitOutcome Outcome) {
  switch (Outcome) {
  case UnitOutcome::Ok:
    return "ok";
  case UnitOutcome::PartialDeadline:
    return "partial-deadline";
  case UnitOutcome::PartialMem:
    return "partial-mem";
  }
  return "unknown";
}

UnitOutcome gcache::outcomeForReason(CancelReason Reason) {
  switch (Reason) {
  case CancelReason::MemBudget:
    return UnitOutcome::PartialMem;
  case CancelReason::None:
    return UnitOutcome::Ok;
  case CancelReason::Deadline:
  case CancelReason::RefBudget:
  case CancelReason::Signal:
    // Deadline-like trips: the run ran out of (wall-clock, reference, or
    // operator) time. The references-as-time view matches the paper's
    // fundamental time unit.
    return UnitOutcome::PartialDeadline;
  }
  return UnitOutcome::PartialDeadline;
}

Expected<uint64_t> gcache::parseByteSize(const std::string &Text,
                                         const std::string &Flag) {
  auto Malformed = [&](const char *Why) {
    return Status::failf(StatusCode::InvalidArgument,
                         "--%s expects a positive byte count with an "
                         "optional k/m/g suffix, got '%s' (%s)",
                         Flag.c_str(), Text.c_str(), Why);
  };
  if (Text.empty())
    return Malformed("empty");
  uint64_t Shift = 0;
  size_t Digits = Text.size();
  switch (Text.back()) {
  case 'k':
  case 'K':
    Shift = 10;
    --Digits;
    break;
  case 'm':
  case 'M':
    Shift = 20;
    --Digits;
    break;
  case 'g':
  case 'G':
    Shift = 30;
    --Digits;
    break;
  default:
    break;
  }
  if (Digits == 0)
    return Malformed("no digits");
  uint64_t V = 0;
  for (size_t I = 0; I != Digits; ++I) {
    char C = Text[I];
    if (C < '0' || C > '9')
      return Malformed("not a number");
    uint64_t Next = V * 10 + static_cast<uint64_t>(C - '0');
    if (Next / 10 != V)
      return Malformed("overflow");
    V = Next;
  }
  if (Shift && V > (~0ull >> Shift))
    return Malformed("overflow");
  V <<= Shift;
  if (V == 0)
    return Malformed("zero");
  return V;
}

Expected<BudgetSpec> gcache::parseBudgetFlags(const Options &O) {
  BudgetSpec Spec;

  // --deadline: seconds, fractional allowed; must be a positive finite
  // number when present ("--deadline 0" is a request for nothing).
  Expected<double> Deadline = O.getStrictDouble("deadline", 0);
  if (!Deadline.ok())
    return Deadline.status();
  if (O.has("deadline") &&
      (!std::isfinite(*Deadline) || *Deadline <= 0))
    return Status::failf(StatusCode::InvalidArgument,
                         "--deadline expects a positive number of seconds, "
                         "got '%s'",
                         O.get("deadline", "").c_str());
  Spec.DeadlineSec = *Deadline;

  // --max-refs: positive integer (u64 — paper-scale runs exceed 2^32 refs).
  Expected<std::string> MaxRefs = O.getStrict("max-refs", "");
  if (!MaxRefs.ok())
    return MaxRefs.status();
  if (!MaxRefs->empty()) {
    Expected<uint64_t> V = parseByteSize(*MaxRefs, "max-refs");
    if (!V.ok())
      return V.status();
    Spec.MaxRefs = *V;
  }

  // --mem-budget: positive byte count, k/m/g suffixes accepted.
  Expected<std::string> MemBudget = O.getStrict("mem-budget", "");
  if (!MemBudget.ok())
    return MemBudget.status();
  if (!MemBudget->empty()) {
    Expected<uint64_t> V = parseByteSize(*MemBudget, "mem-budget");
    if (!V.ok())
      return V.status();
    Spec.MemBudgetBytes = *V;
  }

  return Spec;
}

//===----------------------------------------------------------------------===//
// Budget
//===----------------------------------------------------------------------===//

void Budget::configure(const BudgetSpec &NewSpec) {
  Active.store(false, std::memory_order_relaxed);
  Spec = NewSpec;
  Start = std::chrono::steady_clock::now();
  RefsSeen.store(0, std::memory_order_relaxed);
  cancelToken().reset();
  Active.store(Spec.any(), std::memory_order_release);
}

double Budget::elapsedSec() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

namespace {
std::mutex ProbeMu;
std::function<uint64_t()> MemProbe;
} // namespace

void Budget::setMemoryProbe(std::function<uint64_t()> Probe) {
  std::lock_guard<std::mutex> Lock(ProbeMu);
  MemProbe = std::move(Probe);
}

uint64_t Budget::residentBytes() const {
  {
    std::lock_guard<std::mutex> Lock(ProbeMu);
    if (MemProbe)
      return MemProbe();
  }
#ifdef __linux__
  if (FILE *F = std::fopen("/proc/self/statm", "rb")) {
    unsigned long long Total = 0, Resident = 0;
    int N = std::fscanf(F, "%llu %llu", &Total, &Resident);
    std::fclose(F);
    if (N == 2)
      return Resident * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
  }
#endif
  return 0;
}

void Budget::checkMemory() {
  if (!active() || !Spec.MemBudgetBytes)
    return;
  if (residentBytes() >= Spec.MemBudgetBytes)
    cancelToken().request(CancelReason::MemBudget);
}

void Budget::checkProgress() {
  if (!active())
    return;
  if (Spec.DeadlineSec > 0 && elapsedSec() >= Spec.DeadlineSec)
    cancelToken().request(CancelReason::Deadline);
  if (Spec.MaxRefs && refsSeen() >= Spec.MaxRefs)
    cancelToken().request(CancelReason::RefBudget);
}

CancelToken &gcache::cancelToken() {
  static CancelToken Token;
  return Token;
}

Budget &gcache::processBudget() {
  static Budget B;
  return B;
}

void gcache::pollCancellation(const char *Where) {
  FaultInjector &Fi = faultInjector();
  // The drain-path fault sites are counted at every cooperative poll (and
  // only here), so a census run plus an every-occurrence sweep exercises a
  // trip at each poll boundary deterministically — the watchdog thread
  // itself is never part of the deterministic story.
  if (Fi.shouldFire(FaultSite::WatchdogTrip))
    cancelToken().request(CancelReason::Deadline);
  if (Fi.shouldFire(FaultSite::BudgetProbe))
    cancelToken().request(CancelReason::MemBudget);
  processBudget().checkProgress();
  CancelToken &T = cancelToken();
  if (T.requested())
    throwStatus(StatusCode::Cancelled, "%s requested at %s",
                cancelReasonName(T.reason()), Where);
}
