//===- Status.h - Structured error propagation ------------------*- C++ -*-===//
//
// Part of the gcache project (Reinhold, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measurement stack's structured error model. A failure anywhere in
/// the pipeline — an injected or real allocation failure, a malformed
/// source program, a trace-file I/O error, a dead bank worker, a heap
/// that fails paranoid verification — is described by a Status (an error
/// code plus a human-readable message) rather than by an abort().
///
/// Conventions (see the ROBUSTNESS section of README.md):
///  - Deep call stacks (the VM interpreter, the collectors) raise a
///    StatusError exception at the point of failure; the simulation state
///    of the failing unit is thereafter unspecified and the unit must be
///    discarded.
///  - Unit boundaries (tryRunProgram, tryCompileAndRun, the bench
///    drivers' per-workload loops) catch StatusError and surface an
///    Expected<T> / Status so one failed unit never takes down the rest
///    of a grid.
///  - Leaf APIs with no deep stack below them (TraceWriter) return a
///    Status directly.
///
//===----------------------------------------------------------------------===//

#ifndef GCACHE_SUPPORT_STATUS_H
#define GCACHE_SUPPORT_STATUS_H

#include <cassert>
#include <exception>
#include <optional>
#include <string>
#include <utility>

namespace gcache {

/// What kind of failure a Status describes.
enum class StatusCode : uint8_t {
  Ok = 0,
  OutOfMemory,     ///< Heap/semispace/nursery exhaustion (real or injected).
  GcError,         ///< Collector invariant or configuration failure.
  VmError,         ///< Scheme runtime error (type error, unbound variable).
  ParseError,      ///< Reader rejected the source text.
  CompileError,    ///< Compiler rejected a well-read form.
  IoError,         ///< Trace-file open/write/close failure (disk full).
  InvalidArgument, ///< Malformed flag, spec string, or configuration.
  WorkerFailure,   ///< A ShardPool worker died.
  HeapCorrupt,     ///< Paranoid heap verification failed.
  Aborted,         ///< Injected workload-step abort.
  Corrupt,         ///< On-disk data fails validation (CRC, magic, opcode).
  Truncated,       ///< On-disk data ends early (torn or interrupted write).
  Divergence,      ///< Shadow-oracle cross-check mismatch (--crosscheck).
  AuditFailure,    ///< Conservation-law audit violation (--audit).
  Cancelled,       ///< Cooperative cancellation (deadline, budget, signal);
                   ///< the unit drains to a partial result, not a failure.
};

/// Stable lower-case name of \p Code ("out-of-memory", "io-error", ...).
const char *statusCodeName(StatusCode Code);

/// An error code plus message. Default-constructed Status is success;
/// `if (!S)` / `S.ok()` test for failure the way a bool return used to.
class Status {
public:
  Status() = default;

  bool ok() const { return Code_ == StatusCode::Ok; }
  explicit operator bool() const { return ok(); }

  StatusCode code() const { return Code_; }
  const std::string &message() const { return Message_; }

  /// "io-error: short write at record 7" (or "ok").
  std::string toString() const;

  static Status fail(StatusCode Code, std::string Message) {
    assert(Code != StatusCode::Ok && "fail() needs an error code");
    Status S;
    S.Code_ = Code;
    S.Message_ = std::move(Message);
    return S;
  }

  /// printf-style constructor for the many formatted error sites.
  static Status failf(StatusCode Code, const char *Fmt, ...)
#if defined(__GNUC__) || defined(__clang__)
      __attribute__((format(printf, 2, 3)))
#endif
      ;

private:
  StatusCode Code_ = StatusCode::Ok;
  std::string Message_;
};

/// The exception that carries a Status out of a deep call stack (VM,
/// collector, heap). Catch it at unit boundaries; never let it cross a
/// thread join without being captured (ShardPool does this for its
/// workers).
class StatusError : public std::exception {
public:
  explicit StatusError(Status S) : S(std::move(S)), What(this->S.toString()) {}
  const Status &status() const { return S; }
  const char *what() const noexcept override { return What.c_str(); }

private:
  Status S;
  std::string What;
};

/// [[noreturn]] helper: throw a StatusError with a formatted message.
[[noreturn]] void throwStatus(StatusCode Code, const char *Fmt, ...)
#if defined(__GNUC__) || defined(__clang__)
    __attribute__((format(printf, 2, 3)))
#endif
    ;

/// A value or the Status explaining its absence. Minimal by design: just
/// enough to let unit boundaries report failures without exceptions.
template <typename T> class Expected {
public:
  Expected(T Value) : Value_(std::move(Value)) {}
  Expected(Status S) : Error_(std::move(S)) {
    assert(!Error_.ok() && "Expected error must carry a non-ok Status");
  }

  bool ok() const { return Value_.has_value(); }
  explicit operator bool() const { return ok(); }

  /// Ok status when a value is present.
  const Status &status() const { return Error_; }

  T &operator*() {
    assert(ok() && "dereferencing an errored Expected");
    return *Value_;
  }
  const T &operator*() const {
    assert(ok() && "dereferencing an errored Expected");
    return *Value_;
  }
  T *operator->() { return &**this; }
  const T *operator->() const { return &**this; }

  /// Moves the value out (call once, on an ok() Expected).
  T take() {
    assert(ok() && "taking from an errored Expected");
    return std::move(*Value_);
  }

private:
  std::optional<T> Value_;
  Status Error_;
};

} // namespace gcache

#endif // GCACHE_SUPPORT_STATUS_H
