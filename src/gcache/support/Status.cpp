//===- Status.cpp - Structured error propagation ---------------------------===//

#include "gcache/support/Status.h"

#include <cstdarg>
#include <cstdio>

using namespace gcache;

const char *gcache::statusCodeName(StatusCode Code) {
  switch (Code) {
  case StatusCode::Ok:
    return "ok";
  case StatusCode::OutOfMemory:
    return "out-of-memory";
  case StatusCode::GcError:
    return "gc-error";
  case StatusCode::VmError:
    return "vm-error";
  case StatusCode::ParseError:
    return "parse-error";
  case StatusCode::CompileError:
    return "compile-error";
  case StatusCode::IoError:
    return "io-error";
  case StatusCode::InvalidArgument:
    return "invalid-argument";
  case StatusCode::WorkerFailure:
    return "worker-failure";
  case StatusCode::HeapCorrupt:
    return "heap-corrupt";
  case StatusCode::Aborted:
    return "aborted";
  case StatusCode::Corrupt:
    return "corrupt";
  case StatusCode::Truncated:
    return "truncated";
  case StatusCode::Divergence:
    return "divergence";
  case StatusCode::AuditFailure:
    return "audit-failure";
  case StatusCode::Cancelled:
    return "cancelled";
  }
  return "unknown";
}

std::string Status::toString() const {
  if (ok())
    return "ok";
  std::string S = statusCodeName(Code_);
  if (!Message_.empty()) {
    S += ": ";
    S += Message_;
  }
  return S;
}

static std::string vformatMessage(const char *Fmt, va_list Args) {
  va_list Copy;
  va_copy(Copy, Args);
  int Len = std::vsnprintf(nullptr, 0, Fmt, Copy);
  va_end(Copy);
  if (Len < 0)
    return Fmt;
  std::string Out(static_cast<size_t>(Len), '\0');
  std::vsnprintf(Out.data(), Out.size() + 1, Fmt, Args);
  return Out;
}

Status Status::failf(StatusCode Code, const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  std::string Msg = vformatMessage(Fmt, Args);
  va_end(Args);
  return fail(Code, std::move(Msg));
}

void gcache::throwStatus(StatusCode Code, const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  std::string Msg = vformatMessage(Fmt, Args);
  va_end(Args);
  throw StatusError(Status::fail(Code, std::move(Msg)));
}
