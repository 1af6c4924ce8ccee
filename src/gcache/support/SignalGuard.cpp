//===- SignalGuard.cpp - SIGTERM/SIGINT drain handling ----------------------===//

#include "gcache/support/SignalGuard.h"

#include "gcache/support/Budget.h"

#include <atomic>
#include <csignal>
#include <cstring>
#include <unistd.h>

using namespace gcache;

namespace {

std::atomic<uint64_t> Seen{0};
bool Installed = false;
struct sigaction OldTerm, OldInt;

void onDrainSignal(int Sig) {
  // Everything here must be async-signal-safe: lock-free atomics and
  // write(2) only.
  uint64_t Nth = Seen.fetch_add(1, std::memory_order_relaxed) + 1;
  if (Nth >= 2) {
    // Second signal: the operator wants out *now*.
    signal(Sig, SIG_DFL);
    raise(Sig);
    return;
  }
  cancelToken().request(CancelReason::Signal);
  static const char Msg[] =
      "gcache: drain requested by signal; send again to abort immediately\n";
  ssize_t Ignored = write(2, Msg, sizeof(Msg) - 1);
  (void)Ignored;
}

} // namespace

void SignalGuard::install() {
  if (Installed)
    return;
  Seen.store(0, std::memory_order_relaxed);
  struct sigaction Sa;
  std::memset(&Sa, 0, sizeof(Sa));
  Sa.sa_handler = onDrainSignal;
  sigemptyset(&Sa.sa_mask);
  // No SA_RESTART: a drain request should interrupt blocking waits.
  sigaction(SIGTERM, &Sa, &OldTerm);
  sigaction(SIGINT, &Sa, &OldInt);
  Installed = true;
}

void SignalGuard::uninstall() {
  if (!Installed)
    return;
  sigaction(SIGTERM, &OldTerm, nullptr);
  sigaction(SIGINT, &OldInt, nullptr);
  Installed = false;
}

uint64_t SignalGuard::signalsSeen() {
  return Seen.load(std::memory_order_relaxed);
}
