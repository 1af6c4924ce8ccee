//===- Pins.h - Pinned counter and checksum digests -------------*- C++ -*-===//
//
// Part of the gcache project (Reinhold, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//

#ifndef GCACHE_PERFBENCH_PINS_H
#define GCACHE_PERFBENCH_PINS_H

#include <cstdint>

namespace perfbench {

// Seed-0 digests, taken from serial runs (--threads 0) at the benchmark
// scale (0.1) and the test scale (0.02); README.md says how to regenerate
// them. A change that moves one must say why.

/// The digest of every simulated counter of one unit.
struct DigestPin {
  const char *Workload;
  double Scale;
  const char *Program;
  uint64_t Digest;
};

/// The digest of a program's checksum output, which depends only on the
/// program and the scale.
struct OutputPin {
  double Scale;
  const char *Program;
  uint64_t Digest;
};

inline constexpr DigestPin DigestPins[] = {
    {"grid", 0.1, "orbit", 0x0ccac9d8bbec235cull},
    {"grid", 0.1, "imps", 0xb74f31c65fbd868eull},
    {"grid", 0.1, "lp", 0xdbb5569301b4dbd5ull},
    {"grid", 0.1, "nbody", 0x5f129c0dd4c97b8full},
    {"grid", 0.1, "gambit", 0xee34c7e925bdfe5aull},
    {"mutator", 0.1, "orbit", 0xd15b509d4f085af3ull},
    {"mutator", 0.1, "imps", 0x956a53eeea13388dull},
    {"mutator", 0.1, "lp", 0xf5e80d093459bec9ull},
    {"mutator", 0.1, "nbody", 0xd296f59c6bebab98ull},
    {"mutator", 0.1, "gambit", 0xd4fa8205eccceb8dull},
    {"section7", 0.1, "orbit", 0x97aeadc2f7c6e70aull},
    {"section7", 0.1, "imps", 0xc0fbfef8d1717fc5ull},
    {"section7", 0.1, "lp", 0x7283ddaca0bf5e98ull},
    {"section7", 0.1, "nbody", 0x68c21c36b83d281eull},
    {"section7", 0.1, "gambit", 0x752afe68294ccabbull},
    {"replay", 0.1, "lp", 0xd19945b6d5961460ull},
    {"replay", 0.1, "nbody", 0x8536c3833ceb2fdeull},
    {"grid", 0.02, "orbit", 0x669ee89d2fc96af0ull},
    {"grid", 0.02, "imps", 0x1c8c13fb0fe4d411ull},
    {"grid", 0.02, "lp", 0x7419ee925a80abedull},
    {"grid", 0.02, "nbody", 0x5f129c0dd4c97b8full},
    {"grid", 0.02, "gambit", 0x0c262c72d2284fe8ull},
    {"mutator", 0.02, "orbit", 0x5382e10b31730877ull},
    {"mutator", 0.02, "imps", 0xf1eddfd91abf88b8ull},
    {"mutator", 0.02, "lp", 0x9ff95c89b312c9e7ull},
    {"mutator", 0.02, "nbody", 0xd296f59c6bebab98ull},
    {"mutator", 0.02, "gambit", 0xa58a048667f11b44ull},
    {"section7", 0.02, "orbit", 0xed063bd3ff4754bcull},
    {"section7", 0.02, "imps", 0xd9025e0faadeee8dull},
    {"section7", 0.02, "lp", 0x69e37a2dac63800cull},
    {"section7", 0.02, "nbody", 0x68c21c36b83d281eull},
    {"section7", 0.02, "gambit", 0x27620d1db0ad2c2cull},
    {"replay", 0.02, "lp", 0xe6501eaa07086817ull},
    {"replay", 0.02, "nbody", 0x8536c3833ceb2fdeull},
};

inline constexpr OutputPin OutputPins[] = {
    {0.1, "orbit", 0xecf6630229ec5583ull},
    {0.1, "imps", 0x02402c421bdfe4faull},
    {0.1, "lp", 0x5c5d760aa750a4a1ull},
    {0.1, "nbody", 0x06aab8c49e3aab2cull},
    {0.1, "gambit", 0x96a0ec22bbf56422ull},
    {0.02, "orbit", 0xc2a0d208e4653483ull},
    {0.02, "imps", 0x84f1f25823b55d04ull},
    {0.02, "lp", 0xc3833a7fae17a7c0ull},
    {0.02, "nbody", 0x06aab8c49e3aab2cull},
    {0.02, "gambit", 0x63ea0e13979d2c3bull},
};

} // namespace perfbench

#endif // GCACHE_PERFBENCH_PINS_H
