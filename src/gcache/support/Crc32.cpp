//===- Crc32.cpp - CRC-32 checksums for on-disk formats --------------------===//
//
// Slicing-by-8 (Kounavis and Berry): eight 256-entry tables let the loop
// fold eight input bytes into the checksum per step with eight independent
// lookups, instead of one dependent lookup per byte. Table[0] is the
// classic byte-at-a-time table; Table[K][I] is the CRC of byte I followed
// by K zero bytes. The result is bit-identical to the byte-at-a-time loop,
// which still handles the tail of fewer than eight bytes.
//
//===----------------------------------------------------------------------===//

#include "gcache/support/Crc32.h"

namespace {

struct Crc32Tables {
  uint32_t Entries[8][256];
  Crc32Tables() {
    for (uint32_t I = 0; I != 256; ++I) {
      uint32_t C = I;
      for (int K = 0; K != 8; ++K)
        C = (C & 1) ? 0xedb88320u ^ (C >> 1) : C >> 1;
      Entries[0][I] = C;
    }
    for (uint32_t I = 0; I != 256; ++I)
      for (int K = 1; K != 8; ++K)
        Entries[K][I] = (Entries[K - 1][I] >> 8) ^
                        Entries[0][Entries[K - 1][I] & 0xff];
  }
};

/// Little-endian load; compilers turn the byte assembly into one move.
uint32_t load32(const uint8_t *P) {
  return static_cast<uint32_t>(P[0]) | static_cast<uint32_t>(P[1]) << 8 |
         static_cast<uint32_t>(P[2]) << 16 | static_cast<uint32_t>(P[3]) << 24;
}

} // namespace

uint32_t gcache::crc32(const void *Data, size_t Len, uint32_t Crc) {
  static const Crc32Tables Tables;
  const auto &T = Tables.Entries;
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  uint32_t C = Crc ^ 0xffffffffu;
  for (; Len >= 8; P += 8, Len -= 8) {
    uint32_t Lo = load32(P) ^ C;
    uint32_t Hi = load32(P + 4);
    C = T[7][Lo & 0xff] ^ T[6][(Lo >> 8) & 0xff] ^ T[5][(Lo >> 16) & 0xff] ^
        T[4][Lo >> 24] ^ T[3][Hi & 0xff] ^ T[2][(Hi >> 8) & 0xff] ^
        T[1][(Hi >> 16) & 0xff] ^ T[0][Hi >> 24];
  }
  for (; Len; ++P, --Len)
    C = T[0][(C ^ *P) & 0xff] ^ (C >> 8);
  return C ^ 0xffffffffu;
}
