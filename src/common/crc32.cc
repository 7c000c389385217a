#include <cstring>

#include "common/codec.h"

namespace harmony {

namespace {

static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "Crc32's 8-byte step reads its words little-endian");

/// Slicing-by-8 tables: t[0] is the bytewise table of the reflected
/// polynomial 0xEDB88320, and t[k][b] is the CRC of byte b followed by k
/// zero bytes, so one step folds eight input bytes with eight lookups.
struct Crc32Tables {
  uint32_t t[8][256];
  Crc32Tables() {
    for (uint32_t i = 0; i < 256; i++) {
      uint32_t c = i;
      for (int k = 0; k < 8; k++) {
        c = (c & 1) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
      }
      t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; i++) {
      for (int k = 1; k < 8; k++) {
        t[k][i] = t[0][t[k - 1][i] & 0xff] ^ (t[k - 1][i] >> 8);
      }
    }
  }
};

}  // namespace

uint32_t Crc32(const void* data, size_t len) {
  static const Crc32Tables tables;
  const auto& t = tables.t;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t c = 0xffffffffu;
  for (; len >= 8; p += 8, len -= 8) {
    uint32_t lo, hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= c;
    c = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
        t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
        t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; len > 0; p++, len--) c = t[0][(c ^ *p) & 0xff] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

}  // namespace harmony
