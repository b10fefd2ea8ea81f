#include "util/crc32.h"

#include <array>
#include <cstring>

namespace prima::util {

namespace {
// Slicing-by-8: table k maps a byte to its CRC contribution when k more
// bytes follow it, so eight bytes fold into the running value with eight
// independent lookups per step instead of eight dependent ones.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Tables MakeTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

constexpr Tables kTables = MakeTables();

// Little-endian 32-bit load: the CRC consumes bytes in stream order.
inline uint32_t LoadLe32(const unsigned char* p) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
#else
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
#endif
}
}  // namespace

uint32_t Crc32Extend(uint32_t crc, Slice data) {
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  uint32_t c = crc ^ 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = LoadLe32(p) ^ c;
    const uint32_t hi = LoadLe32(p + 4);
    c = kTables[7][lo & 0xFF] ^ kTables[6][(lo >> 8) & 0xFF] ^
        kTables[5][(lo >> 16) & 0xFF] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xFF] ^ kTables[2][(hi >> 8) & 0xFF] ^
        kTables[1][(hi >> 16) & 0xFF] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = kTables[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

uint32_t Crc32(Slice data) { return Crc32Extend(0, data); }

}  // namespace prima::util
