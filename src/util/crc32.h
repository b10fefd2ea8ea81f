#ifndef PRIMA_UTIL_CRC32_H_
#define PRIMA_UTIL_CRC32_H_

#include <cstdint>

#include "util/slice.h"

namespace prima::util {

/// The standard IEEE 802.3 CRC-32 (reflected polynomial 0xEDB88320, initial
/// value and final XOR 0xFFFFFFFF; Crc32("123456789") == 0xCBF43926) over a
/// byte range. Every stored checksum is this function's value, so the
/// on-disk and wire formats do not depend on how it is computed. Users:
/// page headers (`PageHeader::Seal`/`Verify`: a page read whose checksum
/// mismatches is reported as Corruption), WAL fragments and pads and the
/// WAL master record, log-archive block headers, backup headers and dump
/// bodies, and the network frame codec.
uint32_t Crc32(Slice data);

/// Incremental form: extend a running checksum.
/// Crc32Extend(Crc32(a), b) == Crc32(a + b).
uint32_t Crc32Extend(uint32_t crc, Slice data);

}  // namespace prima::util

#endif  // PRIMA_UTIL_CRC32_H_
