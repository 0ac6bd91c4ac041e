#ifndef RNT_STORAGE_CRC32_H_
#define RNT_STORAGE_CRC32_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace rnt::storage {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over a byte
/// range. Every WAL and snapshot record carries this checksum so
/// recovery can tell a torn tail (incomplete record at end-of-file,
/// expected after a crash) from real corruption (a damaged record that
/// acknowledged durability — kDataLoss).
///
/// Software slicing-by-8 implementation: portable, no hardware CRC
/// dependency, eight bytes per step. Every log read checksums every
/// record it consumes (a node's trace on restart, the supervisor's tail
/// of a live trace), so the checksum is on the hot path of every load.
namespace internal {

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// tables[0] is the classic byte table; tables[k][b] advances the CRC of
/// byte b followed by k zero bytes, so eight lookups fold eight bytes.
constexpr Crc32Tables MakeCrc32Tables() {
  Crc32Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    for (std::size_t k = 1; k < 8; ++k) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

inline constexpr Crc32Tables kCrc32Tables = MakeCrc32Tables();

inline std::uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace internal

inline std::uint32_t Crc32(const void* data, std::size_t size,
                           std::uint32_t seed = 0) {
  const auto& t = internal::kCrc32Tables;
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; size >= 8; p += 8, size -= 8) {
    const std::uint32_t lo = internal::LoadLe32(p) ^ c;
    const std::uint32_t hi = internal::LoadLe32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) {
    c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace rnt::storage

#endif  // RNT_STORAGE_CRC32_H_
