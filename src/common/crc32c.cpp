#include "common/crc32c.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#define DK_CRC_X86_64 1
#endif

namespace dk {
namespace {

// Reflected table for the Castagnoli polynomial. Built once at static-init
// time; constexpr so the compiler may fold it into .rodata.
constexpr std::array<std::uint32_t, 256> make_table() {
  // Reflected form of 0x1EDC6F41.
  constexpr std::uint32_t kPolyReflected = 0x82f63b78u;
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ kPolyReflected : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kTable = make_table();

#ifdef DK_CRC_X86_64

bool cpu_has_sse42() {
  static const bool has = __builtin_cpu_supports("sse4.2");
  return has;
}

// The SSE4.2 `crc32` instruction computes CRC-32C (the Castagnoli
// polynomial, reflected) on the raw register state, 8 bytes at a time.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    std::span<const std::uint8_t> data, std::uint32_t state) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint64_t wide = state;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    wide = _mm_crc32_u64(wide, word);
  }
  state = static_cast<std::uint32_t>(wide);
  for (; n > 0; ++p, --n) state = _mm_crc32_u8(state, *p);
  return state;
}

#endif  // DK_CRC_X86_64

}  // namespace

std::uint32_t crc32c(std::span<const std::uint8_t> data, std::uint32_t crc) {
#ifdef DK_CRC_X86_64
  if (cpu_has_sse42())
    return crc32c_sse42(data, crc ^ 0xffffffffu) ^ 0xffffffffu;
#endif
  return detail::crc32c_table(data, crc);
}

std::uint32_t detail::crc32c_table(std::span<const std::uint8_t> data,
                                   std::uint32_t crc) {
  std::uint32_t state = crc ^ 0xffffffffu;
  for (const std::uint8_t byte : data) {
    state = kTable[(state ^ byte) & 0xffu] ^ (state >> 8);
  }
  return state ^ 0xffffffffu;
}

std::vector<std::uint32_t> block_checksums(std::span<const std::uint8_t> data,
                                           std::uint64_t base) {
  std::vector<std::uint32_t> out;
  std::uint64_t pos = 0;
  while (pos < data.size()) {
    const std::uint64_t block_end =
        (base + pos) / kChecksumBlockBytes * kChecksumBlockBytes +
        kChecksumBlockBytes;
    const std::uint64_t take =
        std::min<std::uint64_t>(data.size() - pos, block_end - (base + pos));
    out.push_back(crc32c(data.subspan(pos, take)));
    pos += take;
  }
  return out;
}

}  // namespace dk
