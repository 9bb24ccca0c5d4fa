#include "gf/gf256.hpp"

#include "common/check.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define DK_GF_X86 1
#endif

namespace dk::gf {

namespace {

// Full 256 x 256 product table (64 KiB), the layout of jerasure's
// GF_MULT_TABLE: one lookup per byte. It backs the portable loop, which runs
// the region tail and every region on CPUs without AVX2, and is the oracle
// the SIMD path is tested against. Built on first use.
struct MulTable {
  std::array<std::array<std::uint8_t, 256>, 256> row{};
  MulTable() {
    for (unsigned a = 0; a < 256; ++a)
      for (unsigned b = 0; b < 256; ++b)
        row[a][b] =
            mul(static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(b));
  }
};

const MulTable& mul_table() {
  static const MulTable t;
  return t;
}

#ifdef DK_GF_X86

// Split-nibble tables (Plank, Greenan & Miller, "Screaming Fast Galois Field
// Arithmetic Using Intel SIMD Instructions", FAST'13). Multiplying by c is
// linear over GF(2), so c*x == lo[c][x & 15] ^ hi[c][x >> 4]. Two 16-entry
// rows per coefficient (8 KiB in all) fit one shuffle register each, and one
// pshufb looks up 32 products at once.
struct NibbleTables {
  std::array<std::array<std::uint8_t, 16>, 256> lo{};
  std::array<std::array<std::uint8_t, 16>, 256> hi{};
  constexpr NibbleTables() {
    for (unsigned c = 0; c < 256; ++c)
      for (unsigned x = 0; x < 16; ++x) {
        const auto coeff = static_cast<std::uint8_t>(c);
        lo[c][x] = mul(coeff, static_cast<std::uint8_t>(x));
        hi[c][x] = mul(coeff, static_cast<std::uint8_t>(x << 4));
      }
  }
};

constexpr NibbleTables kNibbles{};

bool cpu_has_avx2() {
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
}

// dst[i] ^= c * src[i] over the largest multiple of 32 bytes of n; returns
// how many bytes it covered.
__attribute__((target("avx2"))) std::size_t mul_add_avx2(
    std::uint8_t c, const std::uint8_t* src, std::uint8_t* dst,
    std::size_t n) {
  const __m256i lo = _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(kNibbles.lo[c].data())));
  const __m256i hi = _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(kNibbles.hi[c].data())));
  const __m256i low_nibble = _mm256_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i prod = _mm256_xor_si256(
        _mm256_shuffle_epi8(lo, _mm256_and_si256(s, low_nibble)),
        _mm256_shuffle_epi8(
            hi, _mm256_and_si256(_mm256_srli_epi64(s, 4), low_nibble)));
    auto* d = reinterpret_cast<__m256i*>(dst + i);
    _mm256_storeu_si256(d, _mm256_xor_si256(_mm256_loadu_si256(d), prod));
  }
  return i;
}

#endif  // DK_GF_X86

}  // namespace

void mul_add_region(std::uint8_t c, std::span<const std::uint8_t> src,
                    std::span<std::uint8_t> dst) {
  DK_CHECK(src.size() == dst.size());
  if (c == 0) return;
  if (c == 1) {
    xor_region(src, dst);
    return;
  }
  std::size_t done = 0;
#ifdef DK_GF_X86
  if (cpu_has_avx2())
    done = mul_add_avx2(c, src.data(), dst.data(), src.size());
#endif
  detail::mul_add_region_table(c, src.subspan(done), dst.subspan(done));
}

void detail::mul_add_region_table(std::uint8_t c,
                                  std::span<const std::uint8_t> src,
                                  std::span<std::uint8_t> dst) {
  DK_CHECK(src.size() == dst.size());
  const auto& row = mul_table().row[c];
  for (std::size_t i = 0; i < src.size(); ++i) dst[i] ^= row[src[i]];
}

void xor_region(std::span<const std::uint8_t> src,
                std::span<std::uint8_t> dst) {
  DK_CHECK(src.size() == dst.size());
  std::size_t i = 0;
  // Word-at-a-time XOR for the bulk of the region.
  for (; i + 8 <= src.size(); i += 8) {
    std::uint64_t a, b;
    __builtin_memcpy(&a, src.data() + i, 8);
    __builtin_memcpy(&b, dst.data() + i, 8);
    b ^= a;
    __builtin_memcpy(dst.data() + i, &b, 8);
  }
  for (; i < src.size(); ++i) dst[i] ^= src[i];
}

}  // namespace dk::gf
