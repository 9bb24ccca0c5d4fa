#include "replay.hpp"

#include <algorithm>
#include <atomic>
#include <span>

#include "common/crc32c.hpp"
#include "common/rng.hpp"
#include "crush/hash.hpp"
#include "gf/gf256.hpp"
#include "trace.hpp"

// Counting wrappers around the two CRC-32C entry points. CMakeLists.txt
// links the benchmark with -Wl,--wrap for their mangled names, so every call
// from the stack's libraries lands here first; the count is the only way to
// see from outside how many bytes the integrity path checksums.
namespace {
std::atomic<std::uint64_t> g_crc32c_bytes{0};
}  // namespace

extern "C" {
std::uint32_t __real__ZN2dk6crc32cESt4spanIKhLm18446744073709551615EEj(
    std::span<const std::uint8_t> data, std::uint32_t crc);
std::uint32_t __wrap__ZN2dk6crc32cESt4spanIKhLm18446744073709551615EEj(
    std::span<const std::uint8_t> data, std::uint32_t crc) {
  g_crc32c_bytes.fetch_add(data.size(), std::memory_order_relaxed);
  return __real__ZN2dk6crc32cESt4spanIKhLm18446744073709551615EEj(data, crc);
}

std::vector<std::uint32_t>
__real__ZN2dk15block_checksumsESt4spanIKhLm18446744073709551615EEm(
    std::span<const std::uint8_t> data, std::uint64_t base);
std::vector<std::uint32_t>
__wrap__ZN2dk15block_checksumsESt4spanIKhLm18446744073709551615EEm(
    std::span<const std::uint8_t> data, std::uint64_t base) {
  g_crc32c_bytes.fetch_add(data.size(), std::memory_order_relaxed);
  return __real__ZN2dk15block_checksumsESt4spanIKhLm18446744073709551615EEm(
      data, base);
}
}  // extern "C"

namespace perfbench {

namespace {

std::vector<std::uint8_t> random_bytes(std::uint64_t n, std::uint64_t seed) {
  dk::Rng rng(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.next());
  return v;
}

}  // namespace

std::uint64_t crc32c_bytes_seen() {
  return g_crc32c_bytes.load(std::memory_order_relaxed);
}

ReplayCost replay_crush(const dk::rados::Cluster& cluster, int pool,
                        const std::vector<std::uint64_t>& oids,
                        std::uint64_t placements) {
  const auto& cfg = cluster.pool(pool);
  const auto& map = cluster.layout().map;
  // The CRUSH input the client derives for an object (Cluster::acting_set).
  std::vector<std::uint32_t> xs;
  xs.reserve(oids.size());
  for (std::uint64_t oid : oids)
    xs.push_back(dk::crush::hash32_2(static_cast<std::uint32_t>(pool) + 1,
                                     cluster.pg_of(pool, oid)));

  // The layers live in separately compiled libraries, so none of the calls
  // below can be optimized away.
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < placements; ++i)
    map.do_rule(cfg.crush_rule, xs[i % xs.size()], cfg.fanout());
  const auto t1 = Clock::now();
  return {"crush", placements, 0, seconds_between(t0, t1)};
}

ReplayCost replay_ec(const dk::ec::Profile& profile, std::uint64_t stripe_bytes,
                     std::uint64_t encodes, std::uint64_t seed) {
  const dk::ec::ReedSolomon rs(profile);
  const auto data = rs.split(random_bytes(stripe_bytes, seed));
  std::uint64_t ok = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < encodes; ++i) ok += rs.encode(data).ok();
  const auto t1 = Clock::now();
  return {"ec", ok, ok * stripe_bytes, seconds_between(t0, t1)};
}

ReplayCost replay_gf(const dk::ec::Profile& profile, std::uint64_t chunk_bytes,
                     std::uint64_t calls, std::uint64_t seed) {
  const dk::ec::ReedSolomon rs(profile);
  const auto src = random_bytes(chunk_bytes, seed);
  std::vector<std::uint8_t> dst(chunk_bytes, 0);
  const unsigned per_encode = profile.k * profile.m;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < calls; ++i) {
    const unsigned slot = static_cast<unsigned>(i % per_encode);
    const std::uint8_t c = rs.generator().row(profile.k + slot / profile.k)
                               [slot % profile.k];
    dk::gf::mul_add_region(c, src, dst);
  }
  const auto t1 = Clock::now();
  return {"gf", calls, calls * chunk_bytes, seconds_between(t0, t1)};
}

ReplayCost replay_crc32c(std::uint64_t bytes, std::uint64_t seed) {
  const auto buf = random_bytes(dk::kChecksumBlockBytes, seed);
  std::uint32_t crc = 0;
  std::uint64_t calls = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t done = 0; done < bytes; ++calls) {
    const std::uint64_t n =
        std::min<std::uint64_t>(buf.size(), bytes - done);
    crc = dk::crc32c(std::span<const std::uint8_t>(buf.data(), n), crc);
    done += n;
  }
  const auto t1 = Clock::now();
  return {"crc32c", calls, bytes, seconds_between(t0, t1)};
}

}  // namespace perfbench
