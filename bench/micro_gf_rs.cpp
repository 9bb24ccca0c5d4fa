// Host-side microbenchmark (real CPU time): GF(2^8) region kernels,
// Reed-Solomon encode/decode bandwidth — the software EC cost the
// RS-Encoder RTL kernel offloads — and the CRC-32C the integrity path
// computes per block.
#include <benchmark/benchmark.h>

#include <optional>
#include <vector>

#include "common/crc32c.hpp"
#include "common/rng.hpp"
#include "ec/reed_solomon.hpp"
#include "gf/gf256.hpp"

namespace {

using namespace dk;

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.below(256));
  return v;
}

void BM_XorRegion(benchmark::State& state) {
  auto src = random_bytes(static_cast<std::size_t>(state.range(0)), 1);
  auto dst = random_bytes(static_cast<std::size_t>(state.range(0)), 2);
  for (auto _ : state) {
    gf::xor_region(src, dst);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_XorRegion)->Arg(4096)->Arg(128 * 1024);

void BM_MulAddRegion(benchmark::State& state) {
  auto src = random_bytes(static_cast<std::size_t>(state.range(0)), 1);
  auto dst = random_bytes(static_cast<std::size_t>(state.range(0)), 2);
  for (auto _ : state) {
    gf::mul_add_region(0x37, src, dst);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MulAddRegion)->Arg(4096)->Arg(128 * 1024);

void BM_RsEncode(benchmark::State& state) {
  ec::ReedSolomon rs({4, 2, ec::GeneratorKind::vandermonde});
  auto object = random_bytes(static_cast<std::size_t>(state.range(0)), 3);
  auto data = rs.split(object);
  for (auto _ : state) {
    auto coding = rs.encode(data);
    benchmark::DoNotOptimize(coding);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RsEncode)->Arg(4096)->Arg(128 * 1024)->Arg(1024 * 1024);

void BM_RsDecodeTwoErasures(benchmark::State& state) {
  ec::ReedSolomon rs({4, 2, ec::GeneratorKind::vandermonde});
  auto object = random_bytes(static_cast<std::size_t>(state.range(0)), 4);
  auto data = rs.split(object);
  auto coding = rs.encode(data);
  std::vector<std::optional<ec::Chunk>> all;
  for (auto& c : data) all.emplace_back(c);
  for (auto& c : *coding) all.emplace_back(c);
  all[0].reset();
  all[2].reset();
  for (auto _ : state) {
    auto decoded = rs.decode(all);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RsDecodeTwoErasures)->Arg(4096)->Arg(128 * 1024);

void BM_Crc32c(benchmark::State& state) {
  auto data = random_bytes(static_cast<std::size_t>(state.range(0)), 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(4096)->Arg(16 * 1024);

}  // namespace

BENCHMARK_MAIN();
