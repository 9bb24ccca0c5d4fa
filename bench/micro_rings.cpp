// Host-side microbenchmark (real CPU time): SQ/CQ ring mechanics — single
// push/pop, and the io_uring front-end over a RAM disk, one SQE or a batch
// per enter(), quantifying the per-op cost of the zero-copy ring interface.
#include <benchmark/benchmark.h>

#include <array>

#include "common/ring_buffer.hpp"
#include "common/units.hpp"
#include "uring/io_uring.hpp"
#include "uring/ramdisk.hpp"

namespace {

using namespace dk;

void BM_RingPushPop(benchmark::State& state) {
  RingBuffer<uring::Sqe> ring(256);
  uring::Sqe sqe{};
  for (auto _ : state) {
    ring.push(sqe);
    auto out = ring.pop();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RingPushPop);

void BM_UringWrite4k(benchmark::State& state) {
  uring::RamDisk disk(64 * MiB);
  uring::IoUring ring({.sq_entries = 256, .mode = uring::RingMode::interrupt},
                      disk);
  std::array<std::uint8_t, 4096> buf{};
  std::array<uring::Cqe, 256> cqes;
  std::uint64_t off = 0;
  for (auto _ : state) {
    (void)ring.prep_write(0, reinterpret_cast<std::uint64_t>(buf.data()),
                          buf.size(), off, 0);
    off = (off + 4096) % (64 * MiB);
    ring.enter();
    ring.peek_cqes(cqes);
  }
  state.SetBytesProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_UringWrite4k);

void BM_UringWriteBatched(benchmark::State& state) {
  const unsigned batch = static_cast<unsigned>(state.range(0));
  uring::RamDisk disk(64 * MiB);
  uring::IoUring ring({.sq_entries = 256, .mode = uring::RingMode::interrupt},
                      disk);
  std::array<std::uint8_t, 4096> buf{};
  std::array<uring::Cqe, 256> cqes;
  std::uint64_t off = 0;
  for (auto _ : state) {
    for (unsigned i = 0; i < batch; ++i) {
      (void)ring.prep_write(0, reinterpret_cast<std::uint64_t>(buf.data()),
                            buf.size(), off, i);
      off = (off + 4096) % (64 * MiB);
    }
    ring.enter();  // ONE call moves the whole batch
    ring.peek_cqes(cqes);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_UringWriteBatched)->Arg(8)->Arg(32)->Arg(128);

}  // namespace

BENCHMARK_MAIN();
