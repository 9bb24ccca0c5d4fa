// Tests for the live (real-thread) SQ-poll thread driving a ring.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <thread>

#include "common/units.hpp"
#include "uring/poller.hpp"
#include "uring/ramdisk.hpp"

namespace dk {
namespace {

TEST(SqPollThread, DrivesRingWithoutEnterCalls) {
  uring::RamDisk disk(1 * MiB);
  uring::IoUring ring({.sq_entries = 64, .mode = uring::RingMode::kernel_polled},
                      disk);
  uring::SqPollThread poller({&ring});

  std::array<std::uint8_t, 512> buf{};
  constexpr int kOps = 200;
  int reaped = 0;
  std::array<uring::Cqe, 16> cqes;
  for (int i = 0; i < kOps; ++i) {
    while (!ring.prep_write(0, reinterpret_cast<std::uint64_t>(buf.data()),
                            buf.size(), (i % 128) * 512ull, i)
                .ok()) {
      reaped += ring.peek_cqes(cqes);  // SQ full: reap to make room
    }
    reaped += ring.peek_cqes(cqes);
  }
  // Wait for the poller to drain the tail.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (reaped < kOps && std::chrono::steady_clock::now() < deadline)
    reaped += ring.peek_cqes(cqes);
  poller.stop();

  EXPECT_EQ(reaped, kOps);
  EXPECT_EQ(ring.stats().enter_calls, 0u);
  EXPECT_GT(ring.stats().sq_poll_wakeups, 0u);
  EXPECT_GT(poller.polls(), 0u);
}

TEST(SqPollThread, NapsWhenIdle) {
  uring::RamDisk disk(4096);
  uring::IoUring ring({.sq_entries = 8, .mode = uring::RingMode::kernel_polled},
                      disk);
  uring::SqPollThread poller({&ring},
                             {.idle_spins = 8, .nap = std::chrono::microseconds(100)});
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (poller.naps() == 0 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
  EXPECT_GT(poller.naps(), 0u) << "idle poller must back off";
  poller.stop();
}

}  // namespace
}  // namespace dk
