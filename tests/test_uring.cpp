// Tests for the io_uring-style ring API: SQ/CQ mechanics, batching,
// kernel-polled mode, multi-instance registry, and the RAM-disk backend.
#include <gtest/gtest.h>

#include <array>

#include "common/pipeline_validator.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "uring/io_uring.hpp"
#include "uring/ramdisk.hpp"
#include "uring/registry.hpp"

namespace dk::uring {
namespace {

TEST(IoUring, ReadWriteRoundTripThroughRamDisk) {
  RamDisk disk(1 * MiB);
  IoUring ring({.sq_entries = 16, .mode = RingMode::interrupt}, disk);

  std::array<std::uint8_t, 4096> wbuf{};
  Rng rng(1);
  for (auto& b : wbuf) b = static_cast<std::uint8_t>(rng.below(256));
  ASSERT_TRUE(ring.prep_write(0, reinterpret_cast<std::uint64_t>(wbuf.data()),
                              wbuf.size(), 8192, 111).ok());
  EXPECT_EQ(ring.enter(), 1u);

  std::array<Cqe, 4> cqes;
  ASSERT_EQ(ring.peek_cqes(cqes), 1u);
  EXPECT_EQ(cqes[0].user_data, 111u);
  EXPECT_EQ(cqes[0].res, 4096);

  std::array<std::uint8_t, 4096> rbuf{};
  ASSERT_TRUE(ring.prep_read(0, reinterpret_cast<std::uint64_t>(rbuf.data()),
                             rbuf.size(), 8192, 222).ok());
  EXPECT_EQ(ring.enter(), 1u);
  ASSERT_EQ(ring.peek_cqes(cqes), 1u);
  EXPECT_EQ(cqes[0].user_data, 222u);
  EXPECT_EQ(rbuf, wbuf);
}

TEST(IoUring, BatchingManySqesOneEnterCall) {
  RamDisk disk(1 * MiB);
  IoUring ring({.sq_entries = 64, .mode = RingMode::interrupt}, disk);
  std::array<std::uint8_t, 512> buf{};
  for (int i = 0; i < 32; ++i)
    ASSERT_TRUE(ring.prep_write(0, reinterpret_cast<std::uint64_t>(buf.data()),
                                buf.size(), static_cast<std::uint64_t>(i) * 512,
                                static_cast<std::uint64_t>(i)).ok());
  EXPECT_EQ(ring.enter(), 32u);
  EXPECT_EQ(ring.stats().enter_calls, 1u);
  EXPECT_EQ(ring.stats().sqes_submitted, 32u);
  EXPECT_DOUBLE_EQ(ring.stats().batch_factor(), 32.0);
}

TEST(IoUring, SqFullReturnsAgain) {
  RamDisk disk(1 * MiB);
  IoUring ring({.sq_entries = 4, .mode = RingMode::interrupt}, disk);
  PipelineValidator validator;
  ring.attach_validator(validator, 0);
  std::array<std::uint8_t, 16> buf{};
  for (int i = 0; i < 4; ++i)
    ASSERT_TRUE(ring.prep_write(0, reinterpret_cast<std::uint64_t>(buf.data()),
                                buf.size(), 0, 0).ok());
  auto s = ring.prep_write(0, reinterpret_cast<std::uint64_t>(buf.data()),
                           buf.size(), 0, 0);
  EXPECT_EQ(s.code(), Errc::again);
  EXPECT_EQ(ring.stats().sq_full_rejects, 1u);

  // The rejected SQE was never queued, so it reports nothing: the four
  // accepted ones drain and reap with the validator balanced.
  EXPECT_EQ(ring.enter(), 4u);
  std::array<Cqe, 8> cqes;
  EXPECT_EQ(ring.peek_cqes(cqes), 4u);
  EXPECT_EQ(validator.violations(), 0u);
  EXPECT_EQ(validator.verify_quiescent(), 0u);
}

TEST(IoUring, KernelPolledModeNeedsNoEnterCalls) {
  RamDisk disk(1 * MiB);
  IoUring ring({.sq_entries = 16, .mode = RingMode::kernel_polled}, disk);
  std::array<std::uint8_t, 64> buf{};
  ASSERT_TRUE(ring.prep_write(0, reinterpret_cast<std::uint64_t>(buf.data()),
                              buf.size(), 0, 1).ok());
  EXPECT_EQ(ring.enter(), 0u) << "enter is a no-op in kernel-polled mode";
  EXPECT_EQ(ring.kernel_poll(), 1u);
  EXPECT_EQ(ring.stats().enter_calls, 0u);
  EXPECT_EQ(ring.stats().sq_poll_wakeups, 1u);
}

TEST(IoUring, ErrorsSurfaceAsNegativeRes) {
  RamDisk disk(4096);
  IoUring ring({.sq_entries = 4, .mode = RingMode::interrupt}, disk);
  std::array<std::uint8_t, 128> buf{};
  ASSERT_TRUE(ring.prep_read(0, reinterpret_cast<std::uint64_t>(buf.data()),
                             buf.size(), 1 * MiB, 9).ok());  // out of range
  ring.enter();
  std::array<Cqe, 1> cqes;
  ASSERT_EQ(ring.peek_cqes(cqes), 1u);
  EXPECT_LT(cqes[0].res, 0);
}

TEST(IoUring, DeferredCompletionFlowsThroughCq) {
  RamDisk disk(1 * MiB, /*deferred=*/true);
  IoUring ring({.sq_entries = 8, .mode = RingMode::interrupt}, disk);
  std::array<std::uint8_t, 256> buf{};
  ASSERT_TRUE(ring.prep_write(0, reinterpret_cast<std::uint64_t>(buf.data()),
                              buf.size(), 0, 5).ok());
  ring.enter();
  EXPECT_EQ(ring.cq_ready(), 0u) << "completion is deferred";
  EXPECT_EQ(ring.inflight(), 1u);
  EXPECT_EQ(disk.poll(), 1u);
  std::array<Cqe, 1> cqes;
  ASSERT_EQ(ring.peek_cqes(cqes), 1u);
  EXPECT_TRUE(ring.idle());
}

TEST(IoUring, CqOverflowBacklogsInOrderAndHoldsSq) {
  // NODROP: completions that find the CQ full wait on a backlog, and while
  // it cannot flush, enter() moves no SQE (the kernel's -EBUSY).
  RamDisk disk(1 * MiB, /*deferred=*/true);
  IoUring ring({.sq_entries = 4, .cq_entries = 8, .mode = RingMode::interrupt},
               disk);
  std::array<std::uint8_t, 512> buf{};
  const auto addr = reinterpret_cast<std::uint64_t>(buf.data());
  std::uint64_t ud = 0;
  for (int batch = 0; batch < 3; ++batch) {
    for (int i = 0; i < 4; ++i)
      ASSERT_TRUE(ring.prep_write(0, addr, buf.size(), 0, ud++).ok());
    ASSERT_EQ(ring.enter(), 4u);
  }
  EXPECT_EQ(disk.poll(), 12u);  // 8 fill the CQ, 4 go to the backlog
  EXPECT_EQ(ring.cq_ready(), 8u);

  for (int i = 0; i < 4; ++i)
    ASSERT_TRUE(ring.prep_write(0, addr, buf.size(), 0, ud++).ok());
  EXPECT_EQ(ring.enter(), 0u) << "SQ must be held while the backlog is full";
  EXPECT_EQ(ring.sq_pending(), 4u);

  std::array<Cqe, 8> cqes;
  ASSERT_EQ(ring.peek_cqes(cqes), 8u);
  for (std::uint64_t i = 0; i < 8; ++i) EXPECT_EQ(cqes[i].user_data, i);
  EXPECT_EQ(ring.enter(), 4u) << "flushes the backlog, then drains the SQ";

  EXPECT_EQ(disk.poll(), 4u);
  ASSERT_EQ(ring.peek_cqes(cqes), 8u);
  for (std::uint64_t i = 0; i < 8; ++i) EXPECT_EQ(cqes[i].user_data, 8 + i);
  EXPECT_TRUE(ring.idle());
  EXPECT_EQ(ring.stats().cqes_reaped, 16u);
}

TEST(IoUring, NopCompletesWithZero) {
  RamDisk disk(4096);
  IoUring ring({.sq_entries = 4, .mode = RingMode::interrupt}, disk);
  ASSERT_TRUE(ring.prep(Sqe{Opcode::nop, 0, -1, 0, 0, 0, 77}).ok());
  ring.enter();
  std::array<Cqe, 1> cqes;
  ASSERT_EQ(ring.peek_cqes(cqes), 1u);
  EXPECT_EQ(cqes[0].res, 0);
  EXPECT_EQ(cqes[0].user_data, 77u);
}

TEST(UringRegistry, CreatesInstancesBoundToConsecutiveCpus) {
  RamDisk disk(1 * MiB);
  UringRegistry reg({.instances = 3, .ring = {}, .first_cpu = 2}, disk);
  ASSERT_EQ(reg.size(), 3u);
  EXPECT_EQ(reg.cpu_of(0), 2);
  EXPECT_EQ(reg.cpu_of(1), 3);
  EXPECT_EQ(reg.cpu_of(2), 4);
}

TEST(UringRegistry, RoundRobinSpreadsSubmissions) {
  RamDisk disk(1 * MiB);
  UringRegistry reg({.instances = 3, .ring = {}}, disk);
  std::array<std::uint8_t, 64> buf{};
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(reg.next()
                    .prep_write(0, reinterpret_cast<std::uint64_t>(buf.data()),
                                buf.size(), 0, 0)
                    .ok());
  }
  reg.drain_all();
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_EQ(reg.ring(i).stats().sqes_submitted, 3u) << "instance " << i;
  EXPECT_EQ(reg.total_stats().sqes_submitted, 9u);
}

TEST(UringRegistry, AllIdleAfterDrainAndReap) {
  RamDisk disk(1 * MiB);
  UringRegistry reg({.instances = 2, .ring = {}}, disk);
  std::array<std::uint8_t, 64> buf{};
  ASSERT_TRUE(reg.next()
                  .prep_write(0, reinterpret_cast<std::uint64_t>(buf.data()),
                              buf.size(), 0, 0)
                  .ok());
  reg.drain_all();
  EXPECT_FALSE(reg.all_idle());
  std::array<Cqe, 4> cqes;
  reg.ring(0).peek_cqes(cqes);
  EXPECT_TRUE(reg.all_idle());
}

TEST(UringRegistry, ZeroInstancesClampsToOne) {
  RamDisk disk(4096);
  UringRegistry reg({.instances = 0, .ring = {}}, disk);
  EXPECT_EQ(reg.size(), 1u);
}

}  // namespace
}  // namespace dk::uring
