// A from-scratch io_uring-style asynchronous I/O instance.
//
// Two bounded rings — the Submission Queue (application-produced) and the
// Completion Queue (backend-produced) — plus a pluggable backend that plays
// the role of the kernel block layer / UIFD driver underneath. An instance
// is single-threaded, like every DES component: the application, the
// kernel_poll() calls and every backend completion (the DES, or RamDisk
// inline or from its poll()) run on one thread.
//
// Faithful to the semantics DeLiBA-K relies on:
//   * zero-copy communication: SQEs/CQEs move through shared rings; the
//     data buffer is referenced by address, never copied by the ring;
//   * batching: any number of queued SQEs are handed to the backend with
//     ONE enter() call (one "system call");
//   * kernel-polled mode: kernel_poll(), called by the DES at the modeled
//     SQ-poll times, drains the SQ without enter() calls;
//   * multi-instance with per-CPU binding (see UringRegistry);
//   * no lost completions (IORING_FEAT_NODROP, every kernel since 5.5): a
//     CQE that finds the CQ full waits, in order, on an overflow backlog
//     and is flushed into the CQ before any newer CQE. While the backlog
//     cannot be flushed, enter()/kernel_poll() move no SQE (the kernel's
//     -EBUSY), so the SQ fills and prep() fails until the app reaps.
//
// Accounting (syscall count, batch histogram, completion counts) is exposed
// so benchmarks can attribute speedups to specific mechanisms.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/metrics.hpp"
#include "common/ring_buffer.hpp"
#include "common/status.hpp"
#include "uring/sqe.hpp"

namespace dk {
class PipelineValidator;
}  // namespace dk

namespace dk::uring {

/// The "kernel" side: consumes SQEs, performs I/O, posts completions via
/// the callback. Implementations: simulated block stacks (DES), RAM disk
/// (live mode), or the DeLiBA-K DMQ/UIFD pipeline.
class Backend {
 public:
  virtual ~Backend() = default;

  /// Start the I/O described by `sqe`; invoke `complete(res)` when done.
  /// `res` is bytes transferred on success or a negative Errc value.
  virtual void submit_io(const Sqe& sqe,
                         std::function<void(std::int32_t)> complete) = 0;
};

struct UringParams {
  unsigned sq_entries = 256;  // rounded up to a power of two
  unsigned cq_entries = 0;    // 0 -> 2 * sq_entries, like the kernel default
  RingMode mode = RingMode::kernel_polled;
  int bound_cpu = -1;         // CPU this instance's SQ handling is pinned to
};

/// Ring accounting.
struct UringStats {
  std::uint64_t sqes_submitted = 0;
  std::uint64_t cqes_reaped = 0;
  std::uint64_t enter_calls = 0;     // simulated io_uring_enter syscalls
  std::uint64_t sq_poll_wakeups = 0; // kernel-polled drains
  std::uint64_t sq_full_rejects = 0;

  /// Mean SQEs moved per enter()/poll — the batching factor.
  double batch_factor() const {
    const std::uint64_t drains = enter_calls + sq_poll_wakeups;
    return drains ? static_cast<double>(sqes_submitted) / static_cast<double>(drains) : 0.0;
  }
};

class IoUring {
 public:
  IoUring(UringParams params, Backend& backend);

  IoUring(const IoUring&) = delete;
  IoUring& operator=(const IoUring&) = delete;

  const UringParams& params() const { return params_; }
  const UringStats& stats() const { return stats_; }
  unsigned sq_capacity() const { return static_cast<unsigned>(sq_.capacity()); }
  std::size_t sq_pending() const { return sq_.size(); }
  std::size_t cq_ready() const { return cq_.size(); }
  /// Submitted and not yet in the CQ or reaped; includes the CQ backlog.
  std::uint64_t inflight() const {
    return stats_.sqes_submitted - stats_.cqes_reaped - cq_.size();
  }

  /// Queue an SQE (application side). Fails with `again` when the SQ is
  /// full — the caller must enter()/poll to drain first.
  Status prep(const Sqe& sqe);

  Status prep_read(std::int32_t fd, std::uint64_t buf_addr, std::uint32_t len,
                   std::uint64_t off, std::uint64_t user_data);
  Status prep_write(std::int32_t fd, std::uint64_t buf_addr, std::uint32_t len,
                    std::uint64_t off, std::uint64_t user_data);

  /// Register fixed buffers (io_uring_register(IORING_REGISTER_BUFFERS)):
  /// read_fixed/write_fixed SQEs reference them by index, avoiding per-op
  /// pin/map work. Replaces any previous registration.
  Status register_buffers(std::vector<std::pair<std::uint64_t, std::uint32_t>>
                              buffers);
  std::size_t registered_buffer_count() const { return buffers_.size(); }

  /// Prep a fixed-buffer I/O: `buf_index` selects a registered buffer.
  Status prep_read_fixed(std::int32_t fd, unsigned buf_index, std::uint32_t len,
                         std::uint64_t off, std::uint64_t user_data);
  Status prep_write_fixed(std::int32_t fd, unsigned buf_index,
                          std::uint32_t len, std::uint64_t off,
                          std::uint64_t user_data);

  /// Register fixed files (IORING_REGISTER_FILES): SQEs with kSqeFixedFile
  /// use `fd` as an index into this table.
  Status register_files(std::vector<std::int32_t> fds);
  std::size_t registered_file_count() const { return files_.size(); }

  /// io_uring_enter(): hand every queued SQE to the backend in ONE call.
  /// Returns the number of SQEs consumed. It first flushes the CQ backlog
  /// and consumes nothing (returns 0) while that backlog cannot be emptied.
  /// In kernel_polled mode this is a no-op returning 0 (the poller owns the
  /// SQ; see kernel_poll()).
  unsigned enter();

  /// Kernel SQ-poll thread iteration: drain queued SQEs without a syscall,
  /// after flushing the CQ backlog as enter() does. Only valid in
  /// kernel_polled mode.
  unsigned kernel_poll();

  /// Reap up to out.size() completions into `out`; returns the count.
  unsigned peek_cqes(std::span<Cqe> out);

  /// True once every submitted SQE has completed and been reaped.
  bool idle() const { return inflight() == 0 && cq_.size() == 0; }

  /// Publish ring activity into `registry` under "<prefix>." names
  /// (sqes_submitted, cqes_reaped, enter_calls, sq_poll_wakeups,
  /// sq_full_rejects counters and an unreaped-completions gauge). Handles
  /// are resolved once here; hot-path updates are lock-free.
  void attach_metrics(MetricsRegistry& registry, const std::string& prefix);

  /// Report ring lifecycle events (SQE queued/issued, CQE posted/reaped)
  /// to `validator` as ring `ring_id`. Same pattern as attach_metrics(): a
  /// null-checked pointer on the hot path. Queued and posted are reported
  /// only for entries the SQ/CQ accepted; a backlogged CQE counts as posted
  /// when it reaches the CQ.
  void attach_validator(PipelineValidator& validator, unsigned ring_id);

 private:
  unsigned drain_sq();
  // Post a CQE into the CQ, or onto the backlog when the CQ is full or the
  // backlog is not empty. Never drops.
  void post_cqe(const Cqe& cqe);
  // Push one CQE into the CQ, reporting it posted; false when the CQ is full.
  bool push_cqe(const Cqe& cqe);
  // Move backlogged CQEs into the CQ in order; true once the backlog is empty.
  bool flush_cq_backlog();
  // Resolve fixed buffers/files into a plain SQE; nullopt -> invalid, and a
  // CQE with -invalid_argument is posted directly.
  bool resolve(Sqe& sqe);
  void issue(const Sqe& sqe);
  void issue_chain(std::shared_ptr<std::vector<Sqe>> chain, std::size_t at);

  UringParams params_;
  Backend& backend_;
  RingBuffer<Sqe> sq_;
  RingBuffer<Cqe> cq_;
  // CQ overflow backlog, flushed in order ahead of any newer CQE.
  std::deque<Cqe> cq_backlog_;
  UringStats stats_;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> buffers_;
  std::vector<std::int32_t> files_;

  // Optional live metric handles (null until attach_metrics()).
  struct MetricHandles {
    Counter* sqes = nullptr;
    Counter* cqes = nullptr;
    Counter* enters = nullptr;
    Counter* poll_wakeups = nullptr;
    Counter* sq_full = nullptr;
    Gauge* outstanding = nullptr;  // submitted - reaped (in flight + CQ)
  };
  MetricHandles metrics_;

  PipelineValidator* validator_ = nullptr;
  unsigned ring_id_ = 0;
};

}  // namespace dk::uring
