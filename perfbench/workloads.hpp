// The benchmark's workloads and one measured repetition ("rep") of each.
//
// A rep builds a fresh DeLiBA-K Framework (1 fio job, iodepth 32, one
// simulation thread), prefills it when the workload reads, runs one
// FioEngine job for a fixed simulated time, drains, and applies the
// correctness gate. Everything the stack reports is read from outside,
// through Framework::metrics() and Framework::stats(), as deltas over the
// fio run. Two reps with the same seed must agree on every simulated
// number; the caller checks that through RepResult::fingerprint.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/histogram.hpp"
#include "core/framework.hpp"
#include "replay.hpp"
#include "trace.hpp"
#include "workload/fio.hpp"

namespace perfbench {

struct Workload {
  std::string_view name;
  std::string_view why;
  dk::core::PoolMode pool;
  dk::workload::RwMode rw;
  std::uint64_t bs;
  // Integrity checksums + WAL blockstore, a prefilled image and verified
  // reads. Only the durable workload sets it.
  bool durable;
  std::uint64_t image_size;
  dk::Nanos sim_runtime;  // simulated time of one rep's fio run
};

const std::vector<Workload>& workloads();
const Workload* find_workload(std::string_view name);

struct RepOptions {
  std::uint64_t seed = 1;
  std::uint64_t rep = 0;      // index, for span grouping
  SpanLog* spans = nullptr;   // non-null on traced reps
  bool replay = false;        // replay each layer's work after the run
};

struct RepResult {
  // Host time, seconds: Framework construction plus prefill, and fio run.
  double setup_s = 0;
  double run_s = 0;

  // Simulated outcome of the fio run (after the prefill).
  dk::workload::FioResult fio;
  std::uint64_t attempted = 0;  // I/Os submitted: io.writes + io.reads
  std::uint64_t failed = 0;     // io.errors + io.timeouts + verify errors
  std::uint64_t events = 0;     // simulator events executed
  std::uint64_t fpga_placements = 0;
  std::uint64_t crc32c_bytes = 0;  // bytes the stack checksummed
  std::map<std::string, std::uint64_t> counters;  // deltas over the run
  std::map<std::string, dk::LatencyHistogram> histograms;  // run only
  std::vector<std::string> registered;  // every registered metric name

  // Correctness gate: empty when the rep passed.
  std::string gate_failure;
  // Every simulated number of the rep; equal for equal seeds.
  std::string fingerprint;

  std::vector<ReplayCost> replays;  // when RepOptions::replay

  std::uint64_t counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  /// Sum of the counters whose name matches `prefix` + anything + `suffix`.
  std::uint64_t counter_sum(std::string_view prefix,
                            std::string_view suffix = {}) const;
  bool has_metric_prefix(std::string_view prefix) const;
  /// The replay of `layer`, or nullptr when the rep did not replay it.
  const ReplayCost* replay(std::string_view layer) const;
};

RepResult run_rep(const Workload& w, const RepOptions& opt);

/// Percentile of a LatencyHistogram, linearly interpolated inside the
/// containing bucket (LatencyHistogram::percentile returns the bucket's
/// upper bound). Nanoseconds.
double interpolated_percentile_ns(const dk::LatencyHistogram& h, double p);

/// Workload-shape self-test (selftest.cpp); returns the process exit code.
int run_selftest();

}  // namespace perfbench
