// dk_perfbench: end-to-end and per-layer benchmark of the simulated
// DeLiBA-K stack (io_uring -> DMQ -> UIFD/QDMA -> FPGA CRUSH/EC -> RADOS ->
// OSDs) and of the simulator that runs it.
//
//   dk_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   dk_perfbench --selftest
//
// One run repeats the workload ("reps") on fresh Frameworks until --seconds
// of host time have passed, cycling through inputs derived from --seed,
// checks every rep for correctness and for simulated results identical to
// those of the first rep of the same input, and prints its metrics:
// the end-to-end ones with --trace 0, the per-layer ones with --trace 1. The
// last line of standard output is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// Exit status is 0 only when every rep passed. A traced run also writes its
// spans and per-layer table under .bench_out/. perfbench/NOTES.md lists the
// workloads and metrics.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {
namespace {

// Seed for tuning runs; claims of a gain must also hold on the held-out seed.
constexpr std::uint64_t kHeldOutSeed = 104729;
constexpr std::uint64_t kMinReps = 5;
// Reps cycle through this many inputs derived from --seed, so every metric
// averages over more than one input draw. Odd, so that a traced run's
// alternating traced and untraced reps meet every input in both modes.
constexpr std::uint64_t kInputs = 3;

std::uint64_t input_seed(std::uint64_t seed, std::uint64_t input) {
  return seed + input * 0x9e3779b97f4a7c15ULL;
}
constexpr std::uint64_t kMaxReps = 200;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct Metric {
  std::string name;
  std::string unit;
  double value;
  const char* base;  // "host" or "sim" time base
};

std::string number(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double pct_us(const RepResult& r, const std::string& hist, double p) {
  auto it = r.histograms.find(hist);
  if (it == r.histograms.end()) return 0;
  return interpolated_percentile_ns(it->second, p) / 1000.0;
}

std::vector<Metric> end_to_end_metrics(const std::vector<RepResult>& reps,
                                       double rss_mib) {
  std::vector<double> throughput, setup;
  for (const RepResult& r : reps) {
    throughput.push_back(ratio(r.attempted, r.run_s));
    setup.push_back(r.setup_s);
  }
  // Simulated metrics pool the first rep of each input.
  dk::LatencyHistogram latency;
  std::uint64_t ops = 0;
  dk::Nanos window = 0;
  for (std::size_t i = 0; i < kInputs; ++i) {
    latency.merge(reps[i].fio.latency);
    ops += reps[i].fio.ops;
    window += reps[i].fio.measured_window;
  }
  return {
      {"sim_ios_per_host_s", "1/s", median(throughput), "host"},
      {"setup_s", "s", median(setup), "host"},
      {"peak_rss_mib", "MiB", rss_mib, "host"},
      {"sim_kiops", "kIOPS", dk::iops(ops, window) / 1000.0, "sim"},
      {"sim_lat_p50_us", "us", interpolated_percentile_ns(latency, 50) / 1000.0,
       "sim"},
      {"sim_lat_p99_us", "us", interpolated_percentile_ns(latency, 99) / 1000.0,
       "sim"},
  };
}

std::vector<Metric> per_layer_metrics(const std::vector<RepResult>& reps,
                                      const std::vector<std::size_t>& traced,
                                      const std::vector<std::size_t>& plain) {
  const RepResult& r = reps[traced.front()];
  const double ios = static_cast<double>(r.attempted);
  std::vector<double> us_per_io, ns_per_event, traced_total, plain_total;
  for (std::size_t i : traced) {
    us_per_io.push_back(ratio(reps[i].run_s * 1e6, reps[i].attempted));
    ns_per_event.push_back(ratio(reps[i].run_s * 1e9, reps[i].events));
    traced_total.push_back(reps[i].setup_s + reps[i].run_s);
  }
  for (std::size_t i : plain)
    plain_total.push_back(reps[i].setup_s + reps[i].run_s);
  const double host_us_per_io = median(us_per_io);

  auto cost = [&](std::string_view layer) {
    const ReplayCost* c = r.replay(layer);
    return c == nullptr ? ReplayCost{} : *c;
  };
  const ReplayCost crush = cost("crush"), ec = cost("ec"), gf = cost("gf"),
                   crc = cost("crc32c");
  const double crush_us_per_io = ratio(crush.host_s * 1e6, ios);
  const double ec_us_per_io = ratio(ec.host_s * 1e6, ios);
  const double crc_us_per_io = ratio(crc.host_s * 1e6, ios);
  // gf runs inside ec::ReedSolomon::encode, so it is not added again.
  const double attributed = crush_us_per_io + ec_us_per_io + crc_us_per_io;

  std::vector<Metric> m = {
      {"sim.events_per_io", "count", ratio(r.events, ios), "sim"},
      {"sim.host_ns_per_event", "ns", median(ns_per_event), "host"},
      {"workload.host_us_per_io", "us", host_us_per_io, "host"},
      {"workload.unattributed_host_share", "share",
       ratio(host_us_per_io - attributed, host_us_per_io), "host"},
      {"fpga.placements_per_io", "count", ratio(r.fpga_placements, ios), "sim"},
      {"crush.host_ns_per_placement", "ns",
       ratio(crush.host_s * 1e9, crush.ops), "host"},
      {"crush.host_us_per_io", "us", crush_us_per_io, "host"},
      {"ec.bytes_encoded_per_io", "B",
       ratio(r.counter("rados.ec_bytes_encoded"), ios), "sim"},
      {"ec.host_us_per_encode", "us", ratio(ec.host_s * 1e6, ec.ops), "host"},
      {"ec.host_us_per_io", "us", ec_us_per_io, "host"},
      {"gf.host_ns_per_kib", "ns", ratio(gf.host_s * 1e9, gf.bytes / 1024.0),
       "host"},
      {"crc32c.bytes_per_io", "B", ratio(r.crc32c_bytes, ios), "sim"},
      {"crc32c.host_ns_per_kib", "ns",
       ratio(crc.host_s * 1e9, crc.bytes / 1024.0), "host"},
      {"crc32c.host_us_per_io", "us", crc_us_per_io, "host"},
      {"blockstore.write_amp", "x",
       ratio(r.counter("blockstore.physical_bytes"),
             r.counter("blockstore.logical_bytes")),
       "sim"},
      {"blockstore.journal_trims_per_io", "count",
       ratio(r.counter("blockstore.journal.trims"), ios), "sim"},
      {"osd.ops_per_io", "count", ratio(r.counter("osd.ops"), ios), "sim"},
  };
  // Simulated hop latencies: stage.* partitions each I/O's end-to-end time.
  for (const char* hop :
       {"submit_to_sq_dispatch", "sq_dispatch_to_blk_enter",
        "blk_enter_to_driver_dispatch", "driver_dispatch_to_rados_issue",
        "rados_issue_to_remote_complete", "remote_complete_to_complete"}) {
    const std::string h = std::string("stage.") + hop;
    m.push_back({h + ".p50_us", "us", pct_us(r, h, 50), "sim"});
    m.push_back({h + ".p99_us", "us", pct_us(r, h, 99), "sim"});
  }
  for (const char* h : {"qdma.h2c_latency", "qdma.c2h_latency",
                        "osd.write_service", "osd.read_service"}) {
    m.push_back({std::string(h) + ".p50_us", "us", pct_us(r, h, 50), "sim"});
    m.push_back({std::string(h) + ".p99_us", "us", pct_us(r, h, 99), "sim"});
  }
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  m.insert(m.end(), {
      {"uring.sqes_per_io", "count",
       ratio(r.counter_sum("uring", ".sqes_submitted"), ios), "sim"},
      {"uring.sq_full_rejects", "count",
       count(r.counter_sum("uring", ".sq_full_rejects")), "sim"},
      {"blk.sched_bypass_ratio", "share",
       ratio(r.counter("blk.sched_bypass"), r.counter("blk.submitted")), "sim"},
      {"blk.tag_waits", "count", count(r.counter("blk.tag_waits")), "sim"},
      {"qdma.ring_full_rejects", "count",
       count(r.counter("qdma.ring_full_rejects")), "sim"},
      {"rados.messages_per_io", "count",
       ratio(r.counter("rados.messages_sent"), ios), "sim"},
      {"io.retries", "count", count(r.counter_sum("io.retries.")), "sim"},
      {"trace_overhead_pct", "%",
       100.0 * (ratio(median(traced_total), median(plain_total)) - 1.0),
       "host"},
  });
  return m;
}

void print_table(std::ostream& os, const std::vector<Metric>& metrics) {
  for (const auto& m : metrics) {
    char line[160];
    std::snprintf(line, sizeof line, "  %-40s %16.6g %-6s %s\n",
                  m.name.c_str(), m.value, m.unit.c_str(), m.base);
    os << line;
  }
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string s = std::string("{\"correct\": ") +
                  (correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(attempted) +
                  ", \"failed\": " + std::to_string(failed) +
                  ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) s += ", ";
    s += "\"" + metrics[i].name + "\": {\"value\": " +
         number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
         "\"}";
  }
  return s + "}}";
}

int run_benchmark(const Workload& w, const Args& a) {
  std::cout << "workload " << w.name << ": " << w.why << "\n"
            << "seed " << a.seed << " (held-out seed for claims: "
            << kHeldOutSeed << "), " << a.seconds << " s, trace "
            << (a.trace ? 1 : 0) << "\n";
  const auto start = Clock::now();
  SpanLog spans;
  std::vector<RepResult> reps;
  std::vector<std::size_t> traced, plain;
  std::uint64_t attempted = 0, failed = 0;
  double rss_mib = 0;
  for (std::uint64_t rep = 1; rep <= kMaxReps; ++rep) {
    // A traced run alternates untraced and traced reps, so it measures its
    // own tracing overhead and checks that tracing changes no simulated
    // number. The first traced rep also replays each layer.
    const bool is_traced = a.trace && rep % 2 == 0;
    const std::size_t input = (rep - 1) % kInputs;
    RepOptions opt{input_seed(a.seed, input), rep,
                   is_traced ? &spans : nullptr, is_traced && traced.empty()};
    const auto t0 = Clock::now();
    RepResult r = run_rep(w, opt);
    if (is_traced) spans.add("rep", rep, t0, Clock::now());
    attempted += r.attempted;
    failed += r.failed;
    if (!r.gate_failure.empty()) {
      std::cout << "FAIL rep " << rep << ":" << r.gate_failure << "\n";
      std::cout << result_json(false, attempted, failed, {}) << "\n";
      return 1;
    }
    if (input < reps.size() && r.fingerprint != reps[input].fingerprint) {
      std::cout << "FAIL rep " << rep << ": simulated results differ from rep "
                << input + 1 << ", which ran the same input"
                << (is_traced ? " untraced" : "") << "\n";
      std::cout << result_json(false, attempted, failed, {}) << "\n";
      return 1;
    }
    (is_traced ? traced : plain).push_back(reps.size());
    reps.push_back(std::move(r));
    // Peak RSS after one rep per input: later reps only add allocator
    // history, which would tie the figure to how many reps fit in the run.
    if (rep == kInputs) rss_mib = peak_rss_mib();
    if (rep >= kMinReps && seconds_between(start, Clock::now()) >= a.seconds)
      break;
  }

  std::cout << reps.size() << " reps (" << traced.size() << " traced) over "
            << kInputs << " inputs; every rep passed the correctness gate and "
               "repeated the simulated results of its input's first rep\n";
  std::uint64_t sim_ios = 0;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const RepResult& r = reps[i];
    if (i < kInputs) sim_ios += r.fio.ops;
    std::printf("  rep %2zu input %zu: setup %.6f s, run %.4f s, %llu I/Os, "
                "%llu events\n",
                i + 1, i % kInputs, r.setup_s, r.run_s,
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.events));
  }
  std::cout << "  sim_ios " << sim_ios
            << " (latency samples in the measured windows)\n"
            << "  failed_io_ratio " << number(ratio(failed, attempted)) << " ("
            << failed << " of " << attempted << " I/Os)\n";
  std::cout.flush();

  std::vector<Metric> metrics;
  if (!a.trace) {
    metrics = end_to_end_metrics(reps, rss_mib);
  } else {
    metrics = per_layer_metrics(reps, traced, plain);
    std::filesystem::create_directories(".bench_out");
    const std::string stem = ".bench_out/" + std::string(w.name) + "-seed" +
                             std::to_string(a.seed);
    {
      std::ofstream f(stem + ".trace.json");
      spans.write_chrome_json(f, std::string(w.name));
    }
    {
      std::ofstream f(stem + ".layers.tsv");
      f << "metric\tvalue\tunit\ttime_base\n";
      for (const auto& m : metrics)
        f << m.name << "\t" << number(m.value) << "\t" << m.unit << "\t"
          << m.base << "\n";
    }
    std::cout << "trace: " << stem << ".trace.json, table: " << stem
              << ".layers.tsv\n";
  }
  print_table(std::cout, metrics);
  std::cout << result_json(true, attempted, failed, metrics) << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    try {
      if (arg == "--workload") a.workload = value();
      else if (arg == "--seed") a.seed = std::stoull(value());
      else if (arg == "--seconds") a.seconds = std::stod(value());
      else if (arg == "--trace") a.trace = value() != "0";
      else if (arg == "--selftest") selftest = true;
      else {
        std::cerr << "unknown argument " << arg << "\n";
        return 2;
      }
    } catch (const std::exception&) {
      std::cerr << "bad value for " << arg << "\n";
      return 2;
    }
  }
  if (!(a.seconds > 0)) {
    std::cerr << "--seconds must be positive\n";
    return 2;
  }
  if (selftest) return run_selftest();
  const Workload* w = find_workload(a.workload);
  if (w == nullptr) {
    std::cerr << "unknown workload '" << a.workload << "'; one of:";
    for (const auto& known : workloads()) std::cerr << " " << known.name;
    std::cerr << "\n";
    return 2;
  }
  return run_benchmark(*w, a);
}
