#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <sstream>

#include "common/rng.hpp"

namespace perfbench {

namespace {

using dk::MiB;
using dk::core::PoolMode;
using dk::workload::RwMode;

std::map<std::string, std::uint64_t> counter_values(
    const dk::MetricsRegistry& reg) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& name : reg.counter_names())
    out[name] = reg.find_counter(name)->value();
  return out;
}

dk::core::FrameworkConfig make_config(const Workload& w, std::uint64_t seed) {
  dk::core::FrameworkConfig cfg;
  cfg.variant = dk::core::VariantKind::delibak;
  cfg.pool_mode = w.pool;
  cfg.image_size = w.image_size;
  cfg.integrity = w.durable;
  cfg.blockstore.enabled = w.durable;
  // The seed also drives the simulated OSDs' service-time jitter, so a new
  // seed gives new timings, not only new offsets and payload bytes.
  cfg.seed = seed;
  return cfg;
}

dk::workload::FioJobSpec make_spec(const Workload& w, std::uint64_t seed) {
  dk::workload::FioJobSpec spec;
  spec.rw = w.rw;
  spec.rwmix_read = 70;
  spec.bs = w.bs;
  spec.iodepth = 32;
  spec.numjobs = 1;
  spec.runtime = w.sim_runtime;
  spec.ramp = dk::ms(50);
  spec.verify = w.durable;
  spec.seed = seed;
  return spec;
}

/// Object ids the workload's offsets map to, in issue order (random or
/// sequential blocks over the image), for the CRUSH replay.
std::vector<std::uint64_t> workload_oids(const Workload& w,
                                         const dk::host::RbdDevice& image,
                                         std::uint64_t count,
                                         std::uint64_t seed) {
  const std::uint64_t blocks = w.image_size / w.bs;
  const bool random = dk::workload::is_random(w.rw);
  dk::Rng rng(seed);
  std::vector<std::uint64_t> oids;
  oids.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t block = random ? rng.below(blocks) : i % blocks;
    oids.push_back(image.oid_of(block * w.bs));
  }
  return oids;
}

void run_replays(const Workload& w, const RepOptions& opt,
                 dk::core::Framework& fw, RepResult& r) {
  auto traced = [&](ReplayCost cost) {
    if (opt.spans != nullptr) {
      const auto end = Clock::now();
      const auto start =
          end - std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(cost.host_s));
      opt.spans->add("replay." + cost.layer, opt.rep, start, end);
    }
    r.replays.push_back(std::move(cost));
  };

  dk::rados::Cluster& cluster = fw.cluster();
  const int pool = static_cast<int>(cluster.pool_count()) - 1;
  const std::uint64_t placements = r.fpga_placements;
  if (placements > 0)
    traced(replay_crush(
        cluster, pool,
        workload_oids(w, fw.image(), std::min<std::uint64_t>(placements, 4096),
                      opt.seed),
        placements));

  const std::uint64_t encoded = r.counter("rados.ec_bytes_encoded");
  if (encoded > 0) {
    const dk::ec::Profile& profile = fw.config().ec_profile;
    const std::uint64_t encodes = encoded / w.bs;
    traced(replay_ec(profile, w.bs, encodes, opt.seed));
    // ReedSolomon::encode makes k*m region multiplies per stripe.
    traced(replay_gf(profile, (w.bs + profile.k - 1) / profile.k,
                     encodes * profile.k * profile.m, opt.seed));
  }

  if (r.crc32c_bytes > 0) traced(replay_crc32c(r.crc32c_bytes, opt.seed));
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"rep-randwrite-4k",
       "small random writes on a 2x replicated pool: per-op cost (events, "
       "CRUSH, payload generation), no EC, no reads",
       PoolMode::replicated, RwMode::rand_write, 4096, false, 64 * MiB,
       dk::ms(500)},
      {"ec-seqwrite-128k",
       "large sequential writes on an EC 4+2 pool: byte cost (payload "
       "generation, GF(2^8) encode), few events per byte",
       PoolMode::erasure, RwMode::seq_write, 128 * 1024, false, 64 * MiB,
       dk::ms(400)},
      {"rep-randrw-16k-durable",
       "70/30 random read/write with CRC-32C integrity and the WAL "
       "blockstore on a prefilled image: the only reads, checksums, journal",
       PoolMode::replicated, RwMode::rand_rw, 16 * 1024, true, 32 * MiB,
       dk::ms(250)},
  };
  return kWorkloads;
}

const Workload* find_workload(std::string_view name) {
  for (const auto& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

std::uint64_t RepResult::counter_sum(std::string_view prefix,
                                     std::string_view suffix) const {
  std::uint64_t sum = 0;
  for (const auto& [name, value] : counters)
    if (name.size() >= prefix.size() + suffix.size() &&
        name.starts_with(prefix) && name.ends_with(suffix))
      sum += value;
  return sum;
}

bool RepResult::has_metric_prefix(std::string_view prefix) const {
  return std::any_of(
      registered.begin(), registered.end(),
      [&](const std::string& n) { return n.starts_with(prefix); });
}

const ReplayCost* RepResult::replay(std::string_view layer) const {
  for (const auto& c : replays)
    if (c.layer == layer) return &c;
  return nullptr;
}

RepResult run_rep(const Workload& w, const RepOptions& opt) {
  RepResult r;
  auto span = [&](const char* name, Clock::time_point a, Clock::time_point b) {
    if (opt.spans != nullptr) opt.spans->add(name, opt.rep, a, b);
  };

  const auto t0 = Clock::now();
  dk::sim::Simulator sim;
  dk::core::Framework fw(sim, make_config(w, opt.seed));
  dk::workload::FioEngine fio(fw);
  const auto t1 = Clock::now();
  if (w.durable) {
    // Prefill only: a zero-length run writes every block of the image with
    // the verify pattern and issues nothing after it.
    auto prefill = make_spec(w, opt.seed);
    prefill.prefill = true;
    prefill.runtime = 0;
    fio.run(prefill);
  }
  const auto t2 = Clock::now();

  dk::MetricsRegistry& reg = fw.metrics();
  for (const auto& name : reg.histogram_names()) reg.histogram(name).reset();
  const auto before = counter_values(reg);
  const std::uint64_t events0 = sim.executed_events();
  const std::uint64_t placements0 = fw.stats().fpga_placements;
  const std::uint64_t crc0 = crc32c_bytes_seen();

  const auto t3 = Clock::now();
  r.fio = fio.run(make_spec(w, opt.seed));  // drains the simulator
  const auto t4 = Clock::now();

  r.setup_s = seconds_between(t0, t2);
  r.run_s = seconds_between(t3, t4);
  span("setup.framework", t0, t1);
  if (w.durable) span("setup.prefill", t1, t2);
  span("run.fio", t3, t4);

  for (const auto& [name, value] : counter_values(reg)) {
    auto it = before.find(name);
    r.counters[name] = value - (it == before.end() ? 0 : it->second);
  }
  for (const auto& name : reg.histogram_names())
    r.histograms[name] = reg.find_histogram(name)->snapshot();
  r.registered = reg.counter_names();
  for (auto names : {reg.gauge_names(), reg.histogram_names()})
    r.registered.insert(r.registered.end(), names.begin(), names.end());
  r.events = sim.executed_events() - events0;
  r.fpga_placements = fw.stats().fpga_placements - placements0;
  r.crc32c_bytes = crc32c_bytes_seen() - crc0;
  r.attempted = r.counter("io.writes") + r.counter("io.reads");
  r.failed = r.counter("io.errors") + r.counter("io.timeouts") +
             r.fio.verify_errors;

  // Correctness gate.
  std::ostringstream gate;
  if (r.fio.ops == 0) gate << " no I/O completed in the measured window;";
  if (r.failed > 0)
    gate << " " << r.failed << " failed I/Os (errors "
         << r.counter("io.errors") << ", timeouts "
         << r.counter("io.timeouts") << ", verify "
         << r.fio.verify_errors << ");";
  for (const auto& name : reg.counter_names())
    if (name.starts_with("check.violations.") &&
        reg.find_counter(name)->value() > 0)
      gate << " " << name << "=" << reg.find_counter(name)->value() << ";";
  if (const std::uint64_t leaks = fw.validator().verify_quiescent(); leaks > 0)
    gate << " verify_quiescent()=" << leaks << ";";
  r.gate_failure = gate.str();

  std::ostringstream fp;
  fp << "ops=" << r.fio.ops << " bytes=" << r.fio.bytes
     << " verify_errors=" << r.fio.verify_errors << " events=" << r.events
     << " placements=" << r.fpga_placements << " crc32c=" << r.crc32c_bytes
     << " registry=" << reg.to_json();
  r.fingerprint = fp.str();

  if (opt.replay) run_replays(w, opt, fw, r);
  return r;
}

double interpolated_percentile_ns(const dk::LatencyHistogram& h, double p) {
  const std::uint64_t n = h.count();
  if (n == 0) return 0;
  // The value LatencyHistogram::percentile reports for the k-th smallest
  // sample (1-based); it rounds p/100*n to the nearest rank.
  auto at_rank = [&](std::uint64_t k) {
    return h.percentile((static_cast<double>(k) - 0.25) * 100.0 /
                        static_cast<double>(n));
  };
  const std::uint64_t target = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(p / 100.0 * static_cast<double>(n) + 0.5), 1,
      n);
  const dk::Nanos upper = at_rank(target);
  // Ranks [first, last] share the target's bucket.
  std::uint64_t lo = 1, hi = target;
  while (lo < hi) {
    const std::uint64_t mid = (lo + hi) / 2;
    if (at_rank(mid) < upper) lo = mid + 1; else hi = mid;
  }
  const std::uint64_t first = lo;
  lo = target, hi = n;
  while (lo < hi) {
    const std::uint64_t mid = (lo + hi + 1) / 2;
    if (at_rank(mid) > upper) hi = mid - 1; else lo = mid;
  }
  const std::uint64_t last = lo;
  // Lower edge of the bucket: LatencyHistogram keeps 32 sub-buckets per
  // octave, so a bucket in octave o is 2^(o-5) ns wide.
  const auto u = static_cast<std::uint64_t>(upper);
  const int octave = static_cast<int>(std::bit_width(u)) - 1;
  const int shift = octave > 5 ? octave - 5 : 0;
  const dk::Nanos lower = std::max<dk::Nanos>(
      static_cast<dk::Nanos>((u >> shift) << shift), h.min());
  const double frac = (static_cast<double>(target - first) + 0.5) /
                      static_cast<double>(last - first + 1);
  return static_cast<double>(lower) +
         static_cast<double>(upper - lower) * frac;
}

}  // namespace perfbench
