// Workload-shape self-test: each workload exercises exactly the layers it
// was chosen for, each layer replay does the work the registry counted, and
// simulated results depend on the seed and on nothing else (not on tracing,
// not on the rep). Runs every workload on a shortened simulated window.
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace perfbench {

namespace {

int g_failures = 0;

void expect(bool ok, std::string_view workload, const std::string& what) {
  std::cout << (ok ? "  ok   " : "  FAIL ") << workload << ": " << what << "\n";
  if (!ok) ++g_failures;
}

}  // namespace

int run_selftest() {
  constexpr std::uint64_t kSeed = 1;
  for (Workload w : workloads()) {
    const bool ec = w.pool == dk::core::PoolMode::erasure;
    // Shortened window; the durable workload keeps enough I/Os for its
    // 70/30 mix to be checked to +-2 points.
    w.sim_runtime = w.durable ? dk::ms(250) : dk::ms(100);

    SpanLog spans;
    const RepResult plain = run_rep(w, {kSeed, 1, nullptr, false});
    const RepResult traced = run_rep(w, {kSeed, 2, &spans, true});
    const RepResult other = run_rep(w, {kSeed + 1, 3, nullptr, false});

    expect(plain.gate_failure.empty(),
           w.name, "correctness gate passes" + plain.gate_failure);
    expect(plain.attempted > 0 && plain.failed == 0, w.name,
           std::to_string(plain.attempted) + " I/Os, none failed");
    expect(traced.fingerprint == plain.fingerprint, w.name,
           "traced rep with replays repeats the untraced rep's simulated "
           "results exactly");
    expect(other.fingerprint != plain.fingerprint, w.name,
           "another seed gives other simulated results");

    const std::uint64_t encoded = plain.counter("rados.ec_bytes_encoded");
    const std::uint64_t written = plain.counter("io.bytes_written");
    expect(ec ? encoded == written && encoded > 0 : encoded == 0, w.name,
           "rados.ec_bytes_encoded " + std::to_string(encoded) +
               (ec ? " == bytes written " + std::to_string(written)
                   : " == 0"));

    for (const char* layer : {"integrity.", "blockstore."})
      expect(plain.has_metric_prefix(layer) == w.durable, w.name,
             std::string(layer) + "* registered only when durable");
    if (w.durable) {
      const double reads = static_cast<double>(plain.counter("io.reads"));
      const double share = 100.0 * reads / static_cast<double>(plain.attempted);
      expect(share >= 68.0 && share <= 72.0, w.name,
             "read share " + std::to_string(share) + "% is 70 +- 2");
    } else {
      expect(plain.counter("io.reads") == 0, w.name, "no reads");
    }

    // Each replay does the work the real run counted.
    const ReplayCost* crush = traced.replay("crush");
    expect(crush != nullptr && crush->ops == traced.fpga_placements &&
               traced.fpga_placements == traced.counter("rados.ops_started"),
           w.name,
           "replay.crush makes " + std::to_string(traced.fpga_placements) +
               " placements, one per RADOS op");
    const ReplayCost* enc = traced.replay("ec");
    const ReplayCost* gf = traced.replay("gf");
    if (ec) {
      expect(enc != nullptr && enc->bytes == encoded &&
                 enc->ops == traced.counter("rados.ops_started"),
             w.name, "replay.ec encodes the bytes the client encoded");
      const dk::ec::Profile p = dk::core::FrameworkConfig{}.ec_profile;
      expect(gf != nullptr && enc != nullptr &&
                 gf->ops == enc->ops * p.k * p.m &&
                 gf->bytes == encoded * p.m,
             w.name, "replay.gf makes k*m region multiplies per stripe");
    } else {
      expect(enc == nullptr && gf == nullptr, w.name, "no EC replay");
    }
    const ReplayCost* crc = traced.replay("crc32c");
    expect(w.durable ? crc != nullptr && crc->bytes == traced.crc32c_bytes &&
                           traced.crc32c_bytes > 0
                     : crc == nullptr && traced.crc32c_bytes == 0,
           w.name,
           "replay.crc32c checksums the " +
               std::to_string(traced.crc32c_bytes) + " bytes the stack did");

    bool spans_ok = true;
    for (const char* name : {"setup.framework", "run.fio"}) {
      bool found = false;
      for (const auto& s : spans.spans()) found |= s.name == name;
      spans_ok &= found;
    }
    expect(spans_ok, w.name, "traced rep records setup and run spans");
  }
  std::cout << (g_failures == 0 ? "selftest passed\n" : "selftest FAILED\n");
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
