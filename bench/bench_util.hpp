// Shared helpers for the benchmark harnesses: standard framework configs
// and paper-reference printing.
#pragma once

#include <iostream>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "core/framework.hpp"
#include "workload/fio.hpp"

namespace dk::bench {

/// The block sizes the paper's figures sweep.
inline const std::vector<std::uint64_t> kBlockSizes = {
    4 * KiB, 8 * KiB, 16 * KiB, 32 * KiB, 64 * KiB, 128 * KiB};

inline std::string bs_name(std::uint64_t bs) {
  return std::to_string(bs / KiB) + "k";
}

/// Build a framework config for a variant/pool combination with the
/// testbed defaults (2 hosts x 16 OSDs, 10 GbE, straw2 placement).
inline core::FrameworkConfig make_config(core::VariantKind variant,
                                         core::PoolMode mode,
                                         std::uint64_t image_bytes = 256 * MiB) {
  core::FrameworkConfig cfg;
  cfg.variant = variant;
  cfg.pool_mode = mode;
  cfg.image_size = image_bytes;
  return cfg;
}

/// Run a fio spec on a fresh framework instance (own simulator).
inline workload::FioResult run_fio(core::VariantKind variant,
                                   core::PoolMode mode,
                                   const workload::FioJobSpec& spec,
                                   std::uint64_t image_bytes = 256 * MiB) {
  sim::Simulator sim;
  core::Framework fw(sim, make_config(variant, mode, image_bytes));
  workload::FioEngine engine(fw);
  return engine.run(spec);
}

inline void print_header(const std::string& title, const std::string& paper_ref) {
  std::cout << "\n=== " << title << " ===\n";
  std::cout << "Paper reference: " << paper_ref << "\n\n";
}

/// Machine-readable appendix: the framework's full metrics registry —
/// per-layer counters/gauges plus the "stage.*" per-hop latency
/// histograms — as one JSON object on a single line (easy to grep/jq).
inline void print_metrics_json(const core::Framework& fw,
                               const std::string& label) {
  std::cout << "--- metrics JSON: " << label << " ---\n";
  std::cout << fw.metrics().to_json() << "\n";
}

/// The banner tools/run_benches.sh prints above each binary's output in
/// bench_output.txt; a binary that prints a second figure prints it too.
inline void print_bench_banner(const std::string& bench) {
  const std::string rule(64, '#');
  std::cout << rule << "\n### " << bench << "\n" << rule << "\n";
}

struct FigureText {
  std::string title;
  std::string paper_ref;
};

/// Run the Fig 6/7 (or Fig 8/9) sweep once — block sizes x rw modes x
/// variants — and print it as two figures: the MB/s tables, then, under the
/// `kiops_bench` banner, the KIOPS tables of the same runs. One table per rw
/// mode; each figure ends with the metrics appendix of one representative
/// cell (first variant, 4 kB random write) so it can be decomposed by hop.
inline void run_figure_sweep(core::PoolMode pool,
                             const std::vector<core::VariantKind>& variants,
                             const FigureText& mbps,
                             const std::string& kiops_bench,
                             const FigureText& kiops) {
  using workload::RwMode;
  constexpr RwMode kModes[] = {RwMode::seq_read, RwMode::seq_write,
                               RwMode::rand_read, RwMode::rand_write};
  auto spec_for = [](RwMode rw, std::uint64_t bs) {
    workload::FioJobSpec spec;
    spec.rw = rw;
    spec.bs = bs;
    spec.iodepth = 32;
    spec.runtime = ms(300);
    spec.ramp = ms(40);
    spec.seed = 11;
    return spec;
  };

  // results[rw][variant][bs]
  std::vector<std::vector<std::vector<workload::FioResult>>> results;
  for (RwMode rw : kModes) {
    auto& by_variant = results.emplace_back();
    for (core::VariantKind v : variants) {
      auto& by_bs = by_variant.emplace_back();
      for (auto bs : kBlockSizes)
        by_bs.push_back(run_fio(v, pool, spec_for(rw, bs), 128 * MiB));
    }
  }

  sim::Simulator sim;
  core::Framework fw(sim, make_config(variants.front(), pool, 128 * MiB));
  workload::FioEngine engine(fw);
  engine.run(spec_for(RwMode::rand_write, 4 * KiB));
  const std::string appendix_label =
      std::string(core::variant_short_name(variants.front())) +
      " rand_write 4k qd32";

  auto print_figure = [&](const FigureText& text, bool as_kiops) {
    print_header(text.title, text.paper_ref);
    for (std::size_t m = 0; m < results.size(); ++m) {
      std::vector<std::string> headers{
          std::string(workload::rw_name(kModes[m])) +
          (as_kiops ? " [KIOPS]" : " [MB/s]")};
      for (auto bs : kBlockSizes) headers.push_back(bs_name(bs));
      TextTable table(headers);
      for (std::size_t v = 0; v < variants.size(); ++v) {
        std::vector<std::string> row{
            std::string(core::variant_short_name(variants[v]))};
        for (const auto& r : results[m][v])
          row.push_back(
              TextTable::num(as_kiops ? r.iops() / 1000.0 : r.mbps(), 1));
        table.add_row(std::move(row));
      }
      table.print(std::cout);
      std::cout << "\n";
    }
    print_metrics_json(fw, appendix_label);
  };

  print_figure(mbps, /*as_kiops=*/false);
  std::cout << "\n";
  print_bench_banner(kiops_bench);
  print_figure(kiops, /*as_kiops=*/true);
}

}  // namespace dk::bench
