// Fig. 2(b): per-victim reflection traffic at the three vantage points —
// unique amplification sources vs. peak Gbps per destination — plus the
// §4 conservative-filter reduction statistics.
#include <algorithm>
#include <iostream>

#include "common.hpp"
#include "core/victims.hpp"
#include "util/table.hpp"

using namespace booterscope;

namespace {

struct VantageStats {
  std::string name;
  std::size_t destinations = 0;
  double avg_peak_gbps = 0.0;
  double max_gbps = 0.0;
  std::uint32_t max_sources = 0;
  double avg_sources = 0.0;
  std::size_t over_100g = 0;
  std::size_t over_300g = 0;
  core::VictimAggregator::Reduction reduction;
};

VantageStats analyze(const std::string& name, const flow::FlowList& flows) {
  core::VictimAggregator aggregator;
  for (const auto& f : flows) aggregator.add(f);
  VantageStats stats;
  stats.name = name;
  stats.destinations = aggregator.destination_count();
  double sum_peak = 0.0;
  double sum_sources = 0.0;
  for (const auto& summary : aggregator.summarize()) {
    sum_peak += summary.max_gbps_per_minute;
    sum_sources += summary.unique_sources;
    stats.max_gbps = std::max(stats.max_gbps, summary.max_gbps_per_minute);
    stats.max_sources = std::max(stats.max_sources, summary.unique_sources);
    if (summary.max_gbps_per_minute > 100.0) ++stats.over_100g;
    if (summary.max_gbps_per_minute > 300.0) ++stats.over_300g;
  }
  if (stats.destinations > 0) {
    stats.avg_peak_gbps = sum_peak / static_cast<double>(stats.destinations);
    stats.avg_sources = sum_sources / static_cast<double>(stats.destinations);
  }
  stats.reduction = aggregator.reduction();
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_header("Figure 2(b)",
                      "Reflection traffic and sources per destination IP");

  const bench::RunOptions options = bench::parse_run_options(argc, argv);
  bench::LandscapeWorld world(options);
  const sim::LandscapeResult& result = world.materialize();
  const VantageStats all[] = {
      analyze("IXP", result.ixp.store.flows()),
      analyze("Tier-1 ISP", result.tier1.store.flows()),
      analyze("Tier-2 ISP", result.tier2.store.flows()),
  };

  util::Table table({"vantage", "NTP dests", "avg peak Gbps", "max Gbps",
                     "avg sources", "max sources", ">100G", ">300G"});
  std::size_t total_dests = 0;
  for (const auto& v : all) {
    table.row()
        .add(v.name)
        .add(static_cast<std::uint64_t>(v.destinations))
        .add(v.avg_peak_gbps, 2)
        .add(v.max_gbps, 0)
        .add(v.avg_sources, 1)
        .add(std::uint64_t{v.max_sources})
        .add(static_cast<std::uint64_t>(v.over_100g))
        .add(static_cast<std::uint64_t>(v.over_300g));
    total_dests += v.destinations;
  }
  table.print(std::cout);

  std::cout << "\nConservative filter (>1 Gbps peak AND >10 amplifiers), IXP:\n";
  const auto& reduction = all[0].reduction;
  util::Table filter_table({"rule", "destinations removed"});
  filter_table.row().add("(a) >1 Gbps only").add(
      util::format_double(reduction.reduction_rate_only() * 100.0, 0) + "%");
  filter_table.row().add("(b) >10 amplifiers only").add(
      util::format_double(reduction.reduction_amplifiers_only() * 100.0, 0) + "%");
  filter_table.row().add("both (conservative)").add(
      util::format_double(reduction.reduction_both() * 100.0, 0) + "%");
  filter_table.print(std::cout, 2);

  bench::print_comparisons({
      {"total NTP destinations", "311K (IXP 244K, T2 95K, T1 36K)",
       std::to_string(total_dests) + " at ~1/65 victim scale (IXP " +
           std::to_string(all[0].destinations) + ", T1 " +
           std::to_string(all[1].destinations) + ", T2 " +
           std::to_string(all[2].destinations) + ")"},
      {"largest single-destination peak", "602 Gbps",
       util::format_double(std::max({all[0].max_gbps, all[1].max_gbps,
                                     all[2].max_gbps}),
                           0) +
           " Gbps"},
      {"victims >100 Gbps", "224",
       std::to_string(all[0].over_100g + all[1].over_100g + all[2].over_100g) +
           " (scaled)"},
      {"max amplifiers per destination", "~8500 (tier-1 outlier)",
       std::to_string(std::max({all[0].max_sources, all[1].max_sources,
                                all[2].max_sources}))},
      {"avg amplifiers per destination", "35",
       util::format_double(all[0].avg_sources, 1) + " (IXP)"},
      {"conservative filter reduction", "78% (a only 74%, b only 59%)",
       util::format_double(reduction.reduction_both() * 100.0, 0) + "% (a " +
           util::format_double(reduction.reduction_rate_only() * 100.0, 0) +
           "%, b " +
           util::format_double(reduction.reduction_amplifiers_only() * 100.0, 0) +
           "%)"},
  });
  world.write_observability("fig2b", world.result_items());
  return 0;
}
