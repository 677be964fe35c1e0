// Fig. 2(c): CDFs of max sources per destination and max Gbps per
// destination, per vantage point.
#include <iostream>
#include <vector>

#include "common.hpp"
#include "core/victims.hpp"
#include "stats/ecdf.hpp"
#include "util/table.hpp"

using namespace booterscope;

namespace {

struct VantageCdfs {
  std::string name;
  stats::Ecdf sources;
  stats::Ecdf gbps;
};

VantageCdfs build(const std::string& name, const flow::FlowList& flows) {
  core::VictimAggregator aggregator;
  for (const auto& f : flows) aggregator.add(f);
  std::vector<double> sources;
  std::vector<double> gbps;
  for (const auto& summary : aggregator.summarize()) {
    sources.push_back(static_cast<double>(summary.max_sources_per_minute));
    gbps.push_back(summary.max_gbps_per_minute);
  }
  return VantageCdfs{name, stats::Ecdf{std::move(sources)},
                     stats::Ecdf{std::move(gbps)}};
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_header("Figure 2(c)",
                      "CDFs of reflectors and peak Gbps per destination");

  const bench::RunOptions options = bench::parse_run_options(argc, argv);
  bench::LandscapeWorld world(options);
  const sim::LandscapeResult& result = world.materialize();
  std::vector<VantageCdfs> vantages;
  vantages.push_back(build("IXP", result.ixp.store.flows()));
  vantages.push_back(build("Tier-1", result.tier1.store.flows()));
  vantages.push_back(build("Tier-2", result.tier2.store.flows()));

  std::cout << "CDF: max sources per destination (per-minute bins)\n";
  util::Table sources_table({"sources <=", "IXP", "Tier-1", "Tier-2"});
  for (const double x : {1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 1000.0, 5000.0}) {
    auto& row = sources_table.row().add(x, 0);
    for (const auto& v : vantages) row.add(v.sources.at(x), 3);
  }
  sources_table.print(std::cout, 2);

  std::cout << "\nCDF: max Gbps per destination (one-minute peak)\n";
  util::Table gbps_table({"Gbps <=", "IXP", "Tier-1", "Tier-2"});
  for (const double x : {0.01, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0}) {
    auto& row = gbps_table.row().add(x, 2);
    for (const auto& v : vantages) row.add(v.gbps.at(x), 3);
  }
  gbps_table.print(std::cout, 2);

  const double ixp_under10 = vantages[0].sources.at(10.0);
  const double t1_under10 = vantages[1].sources.at(10.0);
  const double t2_under10 = vantages[2].sources.at(10.0);
  const double over_1g = 1.0 - vantages[0].gbps.at(1.0);
  std::size_t ixp_over_100g = 0;
  for (const double g : vantages[0].gbps.sorted_samples()) {
    if (g > 100.0) ++ixp_over_100g;
  }

  bench::print_comparisons({
      {"targets with <10 reflectors (IXP/T1)", "~70%",
       util::format_double(ixp_under10 * 100.0, 0) + "% / " +
           util::format_double(t1_under10 * 100.0, 0) + "%"},
      {"targets with <10 reflectors (T2)", "~90%",
       util::format_double(t2_under10 * 100.0, 0) + "%"},
      {"fraction receiving >1 Gbps peak", "0.09",
       util::format_double(over_1g, 3)},
      {"IXP targets >100 Gbps", "158", std::to_string(ixp_over_100g) +
           " (scaled)"},
      {"majority receives negligible traffic", "yes",
       util::format_double(vantages[0].gbps.at(0.1) * 100.0, 0) +
           "% of IXP targets below 0.1 Gbps"},
  });
  world.write_observability("fig2c", world.result_items());
  return 0;
}
