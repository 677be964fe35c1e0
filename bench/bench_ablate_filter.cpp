// Ablation: the conservative filter's thresholds (§4).
//
// Sweeps the packet-size threshold, the Gbps rule and the amplifier-count
// rule, reporting how many destinations survive and the recall against
// ground-truth attacks — showing why the paper's 200 B / 1 Gbps / 10
// amplifiers choices sit where they do.
#include <iostream>
#include <unordered_set>

#include "common.hpp"
#include "core/victims.hpp"
#include "util/table.hpp"

using namespace booterscope;

int main(int argc, char** argv) {
  bench::print_header("Ablation: classification thresholds",
                      "Optimistic & conservative filter parameter sweep");

  const bench::RunOptions options = bench::parse_run_options(argc, argv);
  bench::LandscapeWorld world(options);
  const sim::LandscapeResult& result = world.materialize();
  const auto& flows = result.ixp.store.flows();

  // Ground truth: NTP attack victims with clearly-qualifying attacks.
  std::unordered_set<std::uint32_t> true_victims;
  for (const auto& attack : result.attacks) {
    if (attack.vector == net::AmpVector::kNtp && attack.victim_gbps > 1.5 &&
        attack.reflector_count > 20) {
      true_victims.insert(attack.victim.value());
    }
  }

  std::cout << "Packet-size threshold sweep (optimistic filter):\n";
  util::Table size_table({"threshold (B)", "destinations", "note"});
  for (const double threshold : {50.0, 100.0, 200.0, 300.0, 480.0}) {
    core::VictimAggregatorConfig config;
    config.filter.optimistic.min_mean_packet_bytes = threshold;
    core::VictimAggregator aggregator(config);
    for (const auto& f : flows) aggregator.add(f);
    size_table.row()
        .add(threshold, 0)
        .add(static_cast<std::uint64_t>(aggregator.destination_count()))
        .add(threshold < 190
                 ? "includes benign NTP responses"
                 : (threshold > 400 ? "misses non-monlist amplification"
                                    : "paper's operating point region"));
  }
  size_table.print(std::cout, 2);

  std::cout << "\nConservative-rule sweep (destinations surviving, recall):\n";
  util::Table rule_table({"min Gbps", "min amplifiers", "survivors",
                          "recall on ground truth"});
  for (const double gbps : {0.1, 0.5, 1.0, 5.0}) {
    for (const std::uint32_t amplifiers : {2u, 10u, 50u}) {
      core::VictimAggregatorConfig config;
      config.filter.min_peak_gbps = gbps;
      config.filter.min_amplifiers = amplifiers;
      core::VictimAggregator aggregator(config);
      for (const auto& f : flows) aggregator.add(f);
      std::size_t survivors = 0;
      std::size_t caught = 0;
      for (const auto& summary : aggregator.summarize()) {
        if (!summary.verdict.conservative()) continue;
        ++survivors;
        caught += true_victims.contains(summary.destination.value()) ? 1u : 0u;
      }
      rule_table.row()
          .add(gbps, 1)
          .add(std::uint64_t{amplifiers})
          .add(static_cast<std::uint64_t>(survivors))
          .add(true_victims.empty()
                   ? std::string("-")
                   : util::format_double(
                         100.0 * static_cast<double>(caught) /
                             static_cast<double>(true_victims.size()),
                         1) + "%");
    }
  }
  rule_table.print(std::cout, 2);

  bench::print_comparisons({
      {"threshold derivation", "bimodal NTP mix splits at 200 B",
       "destination counts drop sharply once benign sizes are excluded"},
      {"conservative filter purpose", "low false positives at recall cost",
       "survivors shrink ~10x from optimistic set; recall bounded by "
       "sampling"},
  });
  world.write_observability("ablate_filter", world.result_items());
  return 0;
}
