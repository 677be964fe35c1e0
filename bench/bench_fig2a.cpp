// Fig. 2(a): CDF/PDF of NTP packet sizes in the IXP data — the bimodal
// distribution that motivates the 200-byte optimistic attack threshold.
#include <iostream>

#include "common.hpp"
#include "core/pktsize.hpp"
#include "util/table.hpp"

using namespace booterscope;

int main(int argc, char** argv) {
  bench::print_header("Figure 2(a)", "CDF/PDF of NTP packet sizes (IXP data)");

  const bench::RunOptions options = bench::parse_run_options(argc, argv);
  bench::LandscapeWorld world(options);
  const auto& flows = world.materialize().ixp.store.flows();
  const auto histogram = core::packet_size_distribution(flows);

  util::Table table({"size (bytes)", "pdf", "cdf"});
  double cumulative = 0.0;
  for (std::size_t bin = 0; bin < histogram.bin_count(); ++bin) {
    cumulative += histogram.pdf(bin);
    if (histogram.count(bin) == 0) continue;
    table.row()
        .add(histogram.bin_center(bin), 0)
        .add(histogram.pdf(bin), 4)
        .add(cumulative, 4);
  }
  table.print(std::cout);

  const double below200 = histogram.mass_below(200.0);
  const double monlist_mass =
      histogram.mass_below(500.0) - histogram.mass_below(480.0);

  bench::print_comparisons({
      {"NTP packets < 200 bytes (likely benign)", "54%",
       util::format_double(below200 * 100.0, 1) + "%"},
      {"NTP packets > 200 bytes (likely attack)", "46%",
       util::format_double((1.0 - below200) * 100.0, 1) + "%"},
      {"distribution shape", "bimodal (small benign / 486-490B monlist)",
       "bimodal; " + util::format_double(monlist_mass * 100.0, 1) +
           "% mass in 480-500B monlist bins"},
  });
  world.write_observability("fig2a", world.result_items());
  return 0;
}
