#include "sim/landscape_parallel.hpp"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <span>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/landscape_shard.hpp"

namespace booterscope::sim {

namespace {

void append(flow::FlowList& out, flow::FlowList&& in) {
  out.insert(out.end(), std::make_move_iterator(in.begin()),
             std::make_move_iterator(in.end()));
}

}  // namespace

LandscapeResult run_landscape_parallel(const Internet& internet,
                                       const LandscapeConfig& config,
                                       exec::ThreadPool& pool,
                                       obs::StageTracer* tracer) {
  obs::StageTimer landscape_timer(tracer, "landscape_parallel");
  LandscapeResult result;
  result.config = config;

  // Waves bound the market copies held at once; the shards themselves
  // are all kept for the day-order merge below.
  std::vector<detail::DayShardOutput> shards(
      static_cast<std::size_t>(config.days));
  result.market = detail::run_day_waves(
      internet, config, pool, 0, tracer,
      [&](std::size_t first_day, std::span<detail::DayShardOutput> wave) {
        std::move(wave.begin(), wave.end(),
                  shards.begin() + static_cast<std::ptrdiff_t>(first_day));
      });

  {
    obs::StageTimer timer(tracer, "merge");
    flow::FlowList ixp;
    flow::FlowList tier1;
    flow::FlowList tier2;
    std::size_t totals[3] = {0, 0, 0};
    for (const detail::DayShardOutput& shard : shards) {
      totals[0] += shard.ixp.size();
      totals[1] += shard.tier1.size();
      totals[2] += shard.tier2.size();
    }
    ixp.reserve(totals[0]);
    tier1.reserve(totals[1]);
    tier2.reserve(totals[2]);
    // Day order, regardless of which worker finished when.
    for (detail::DayShardOutput& shard : shards) {
      append(ixp, std::move(shard.ixp));
      append(tier1, std::move(shard.tier1));
      append(tier2, std::move(shard.tier2));
      result.attacks.insert(result.attacks.end(),
                            std::make_move_iterator(shard.attacks.begin()),
                            std::make_move_iterator(shard.attacks.end()));
      result.honeypot_log.insert(
          result.honeypot_log.end(),
          std::make_move_iterator(shard.honeypot_log.begin()),
          std::make_move_iterator(shard.honeypot_log.end()));
    }
    timer.add_items_in(totals[0] + totals[1] + totals[2]);
    result.ixp.store = flow::FlowStore{std::move(ixp)};
    result.ixp.sampling_rate = config.ixp_sampling;
    result.tier1.store = flow::FlowStore{std::move(tier1)};
    result.tier1.sampling_rate = config.tier1_sampling;
    result.tier2.store = flow::FlowStore{std::move(tier2)};
    result.tier2.sampling_rate = config.tier2_sampling;
    timer.add_items_out(result.ixp.store.size() + result.tier1.store.size() +
                        result.tier2.store.size());
  }
  obs::metrics()
      .counter("booterscope_landscape_attacks_total")
      .add(result.attacks.size());
  return result;
}

}  // namespace booterscope::sim
