#include "sim/landscape_shard.hpp"

#include <algorithm>
#include <utility>

#include "obs/timeline.hpp"
#include "sim/landscape_detail.hpp"
#include "util/time.hpp"

namespace booterscope::sim::detail {

namespace {

void advance_market(MarketRuntime& market, util::Timestamp now) {
  for (BooterService& service : market.services) service.advance_to(now);
}

/// Day shard `d`: attack, maintenance and benign traffic into a fresh
/// context. `market` is this shard's copy of the replica at day `d`.
void run_day_shard(const Internet& internet, const LandscapeConfig& config,
                   const ReflectorPools& pools,
                   const HoneypotDeployment& honeypots, MarketRuntime& market,
                   PathTable& paths, std::size_t d, DayShardOutput& out) {
  out.begin_nanos = util::monotonic_nanos();
  const util::Timestamp day =
      config.start + util::Duration::days(static_cast<std::int64_t>(d));
  const util::Timestamp next = day + util::Duration::days(1);
  const util::Timestamp horizon =
      config.start + util::Duration::days(config.days);

  Context ctx(internet, config, paths,
              util::Rng::split(config.seed, "context", d));
  generate_attack_traffic(ctx, market, pools, honeypots, day, next, horizon,
                          util::Rng::split(config.seed, "attacks", d),
                          out.attacks, out.honeypot_log);
  for (std::size_t b = 0; b < market.services.size(); ++b) {
    // Per-(day, booter) stream: the cell index packs both so adding a
    // booter never shifts another cell's stream.
    generate_maintenance_booter_day(
        ctx, market, b, day, config.takedown,
        util::Rng::split(config.seed, "maintenance",
                         (static_cast<std::uint64_t>(d) << 16) | b));
  }
  generate_benign_traffic(ctx, pools, day, next,
                          util::Rng::split(config.seed, "benign", d));
  ctx.publish();

  out.ixp = std::move(ctx.ixp_flows);
  out.tier1 = std::move(ctx.tier1_flows);
  out.tier2 = std::move(ctx.tier2_flows);
  out.worker = exec::ThreadPool::current_worker();
  out.end_nanos = util::monotonic_nanos();
}

}  // namespace

std::vector<BooterProfile> run_day_waves(const Internet& internet,
                                         const LandscapeConfig& config,
                                         exec::ThreadPool& pool,
                                         std::size_t wave,
                                         obs::StageTracer* tracer,
                                         const WaveHandler& on_wave) {
  if (wave == 0) wave = std::max<std::size_t>(1, pool.size() * 2);
  // The market and the honeypots come from fork()ed streams of the master
  // seed, in that order: the realization depends on the sequence.
  const ReflectorPools pools = build_pools(config);
  util::Rng rng(config.seed);
  util::Rng market_rng = rng.fork("market");
  MarketRuntime market = build_market(internet, config, pools, market_rng);
  const HoneypotDeployment honeypots =
      config.honeypots_per_vector > 0
          ? HoneypotDeployment(pools, config.honeypots_per_vector,
                               config.honeypot_public_share,
                               rng.fork("honeypots"))
          : HoneypotDeployment();
  advance_market(market, config.start);

  const auto days = static_cast<std::size_t>(config.days);
  std::vector<PathTable> paths;
  paths.reserve(std::min(wave, days));
  for (std::size_t i = 0; i < std::min(wave, days); ++i) {
    paths.emplace_back(internet);
  }
  std::vector<MarketRuntime> markets;
  std::vector<DayShardOutput> shards;

  for (std::size_t wave_start = 0; wave_start < days; wave_start += wave) {
    const std::size_t count = std::min(wave, days - wave_start);
    shards.assign(count, DayShardOutput{});
    {
      obs::StageTimer timer(tracer, "day_shards");
      timer.add_items_in(count);
      // Churn lists one day at a time; copy-assignment reuses the previous
      // wave's allocations.
      markets.resize(count);
      for (std::size_t i = 0; i < count; ++i) {
        const auto d = static_cast<std::int64_t>(wave_start + i);
        advance_market(market, config.start + util::Duration::days(d));
        markets[i] = market;
      }
      pool.parallel_for(count, [&](std::size_t i) {
        run_day_shard(internet, config, pools, honeypots, markets[i], paths[i],
                      wave_start + i, shards[i]);
      });
      // The pool is quiet again: merge per-worker attribution into the
      // (single-threaded) stage tree.
      for (const DayShardOutput& shard : shards) {
        timer.add_items_out(shard.flow_count());
      }
      if (tracer != nullptr) {
        obs::TimelineRecorder* timeline = tracer->timeline();
        for (const DayShardOutput& shard : shards) {
          tracer->add_completed(
              "day_shard", shard.worker,
              static_cast<std::uint64_t>(shard.end_nanos - shard.begin_nanos),
              1, 1, shard.flow_count(), 0);
          if (timeline != nullptr && shard.worker >= 0) {
            // Mirror the shard into the executing worker's timeline lane —
            // the sequential post-quiesce hand-off (see TimelineRecorder).
            timeline->add_completed_span(
                static_cast<std::size_t>(shard.worker) + 1, "day_shard",
                "shard", shard.begin_nanos, shard.end_nanos);
          }
        }
      }
    }
    on_wave(wave_start, shards);
  }
  return std::move(market.profiles);
}

}  // namespace booterscope::sim::detail
