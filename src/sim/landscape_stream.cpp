#include "sim/landscape_stream.hpp"

#include <span>

#include "obs/metrics.hpp"
#include "sim/landscape_shard.hpp"
#include "util/time.hpp"

namespace booterscope::sim {

namespace {

/// Pushes one vantage's day flows through the reused batch, flushing full
/// batches and the trailing partial. Returns rows delivered.
std::uint64_t drain_list(flow::FlowBatch& batch, flow::FlowBatchSink& sink,
                         std::size_t vantage, const flow::FlowList& flows,
                         std::uint64_t& batches) {
  for (const flow::FlowRecord& f : flows) {
    batch.push_back(f);
    if (batch.full()) {
      sink.consume(vantage, batch.view());
      batch.clear();
      ++batches;
    }
  }
  if (!batch.empty()) {
    sink.consume(vantage, batch.view());
    batch.clear();
    ++batches;
  }
  return flows.size();
}

}  // namespace

StreamSummary run_landscape_stream(const Internet& internet,
                                   const LandscapeConfig& config,
                                   exec::ThreadPool& pool,
                                   flow::FlowBatchSink& sink,
                                   const StreamOptions& options,
                                   obs::StageTracer* tracer,
                                   GroundTruthSink* truth) {
  obs::StageTimer landscape_timer(tracer, "landscape_stream");
  StreamSummary summary;
  summary.config = config;

  flow::FlowBatch batch(options.batch_flows);
  summary.market = detail::run_day_waves(
      internet, config, pool, options.max_inflight_days, tracer,
      [&](std::size_t first_day, std::span<detail::DayShardOutput> shards) {
        obs::StageTimer timer(tracer, "drain");
        std::size_t drained = 0;
        for (std::size_t i = 0; i < shards.size(); ++i) {
          detail::DayShardOutput& shard = shards[i];
          const std::size_t d = first_day + i;
          drained += shard.flow_count();
          summary.vantage_flows[flow::kVantageIxp] +=
              drain_list(batch, sink, flow::kVantageIxp, shard.ixp,
                         summary.batches);
          summary.vantage_flows[flow::kVantageTier1] +=
              drain_list(batch, sink, flow::kVantageTier1, shard.tier1,
                         summary.batches);
          summary.vantage_flows[flow::kVantageTier2] +=
              drain_list(batch, sink, flow::kVantageTier2, shard.tier2,
                         summary.batches);
          summary.attack_count += shard.attacks.size();
          summary.honeypot_observations += shard.honeypot_log.size();
          if (truth != nullptr) {
            truth->on_attacks(shard.attacks);
            truth->on_honeypot_log(shard.honeypot_log);
          }
          sink.day_complete(static_cast<int>(d),
                            config.start + util::Duration::days(
                                               static_cast<std::int64_t>(d)));
          // Free the shard before draining the next one: the memory bound
          // is the wave itself, not the whole run.
          shard = detail::DayShardOutput{};
        }
        timer.add_items_in(drained);
        timer.add_items_out(drained);
      });

  obs::metrics()
      .counter("booterscope_landscape_attacks_total")
      .add(summary.attack_count);
  obs::metrics()
      .counter("booterscope_stream_batches_total")
      .add(summary.batches);
  return summary;
}

}  // namespace booterscope::sim
