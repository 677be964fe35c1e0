// The day-shard wave loop behind both landscape drivers: run_landscape
// (landscape.cpp), which materializes the run, and run_landscape_stream
// (landscape_stream.cpp), which drains it.
//
// Both drivers run the same loop over day indices; only what happens to a
// finished wave differs (keep the shards for a merge into FlowStores vs
// drain them into a FlowBatchSink and free). Keeping the loop and the shard
// body in one place is the byte-identity argument between the two drivers:
// identical inputs, one implementation, identical flows.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "exec/thread_pool.hpp"
#include "obs/trace.hpp"
#include "sim/landscape.hpp"

namespace booterscope::sim::detail {

/// Everything one day shard produces, written into an index-addressed slot
/// so downstream merging never depends on completion order.
struct DayShardOutput {
  flow::FlowList ixp;
  flow::FlowList tier1;
  flow::FlowList tier2;
  std::vector<AttackRecord> attacks;
  std::vector<HoneypotObservation> honeypot_log;
  int worker = -1;               // attribution only
  std::int64_t begin_nanos = 0;  // monotonic begin/end, for the timeline
  std::int64_t end_nanos = 0;

  [[nodiscard]] std::size_t flow_count() const noexcept {
    return ixp.size() + tier1.size() + tier2.size();
  }
};

/// Receives one finished wave on the driver thread: the shards of days
/// [first_day, first_day + shards.size()), in day order. The handler may
/// move out of or reset the shards.
using WaveHandler =
    std::function<void(std::size_t first_day, std::span<DayShardOutput>)>;

/// Generates every day of `config` over `pool`, `wave` day shards at a
/// time (0 = twice the pool size), and hands each finished wave to
/// `on_wave`. Returns the booter market's profiles.
///
/// The run's state is built once: the reflector pools, the honeypot
/// deployment, one booter market and one path table per wave slot. The
/// market is advanced in day order on the driver thread, and every shard of
/// a wave gets a copy of it at the shard's day; the path tables are reused
/// across waves. Each ReflectorList owns its RNG stream, so day-by-day
/// churn makes the same draws wherever the market is copied.
///
/// Shard d generates attack, maintenance and benign traffic into a fresh
/// context with util::Rng::split(seed, label, d) streams, so its output is
/// a pure function of (internet, config, d). Every flow's `first` timestamp
/// is >= config.start + d days (attacks launch within their day; the 1 h
/// duration cap only spills *forward*), which is the invariant streaming
/// sinks rely on to finalize earlier bins at day_complete barriers. At most
/// `wave` market copies and shard outputs are held at once. Stage timings
/// ("day_shards", per-shard "day_shard" spans) go into `tracer` if given.
[[nodiscard]] std::vector<BooterProfile> run_day_waves(
    const Internet& internet, const LandscapeConfig& config,
    exec::ThreadPool& pool, std::size_t wave, obs::StageTracer* tracer,
    const WaveHandler& on_wave);

}  // namespace booterscope::sim::detail
