// The calls into each layer that more than one workload makes: the traced
// sink around the analysis, the direct-mode daemon replay, and the
// single-layer passes over a datagram schedule that the traced runs time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "core/stream_analysis.hpp"
#include "core/takedown.hpp"
#include "e2e.hpp"
#include "exec/thread_pool.hpp"
#include "fault/fault.hpp"
#include "flow/batch.hpp"
#include "ingest_source.hpp"
#include "obs/prof/profiler.hpp"
#include "obs/trace.hpp"
#include "sim/landscape.hpp"
#include "svc/daemon.hpp"

namespace booterscope::e2e {

/// Forwards every batch and barrier to the analysis under "core.consume" /
/// "core.day_complete" spans and, when set, to a second sink under its own
/// span, so the enclosing "drain" span's self time is the flow layer alone.
class LayerSink final : public flow::FlowBatchSink {
 public:
  LayerSink(obs::StageTracer& tracer, flow::FlowBatchSink& analysis,
            flow::FlowBatchSink* extra, std::string_view extra_span);

  void consume(std::size_t vantage, const flow::FlowBatchView& batch) override;
  void day_complete(int day, util::Timestamp day_start) override;

 private:
  obs::StageTracer& tracer_;
  flow::FlowBatchSink& analysis_;
  flow::FlowBatchSink* extra_;
  std::string_view extra_span_;
};

/// Bit-for-bit equality of two verdicts, Welch statistics included.
[[nodiscard]] bool same_verdict(const core::TakedownMetrics& a,
                                const core::TakedownMetrics& b);

/// How a direct-mode replay feeds the daemon.
struct ReplayPolicy {
  std::size_t queue_capacity = 4096;
  /// false: offer then pump(1) per datagram, so the ring never fills.
  /// true: bench_soak's overload pattern on a small ring: pump(2) per
  /// offer, except that every 5000 offers the consumer stalls for 600, so
  /// the ring fills and the daemon sheds deterministically.
  bool bursts = false;
};

struct ReplayOutcome {
  double wall_s = 0.0;  // first offer to drained ledger and verdict
  double cpu_s = 0.0;
  std::uint64_t offered = 0;
  std::uint64_t shed = 0;
  std::uint64_t rows = 0;
  std::uint64_t late_rows = 0;
  std::uint64_t wild_rows = 0;
  std::uint64_t quarantine_events = 0;
  std::uint64_t readmissions = 0;
  fault::IntegrityTally tally;  // the daemon's, shed folded in
  std::optional<core::TakedownMetrics> verdict;
  // Filled when the calls were timed:
  double offer_s = 0.0;
  double pump_s = 0.0;
  double drain_s = 0.0;
  std::vector<double> call_us;  // offer + pump, per datagram
};

/// Replays the schedule into a fresh direct-mode daemon on a synthetic
/// 1 ms-per-datagram clock, then drains it. `time_calls` times each offer,
/// pump and the drain (the traced replay).
[[nodiscard]] ReplayOutcome replay(const Schedule& schedule,
                                   const svc::DaemonConfig& config,
                                   const ReplayPolicy& policy, bool time_calls);

/// The paper config at another window, demand and seed (bench_fig4's
/// --days/--attacks-per-day/--seed); days 0 keeps the paper window and
/// demand 0 the paper demand.
[[nodiscard]] sim::LandscapeConfig landscape(int days, double attacks_per_day,
                                             std::uint64_t seed);

/// Summed task time of the pool's workers.
[[nodiscard]] double busy_seconds(const exec::ThreadPool& pool);

/// The daemon configuration every ingest workload shares: the landscape's
/// window, seed and takedown, one NTP series per vantage.
[[nodiscard]] svc::DaemonConfig daemon_config(
    const sim::LandscapeConfig& landscape);

/// Counts the pool's tasks and the tracer's spans on the software tier
/// (task clock, page faults, context switches): the one tier with the same
/// fields on every Linux box that allows perf events at all.
[[nodiscard]] obs::prof::Profiler::Options shard_profiler_options(
    const exec::ThreadPool& pool);

/// Per-layer metrics of the offline pipeline, read from a quiesced tracer
/// that saw one run_landscape_stream into a LayerSink plus a "core.verdict"
/// span, and from a profiler on its pool, whose tasks were the day shards;
/// `busy_s` is the pool's task time during that run.
void add_landscape_layers(Result& result, const obs::StageTracer& tracer,
                          const obs::prof::Profiler& profiler, double busy_s,
                          std::size_t workers);

/// Per-layer metrics of the ingest pipeline over `schedule`: the decoders
/// alone, the sessions alone, and a timed daemon replay (recorded in the
/// tracer). Returns the timed replay.
ReplayOutcome add_ingest_layers(Result& result, obs::StageTracer& tracer,
                                const Schedule& schedule,
                                const svc::DaemonConfig& config,
                                const ReplayPolicy& policy);

/// The udp-only layer metrics, zero for the workloads without sockets.
struct UdpLayers {
  std::uint64_t kernel_drops = 0;
  std::uint64_t shed = 0;
  double loss_frac = 0.0;
  double gen_max_lag_ms = 0.0;
  double gen_late_frac = 0.0;
};
void add_udp_layers(Result& result, const UdpLayers& udp);

}  // namespace booterscope::e2e
