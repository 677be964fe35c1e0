// Streaming one-pass landscape driver (DESIGN.md §14).
//
// Runs the same day shards as run_landscape but never materializes
// the run: shards are scheduled in bounded waves of ~2x the pool size, and
// each finished wave is drained — in day order, vantage-major within a day
// (IXP, tier-1, tier-2) — into a FlowBatchSink as fixed-size columnar
// batches, then freed. Peak RSS is O(inflight shards + sink state), flat in
// run length, which is what lets --attacks-per-day climb from 300 toward
// the paper's inferred ~20 000.
//
// Byte-identity with the materialized driver: the shard body is shared
// (sim/landscape_shard.hpp) and the drain order equals the merge order of
// run_landscape, so a sink that scans rows in delivery order sees
// exactly the sequence a serial scan of the merged FlowStores would. The
// determinism contract (split-RNG per shard, day-order delivery) holds at
// any pool size and any batch capacity.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "flow/batch.hpp"
#include "obs/trace.hpp"
#include "sim/landscape.hpp"
#include "exec/thread_pool.hpp"

namespace booterscope::sim {

struct StreamOptions {
  /// Rows per emitted batch. Partial batches flush at each (day, vantage)
  /// boundary, so capacity only bounds — never determines — sink input.
  std::size_t batch_flows = flow::FlowBatch::kDefaultCapacity;
  /// Day shards resident at once (the memory bound). 0 = 2x pool size.
  std::size_t max_inflight_days = 0;
};

/// Optional observer for the non-flow ground truth, delivered in day order
/// alongside the flow drain (the streaming analogue of
/// LandscapeResult::attacks / honeypot_log).
class GroundTruthSink {
 public:
  virtual ~GroundTruthSink() = default;
  virtual void on_attacks(std::span<const AttackRecord> attacks) = 0;
  virtual void on_honeypot_log(std::span<const HoneypotObservation> log) = 0;
};

/// What a streaming run retains: bounded-size totals only.
struct StreamSummary {
  LandscapeConfig config;
  std::vector<BooterProfile> market;
  std::uint64_t attack_count = 0;
  std::uint64_t honeypot_observations = 0;
  /// Flows delivered per vantage slot (pre-sink; sinks may drop more).
  std::array<std::uint64_t, flow::kVantageCount> vantage_flows{};
  std::uint64_t batches = 0;

  [[nodiscard]] std::uint64_t total_flows() const noexcept {
    return vantage_flows[0] + vantage_flows[1] + vantage_flows[2];
  }
};

[[nodiscard]] StreamSummary run_landscape_stream(
    const Internet& internet, const LandscapeConfig& config,
    exec::ThreadPool& pool, flow::FlowBatchSink& sink,
    const StreamOptions& options = {}, obs::StageTracer* tracer = nullptr,
    GroundTruthSink* truth = nullptr);

}  // namespace booterscope::sim
