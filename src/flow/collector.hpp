// Packet-to-flow aggregation with active/inactive timeouts, modelling the
// flow cache of a router or IXP exporter.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "flow/record.hpp"
#include "net/five_tuple.hpp"
#include "obs/metrics.hpp"
#include "util/annotations.hpp"
#include "util/time.hpp"

namespace booterscope::flow {

/// A single observed packet, pre-sampling. This is the interchange type
/// between the traffic simulator and the flow layer.
struct PacketObservation {
  util::Timestamp time;
  net::FiveTuple tuple;
  std::uint32_t wire_bytes = 0;
  /// How many identical packets this observation stands for. The simulator
  /// batches per-second packet trains; samplers decide per packet.
  std::uint64_t count = 1;
  net::Asn src_asn;
  net::Asn dst_asn;
  net::Asn peer_asn;
  Direction direction = Direction::kIngress;
};

struct CollectorConfig {
  /// Flow is exported if it has been active longer than this (long flows are
  /// chopped so collectors see fresh counters).
  util::Duration active_timeout = util::Duration::minutes(2);
  /// Flow is exported after this much silence.
  util::Duration inactive_timeout = util::Duration::seconds(15);
  /// Exported counters are marked with this sampling rate (set by the
  /// sampler in front of the collector; 1 = unsampled).
  std::uint32_t sampling_rate = 1;
  /// Cache capacity; exceeding it force-expires the least recently used
  /// entries (models exporter memory pressure).
  std::size_t max_entries = 1 << 20;
};

/// Why a flow record left the cache. LRU evictions are the silent-data-loss
/// case the paper's exporters suffer under memory pressure — they were
/// previously folded into the export count and invisible to callers.
enum class ExportReason : std::uint8_t {
  kActiveTimeout,    // chopped: active longer than active_timeout
  kInactiveTimeout,  // idle longer than inactive_timeout
  kLruEviction,      // force-expired under max_entries pressure
  kDrain,            // end-of-measurement flush
};
inline constexpr std::size_t kExportReasonCount = 4;

[[nodiscard]] std::string_view to_string(ExportReason reason) noexcept;

/// Per-collector accounting, exact (not sampled). The invariant
///   observed_packets == total exported_packets + cached_packets
/// holds after every observe()/expire()/drain() call; the conservation
/// integration test asserts it over a full landscape replay.
struct CollectorStats {
  std::uint64_t observed_packets = 0;  // post-sampler packets accepted
  std::uint64_t observed_bytes = 0;
  std::array<std::uint64_t, kExportReasonCount> exported_flows{};
  std::array<std::uint64_t, kExportReasonCount> exported_packets{};
  std::uint64_t cached_packets = 0;  // packets in not-yet-exported entries

  [[nodiscard]] std::uint64_t exported_flows_for(ExportReason r) const noexcept {
    return exported_flows[static_cast<std::size_t>(r)];
  }
  [[nodiscard]] std::uint64_t exported_packets_for(ExportReason r) const noexcept {
    return exported_packets[static_cast<std::size_t>(r)];
  }
  [[nodiscard]] std::uint64_t total_exported_flows() const noexcept {
    std::uint64_t total = 0;
    for (const std::uint64_t n : exported_flows) total += n;
    return total;
  }
  [[nodiscard]] std::uint64_t total_exported_packets() const noexcept {
    std::uint64_t total = 0;
    for (const std::uint64_t n : exported_packets) total += n;
    return total;
  }
};

/// Hot-path shape of the five-tuple cache, the committed before-picture
/// for the flat-table rewrite: how loaded the map is, how long its worst
/// chain got and how often the bucket array grew. Bucket numbers are an
/// on-demand scan (observer cadence); the rehash counter accumulates per
/// collector instance.
struct MapStats {
  std::size_t entries = 0;
  std::size_t bucket_count = 0;
  double load_factor = 0.0;
  std::size_t occupied_buckets = 0;
  std::size_t max_bucket_entries = 0;
  /// Bucket-array growth events observed since construction.
  std::uint64_t rehashes = 0;
};

/// Aggregates packets into flow records.
///
/// Usage: call observe() in non-decreasing time order, periodically call
/// expire(now) — both return newly exported flows; call drain() at the end.
///
/// Thread-compartmented, not locked: one owner mutates at a time, and
/// ownership may move between pool tasks. Concurrent mutation would
/// silently break the conservation invariant above, so the mutating entry
/// points carry a util::ConcurrencyGuard tripwire that aborts instead.
class FlowCollector {
 public:
  explicit FlowCollector(CollectorConfig config);

  /// Accounts one packet observation; may evict expired or LRU entries.
  /// Exported flows are appended to `out`.
  void observe(const PacketObservation& packet, FlowList& out);

  /// Expires all entries that have timed out as of `now`, exported in
  /// five-tuple order (deterministic across platforms and runs).
  void expire(util::Timestamp now, FlowList& out);

  /// Exports everything still cached (end of measurement), in five-tuple
  /// order — never in hash-map iteration order.
  void drain(FlowList& out);

  [[nodiscard]] std::size_t active_flows() const noexcept { return cache_.size(); }
  [[nodiscard]] const CollectorStats& stats() const noexcept { return stats_; }

  /// Current cache shape + accumulated rehash counter. The bucket
  /// scan is O(bucket_count) — observer cadence, not per packet.
  [[nodiscard]] MapStats map_stats() const;
  [[nodiscard]] std::uint64_t exported_flows() const noexcept {
    return stats_.total_exported_flows();
  }
  [[nodiscard]] std::uint64_t forced_evictions() const noexcept {
    return stats_.exported_flows_for(ExportReason::kLruEviction);
  }

 private:
  struct Entry {
    FlowRecord flow;
  };

  void account_export(const Entry& entry, ExportReason reason) noexcept;
  void export_entry(const Entry& entry, ExportReason reason, FlowList& out);
  void update_cache_gauge() noexcept;
  void note_rehash_if_grown() noexcept;
  void publish_bucket_shape() noexcept;

  CollectorConfig config_;
  std::unordered_map<net::FiveTuple, Entry> cache_;
  CollectorStats stats_;
  // Micro-metric accumulators behind map_stats(); see MapStats.
  std::size_t last_bucket_count_ = 0;
  std::uint64_t rehashes_ = 0;
  util::ConcurrencyGuard guard_;
  // Global registry series shared by all collector instances; resolved once
  // at construction so the per-packet cost is one relaxed atomic add.
  obs::Counter* observed_packets_metric_;
  obs::Counter* observed_bytes_metric_;
  std::array<obs::Counter*, kExportReasonCount> exported_flows_metric_;
  std::array<obs::Counter*, kExportReasonCount> exported_packets_metric_;
  obs::Gauge* cache_entries_metric_;
  // booterscope_flow_* micro-metric series (shared across instances like
  // the rest; counters aggregate, gauges reflect the last writer).
  obs::Counter* map_rehashes_metric_;
  obs::Gauge* map_load_factor_metric_;
  obs::Gauge* map_bucket_count_metric_;
  obs::Gauge* map_occupied_buckets_metric_;
  obs::Gauge* map_max_bucket_entries_metric_;
};

}  // namespace booterscope::flow
