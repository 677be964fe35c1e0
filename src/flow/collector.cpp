#include "flow/collector.hpp"

#include <algorithm>

namespace booterscope::flow {

std::string_view to_string(ExportReason reason) noexcept {
  switch (reason) {
    case ExportReason::kActiveTimeout: return "active_timeout";
    case ExportReason::kInactiveTimeout: return "inactive_timeout";
    case ExportReason::kLruEviction: return "lru_eviction";
    case ExportReason::kDrain: return "drain";
  }
  return "unknown";
}

FlowCollector::FlowCollector(CollectorConfig config) : config_(config) {
  obs::MetricsRegistry& registry = obs::metrics();
  observed_packets_metric_ =
      &registry.counter("booterscope_collector_observed_packets_total");
  observed_bytes_metric_ =
      &registry.counter("booterscope_collector_observed_bytes_total");
  for (std::size_t i = 0; i < kExportReasonCount; ++i) {
    const obs::Labels labels{
        {"reason", std::string(to_string(static_cast<ExportReason>(i)))}};
    exported_flows_metric_[i] = &registry.counter(
        "booterscope_collector_exported_flows_total", labels);
    exported_packets_metric_[i] = &registry.counter(
        "booterscope_collector_exported_packets_total", labels);
  }
  cache_entries_metric_ = &registry.gauge("booterscope_collector_cache_entries");
  map_rehashes_metric_ =
      &registry.counter("booterscope_flow_map_rehashes_total");
  map_load_factor_metric_ = &registry.gauge("booterscope_flow_map_load_factor");
  map_bucket_count_metric_ =
      &registry.gauge("booterscope_flow_map_bucket_count");
  map_occupied_buckets_metric_ =
      &registry.gauge("booterscope_flow_map_occupied_buckets");
  map_max_bucket_entries_metric_ =
      &registry.gauge("booterscope_flow_map_max_bucket_entries");
  last_bucket_count_ = cache_.bucket_count();
}

void FlowCollector::account_export(const Entry& entry,
                                   ExportReason reason) noexcept {
  const auto index = static_cast<std::size_t>(reason);
  stats_.exported_flows[index] += 1;
  stats_.exported_packets[index] += entry.flow.packets;
  stats_.cached_packets -= entry.flow.packets;
  exported_flows_metric_[index]->inc();
  exported_packets_metric_[index]->add(entry.flow.packets);
}

void FlowCollector::export_entry(const Entry& entry, ExportReason reason,
                                 FlowList& out) {
  out.push_back(entry.flow);
  account_export(entry, reason);
}

void FlowCollector::update_cache_gauge() noexcept {
  cache_entries_metric_->set(static_cast<double>(cache_.size()));
  map_load_factor_metric_->set(static_cast<double>(cache_.load_factor()));
}

void FlowCollector::note_rehash_if_grown() noexcept {
  // A bucket_count change means the table rehashed — the stall the flat
  // table rewrite (ROADMAP item 2) is meant to eliminate. One size_t
  // compare per packet; the branch is taken O(log n) times per run.
  const std::size_t buckets = cache_.bucket_count();
  if (buckets != last_bucket_count_) {
    last_bucket_count_ = buckets;
    ++rehashes_;
    map_rehashes_metric_->inc();
    map_load_factor_metric_->set(static_cast<double>(cache_.load_factor()));
  }
}

void FlowCollector::publish_bucket_shape() noexcept {
  // O(bucket_count) scan; runs once per collector at drain time, so the
  // registry carries the end-of-measurement shape of the last-drained
  // cache without any per-packet cost.
  const MapStats shape = map_stats();
  map_bucket_count_metric_->set(static_cast<double>(shape.bucket_count));
  map_occupied_buckets_metric_->set(
      static_cast<double>(shape.occupied_buckets));
  map_max_bucket_entries_metric_->set(
      static_cast<double>(shape.max_bucket_entries));
}

MapStats FlowCollector::map_stats() const {
  MapStats out;
  out.entries = cache_.size();
  out.bucket_count = cache_.bucket_count();
  out.load_factor = static_cast<double>(cache_.load_factor());
  for (std::size_t b = 0; b < cache_.bucket_count(); ++b) {
    const std::size_t chain = cache_.bucket_size(b);
    if (chain > 0) ++out.occupied_buckets;
    if (chain > out.max_bucket_entries) out.max_bucket_entries = chain;
  }
  out.rehashes = rehashes_;
  return out;
}

void FlowCollector::observe(const PacketObservation& packet, FlowList& out) {
  const util::ConcurrencyGuard::Scope scope(guard_, "FlowCollector::observe");
  auto [it, inserted] = cache_.try_emplace(packet.tuple);
  if (inserted) note_rehash_if_grown();
  Entry& entry = it->second;
  if (inserted) {
    FlowRecord& f = entry.flow;
    f.src = packet.tuple.src;
    f.dst = packet.tuple.dst;
    f.src_port = packet.tuple.src_port;
    f.dst_port = packet.tuple.dst_port;
    f.proto = packet.tuple.proto;
    f.first = packet.time;
    f.last = packet.time;
    f.src_asn = packet.src_asn;
    f.dst_asn = packet.dst_asn;
    f.peer_asn = packet.peer_asn;
    f.direction = packet.direction;
    f.sampling_rate = config_.sampling_rate;
  } else {
    // Inactive timeout: silence since the last packet chops the flow.
    const bool inactive =
        packet.time - entry.flow.last >= config_.inactive_timeout;
    if (inactive || packet.time - entry.flow.first >= config_.active_timeout) {
      export_entry(entry,
                   inactive ? ExportReason::kInactiveTimeout
                            : ExportReason::kActiveTimeout,
                   out);
      FlowRecord& f = entry.flow;
      f.packets = 0;
      f.bytes = 0;
      f.first = packet.time;
      f.last = packet.time;
      f.peer_asn = packet.peer_asn;
      f.direction = packet.direction;
    }
  }
  entry.flow.packets += packet.count;
  entry.flow.bytes += static_cast<std::uint64_t>(packet.wire_bytes) * packet.count;
  entry.flow.last = std::max(entry.flow.last, packet.time);
  stats_.observed_packets += packet.count;
  stats_.observed_bytes +=
      static_cast<std::uint64_t>(packet.wire_bytes) * packet.count;
  stats_.cached_packets += packet.count;
  observed_packets_metric_->add(packet.count);
  observed_bytes_metric_->add(static_cast<std::uint64_t>(packet.wire_bytes) *
                              packet.count);

  if (cache_.size() > config_.max_entries) {
    // Memory pressure: force-expire the stalest entries (full scan; rare).
    std::vector<std::pair<util::Timestamp, net::FiveTuple>> by_age;
    by_age.reserve(cache_.size());
    // bslint:allow(BS004 collected then sorted by (age, five-tuple) below)
    for (const auto& [key, e] : cache_) by_age.emplace_back(e.flow.last, key);
    std::sort(by_age.begin(), by_age.end(),
              [](const auto& a, const auto& b) {
                // Tuple tie-break: equal-age entries otherwise evict in
                // hash-map order, which varies across runs and platforms.
                return a.first != b.first ? a.first < b.first
                                          : a.second < b.second;
              });
    const std::size_t to_evict = cache_.size() - config_.max_entries / 2;
    for (std::size_t i = 0; i < to_evict && i < by_age.size(); ++i) {
      const auto found = cache_.find(by_age[i].second);
      if (found == cache_.end()) continue;
      export_entry(found->second, ExportReason::kLruEviction, out);
      cache_.erase(found);
    }
    update_cache_gauge();
  }
}

void FlowCollector::expire(util::Timestamp now, FlowList& out) {
  const util::ConcurrencyGuard::Scope scope(guard_, "FlowCollector::expire");
  // Batch exports are emitted in five-tuple order, not hash-map order: the
  // map's iteration order depends on the library, reservation history and
  // insertion sequence, so exporting in it made byte-compared outputs
  // differ across platforms (and across thread counts once collectors run
  // on pool workers).
  std::vector<const net::FiveTuple*> expired;
  // bslint:allow(BS004 collected then sorted by five-tuple below)
  for (const auto& [key, entry] : cache_) {
    const FlowRecord& f = entry.flow;
    if (now - f.last >= config_.inactive_timeout ||
        now - f.first >= config_.active_timeout) {
      expired.push_back(&key);
    }
  }
  std::sort(expired.begin(), expired.end(),
            [](const net::FiveTuple* a, const net::FiveTuple* b) {
              return *a < *b;
            });
  for (const net::FiveTuple* key : expired) {
    const auto it = cache_.find(*key);
    const bool inactive = now - it->second.flow.last >= config_.inactive_timeout;
    export_entry(it->second,
                 inactive ? ExportReason::kInactiveTimeout
                          : ExportReason::kActiveTimeout,
                 out);
    cache_.erase(it);
  }
  update_cache_gauge();
}

void FlowCollector::drain(FlowList& out) {
  const util::ConcurrencyGuard::Scope scope(guard_, "FlowCollector::drain");
  publish_bucket_shape();
  std::vector<std::pair<const net::FiveTuple*, const Entry*>> remaining;
  remaining.reserve(cache_.size());
  // bslint:allow(BS004 collected then sorted by five-tuple below)
  for (const auto& [key, entry] : cache_) remaining.emplace_back(&key, &entry);
  std::sort(remaining.begin(), remaining.end(),
            [](const auto& a, const auto& b) { return *a.first < *b.first; });
  for (const auto& [key, entry] : remaining) {
    export_entry(*entry, ExportReason::kDrain, out);
  }
  cache_.clear();
  update_cache_gauge();
}

}  // namespace booterscope::flow
