#include "flow/collector.hpp"

#include <gtest/gtest.h>

namespace booterscope::flow {
namespace {

using util::Duration;
using util::Timestamp;

PacketObservation packet(Timestamp t, std::uint16_t src_port = 123,
                         std::uint32_t bytes = 490, std::uint64_t count = 1) {
  PacketObservation p;
  p.time = t;
  p.tuple = net::FiveTuple{net::Ipv4Addr{10, 0, 0, 1}, net::Ipv4Addr{10, 0, 0, 2},
                           src_port, 4444, net::IpProto::kUdp};
  p.wire_bytes = bytes;
  p.count = count;
  p.src_asn = net::Asn{100};
  p.dst_asn = net::Asn{200};
  p.peer_asn = net::Asn{300};
  return p;
}

CollectorConfig config() {
  CollectorConfig c;
  c.active_timeout = Duration::minutes(2);
  c.inactive_timeout = Duration::seconds(15);
  c.sampling_rate = 10;
  return c;
}

TEST(FlowCollector, AggregatesSameTuple) {
  FlowCollector collector(config());
  FlowList out;
  const Timestamp t0 = Timestamp::parse("2018-06-01T10:00:00").value();
  collector.observe(packet(t0), out);
  collector.observe(packet(t0 + Duration::seconds(1), 123, 490, 3), out);
  collector.observe(packet(t0 + Duration::seconds(2)), out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(collector.active_flows(), 1u);
  collector.drain(out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].packets, 5u);
  EXPECT_EQ(out[0].bytes, 5u * 490);
  EXPECT_EQ(out[0].first, t0);
  EXPECT_EQ(out[0].last, t0 + Duration::seconds(2));
  EXPECT_EQ(out[0].sampling_rate, 10u);
  EXPECT_EQ(out[0].peer_asn, net::Asn{300});
}

TEST(FlowCollector, DistinctTuplesSeparateFlows) {
  FlowCollector collector(config());
  FlowList out;
  const Timestamp t0 = Timestamp::parse("2018-06-01T10:00:00").value();
  collector.observe(packet(t0, 123), out);
  collector.observe(packet(t0, 124), out);
  EXPECT_EQ(collector.active_flows(), 2u);
}

TEST(FlowCollector, InactiveTimeoutChopsFlow) {
  FlowCollector collector(config());
  FlowList out;
  const Timestamp t0 = Timestamp::parse("2018-06-01T10:00:00").value();
  collector.observe(packet(t0), out);
  // Silence longer than the inactive timeout: the next packet exports the
  // old flow and starts a fresh one.
  collector.observe(packet(t0 + Duration::seconds(20)), out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].packets, 1u);
  collector.drain(out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1].first, t0 + Duration::seconds(20));
}

TEST(FlowCollector, ActiveTimeoutChopsLongFlow) {
  FlowCollector collector(config());
  FlowList out;
  const Timestamp t0 = Timestamp::parse("2018-06-01T10:00:00").value();
  // One packet per second for 130 seconds: the active timeout (120 s)
  // forces an export mid-stream.
  for (int s = 0; s <= 130; ++s) {
    collector.observe(packet(t0 + Duration::seconds(s)), out);
  }
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].packets, 120u);
}

TEST(FlowCollector, ExpireFlushesIdleFlows) {
  FlowCollector collector(config());
  FlowList out;
  const Timestamp t0 = Timestamp::parse("2018-06-01T10:00:00").value();
  collector.observe(packet(t0), out);
  collector.expire(t0 + Duration::seconds(10), out);
  EXPECT_TRUE(out.empty());  // not yet idle long enough
  collector.expire(t0 + Duration::seconds(16), out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(collector.active_flows(), 0u);
}

TEST(FlowCollector, ForcedEvictionUnderMemoryPressure) {
  CollectorConfig small = config();
  small.max_entries = 100;
  FlowCollector collector(small);
  FlowList out;
  const Timestamp t0 = Timestamp::parse("2018-06-01T10:00:00").value();
  for (std::uint32_t i = 0; i < 200; ++i) {
    PacketObservation p = packet(t0 + Duration::millis(i));
    p.tuple.src = net::Ipv4Addr{i + 1};
    collector.observe(p, out);
  }
  EXPECT_GT(collector.forced_evictions(), 0u);
  EXPECT_LE(collector.active_flows(), 101u);
  collector.drain(out);
  // No packet may be lost: exports + drained == 200 observations.
  std::uint64_t packets = 0;
  for (const FlowRecord& f : out) packets += f.packets;
  EXPECT_EQ(packets, 200u);
}

TEST(FlowCollector, CountsExportedFlows) {
  FlowCollector collector(config());
  FlowList out;
  const Timestamp t0 = Timestamp::parse("2018-06-01T10:00:00").value();
  collector.observe(packet(t0), out);
  collector.drain(out);
  EXPECT_EQ(collector.exported_flows(), 1u);
}

TEST(FlowCollector, DrainOrderIsKeyOrderRegardlessOfInsertion) {
  // Satellite of the parallel pipeline: exports from drain() and expire()
  // come out in five-tuple order, a pure function of the cache *contents*,
  // so replays that build the cache in different orders export the same
  // byte sequence.
  const Timestamp t0 = Timestamp::parse("2018-06-01T10:00:00").value();
  const auto run = [&](const std::vector<std::uint32_t>& hosts) {
    FlowCollector collector(config());
    FlowList out;
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      PacketObservation p =
          packet(t0 + Duration::millis(static_cast<std::int64_t>(i)));
      p.tuple.src = net::Ipv4Addr{hosts[i]};
      collector.observe(p, out);
    }
    EXPECT_TRUE(out.empty());
    collector.drain(out);
    return out;
  };
  const FlowList forward = run({1, 2, 3, 4, 5, 6, 7, 8});
  const FlowList shuffled = run({5, 2, 8, 1, 7, 3, 6, 4});
  ASSERT_EQ(forward.size(), 8u);
  for (std::size_t i = 0; i + 1 < forward.size(); ++i) {
    EXPECT_LT(forward[i].key(), forward[i + 1].key());
  }
  // Same contents → same bytes, modulo the per-flow timestamps that encode
  // insertion time; compare keys only.
  for (std::size_t i = 0; i < forward.size(); ++i) {
    EXPECT_EQ(forward[i].key(), shuffled[i].key());
  }
}

TEST(FlowCollector, ExpireExportsInKeyOrder) {
  const Timestamp t0 = Timestamp::parse("2018-06-01T10:00:00").value();
  FlowCollector collector(config());
  FlowList out;
  for (const std::uint32_t host : {9u, 4u, 7u, 1u}) {
    PacketObservation p = packet(t0);
    p.tuple.src = net::Ipv4Addr{host};
    collector.observe(p, out);
  }
  collector.expire(t0 + Duration::minutes(5), out);
  ASSERT_EQ(out.size(), 4u);
  for (std::size_t i = 0; i + 1 < out.size(); ++i) {
    EXPECT_LT(out[i].key(), out[i + 1].key());
  }
}

TEST(FlowCollector, MapStatsDescribeTheCacheShape) {
  FlowCollector collector(config());
  const Timestamp t0 = Timestamp::parse("2018-12-01").value();
  FlowList out;
  for (int i = 0; i < 100; ++i) {
    collector.observe(packet(t0, static_cast<std::uint16_t>(i)), out);
  }
  const MapStats stats = collector.map_stats();
  EXPECT_EQ(stats.entries, 100u);
  EXPECT_GE(stats.bucket_count, stats.occupied_buckets);
  EXPECT_GT(stats.occupied_buckets, 0u);
  EXPECT_GE(stats.max_bucket_entries, 1u);
  // load_factor is entries/buckets by definition.
  EXPECT_NEAR(stats.load_factor,
              static_cast<double>(stats.entries) /
                  static_cast<double>(stats.bucket_count),
              1e-6);
  // 100 distinct tuples force the default-constructed table to grow at
  // least once; the counter proves the hot path noticed.
  EXPECT_GE(stats.rehashes, 1u);
}

TEST(FlowCollector, MicroMetricsReachTheRegistry) {
  // Satellite contract: the booterscope_flow_* series exist independently
  // of --prof — any collector-running process exports them. Counters are
  // global (shared across collector instances), so assert deltas.
  obs::MetricsRegistry& registry = obs::metrics();
  const std::uint64_t rehashes_before =
      registry.counter_total("booterscope_flow_map_rehashes_total");

  FlowCollector collector(config());
  const Timestamp t0 = Timestamp::parse("2018-12-01").value();
  FlowList out;
  for (int i = 0; i < 200; ++i) {
    collector.observe(packet(t0, static_cast<std::uint16_t>(i)), out);
  }
  collector.drain(out);

#ifndef BOOTERSCOPE_NO_METRICS
  EXPECT_GT(registry.counter_total("booterscope_flow_map_rehashes_total"),
            rehashes_before);
  // drain() published the end-of-measurement bucket shape of this cache.
  EXPECT_GT(registry.gauge("booterscope_flow_map_bucket_count").value(), 0.0);
#else
  // Metrics compiled out: the series exist but no update reaches them.
  EXPECT_EQ(registry.counter_total("booterscope_flow_map_rehashes_total"),
            rehashes_before);
  EXPECT_EQ(registry.gauge("booterscope_flow_map_bucket_count").value(), 0.0);
#endif
}

}  // namespace
}  // namespace booterscope::flow
