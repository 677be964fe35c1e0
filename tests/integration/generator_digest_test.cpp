// Output pin for the sharded landscape generator: a digest over every
// FlowBatchView column the streaming engine delivers (per vantage, in
// delivery order), the sequence of day barriers and the attack count. The
// expected values were recorded before the generator's per-run state was
// restructured (one day-ordered market replica, a run-wide path table,
// shard-local counters); any change to the generator that moves a single
// byte of its output fails here. The materialized engine must produce the
// same digest, and both must be independent of the pool size.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "exec/thread_pool.hpp"
#include "flow/batch.hpp"
#include "net/protocol.hpp"
#include "sim/internet.hpp"
#include "sim/landscape.hpp"
#include "sim/landscape_detail.hpp"
#include "sim/landscape_stream.hpp"

namespace booterscope {
namespace {

constexpr std::size_t kPools[] = {1, 2, 8};

/// FNV-1a over the little-endian bytes of 64-bit words.
class Fnv {
 public:
  void add(std::uint64_t value) noexcept {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Hashes rows per vantage (so the digest pins the order within a vantage,
/// which both engines share) and the day barriers in arrival order.
class DigestSink : public flow::FlowBatchSink {
 public:
  void consume(std::size_t vantage, const flow::FlowBatchView& b) override {
    Fnv& h = vantages_.at(vantage);
    for (std::size_t i = 0; i < b.size(); ++i) {
      h.add(b.src[i].value());
      h.add(b.dst[i].value());
      h.add(b.src_port[i]);
      h.add(b.dst_port[i]);
      h.add(static_cast<std::uint64_t>(b.proto[i]));
      h.add(b.packets[i]);
      h.add(b.bytes[i]);
      h.add(static_cast<std::uint64_t>(b.first[i].nanos()));
      h.add(static_cast<std::uint64_t>(b.last[i].nanos()));
      h.add(b.src_asn[i].number());
      h.add(b.dst_asn[i].number());
      h.add(b.peer_asn[i].number());
      h.add(static_cast<std::uint64_t>(b.direction[i]));
      h.add(b.sampling_rate[i]);
    }
    rows_ += b.size();
  }
  void day_complete(int day, util::Timestamp day_start) override {
    barriers_.add(static_cast<std::uint64_t>(day));
    barriers_.add(static_cast<std::uint64_t>(day_start.nanos()));
  }

  [[nodiscard]] std::uint64_t digest(std::uint64_t attacks) const noexcept {
    Fnv all;
    for (const Fnv& h : vantages_) all.add(h.value());
    all.add(barriers_.value());
    all.add(attacks);
    all.add(rows_);
    return all.value();
  }

 private:
  std::array<Fnv, flow::kVantageCount> vantages_;
  Fnv barriers_;
  std::uint64_t rows_ = 0;
};

std::string hex(std::uint64_t value) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

std::uint64_t stream_digest(const sim::Internet& internet,
                            const sim::LandscapeConfig& config,
                            std::size_t threads) {
  exec::ThreadPool pool(threads);
  DigestSink sink;
  const sim::StreamSummary summary =
      sim::run_landscape_stream(internet, config, pool, sink);
  return sink.digest(summary.attack_count);
}

/// The materialized engine merges its shards in day order, so its stores
/// hash like the stream's per-vantage rows, followed by the barriers the
/// stream emits after each day.
std::uint64_t materialized_digest(const sim::Internet& internet,
                                  const sim::LandscapeConfig& config,
                                  std::size_t threads) {
  exec::ThreadPool pool(threads);
  const sim::LandscapeResult result =
      sim::run_landscape(internet, config, pool);
  DigestSink sink;
  const flow::FlowStore* stores[] = {&result.ixp.store, &result.tier1.store,
                                     &result.tier2.store};
  for (std::size_t v = 0; v < flow::kVantageCount; ++v) {
    flow::FlowBatch batch(flow::FlowBatch::kDefaultCapacity);
    for (const flow::FlowRecord& f : stores[v]->flows()) {
      batch.push_back(f);
      if (batch.full()) {
        sink.consume(v, batch.view());
        batch.clear();
      }
    }
    if (!batch.empty()) sink.consume(v, batch.view());
  }
  for (int d = 0; d < config.days; ++d) {
    sink.day_complete(d, config.start + util::Duration::days(d));
  }
  return sink.digest(result.attacks.size());
}

sim::LandscapeConfig config_of(int days, double attacks_per_day,
                               std::uint64_t seed) {
  sim::LandscapeConfig config = sim::paper_landscape_config();
  config.days = days;
  config.attacks_per_day = attacks_per_day;
  config.seed = seed;
  return config;
}

void expect_pinned(const sim::Internet& internet,
                   const sim::LandscapeConfig& config, std::uint64_t pinned) {
  for (const std::size_t threads : kPools) {
    EXPECT_EQ(hex(stream_digest(internet, config, threads)), hex(pinned))
        << "run_landscape_stream at pool size " << threads;
  }
  EXPECT_EQ(hex(materialized_digest(internet, config, 3)), hex(pinned))
      << "run_landscape";
}

TEST(GeneratorDigest, ThirtyDaysAtPaperDensitySeed7) {
  expect_pinned(sim::Internet{sim::InternetConfig{}}, config_of(30, 300.0, 7),
                0xabd9b747bc20bfc2ULL);
}

TEST(GeneratorDigest, SixDenseDaysSeed11) {
  expect_pinned(sim::Internet{sim::InternetConfig{}}, config_of(6, 3000.0, 11),
                0x14b9b567e9fd751dULL);
}

/// Per day (rows between barriers belong to that day's shard): the
/// destinations of maintenance polls from one backend to one service port.
class PollSink : public flow::FlowBatchSink {
 public:
  PollSink(net::Ipv4Addr backend, std::uint16_t port, std::size_t days)
      : backend_(backend), port_(port), targets_(days) {}

  void consume(std::size_t, const flow::FlowBatchView& b) override {
    for (std::size_t i = 0; i < b.size(); ++i) {
      if (b.src[i] == backend_ && b.dst_port[i] == port_) {
        targets_.at(day_).insert(b.dst[i].value());
      }
    }
  }
  void day_complete(int, util::Timestamp) override { ++day_; }

  [[nodiscard]] const std::set<std::uint32_t>& targets(std::size_t day) const {
    return targets_.at(day);
  }

 private:
  net::Ipv4Addr backend_;
  std::uint16_t port_;
  std::vector<std::set<std::uint32_t>> targets_;
  std::size_t day_ = 0;
};

// Booter B switches to a new reflector list on 2018-06-13 (Table 1, Fig.
// 1(c)). A window that contains the switch must show the new list churning
// day by day afterwards, in the list state and in what the shards emit.
TEST(GeneratorDigest, BooterBListKeepsChurningAfterItsSwitch) {
  sim::LandscapeConfig config;
  config.start = util::Timestamp::parse("2018-06-01").value();
  config.days = 30;
  config.attacks_per_day = 300.0;
  const sim::Internet internet{sim::InternetConfig{}};

  // B's NTP list per day, advanced one day at a time from the market the
  // run builds (same seed, same fork).
  const sim::detail::ReflectorPools pools = sim::detail::build_pools(config);
  util::Rng market_rng = util::Rng(config.seed).fork("market");
  sim::detail::MarketRuntime market =
      sim::detail::build_market(internet, config, pools, market_rng);
  ASSERT_EQ(market.profiles[1].name, "B");
  sim::BooterService& b = market.services[1];
  const auto days = static_cast<std::size_t>(config.days);
  const auto switch_day = static_cast<std::size_t>(
      (b.profile().list_policy.jump_at - config.start).total_days());
  ASSERT_GT(switch_day, 0U);
  ASSERT_LT(switch_day + 10, days);
  std::vector<std::set<std::uint32_t>> hosts;
  std::vector<std::vector<sim::ReflectorId>> lists;
  for (std::size_t d = 0; d < days; ++d) {
    b.advance_to(config.start +
                 util::Duration::days(static_cast<std::int64_t>(d)));
    lists.push_back(b.list(net::AmpVector::kNtp)->current());
    std::set<std::uint32_t> ips;
    for (const sim::ReflectorId id : lists.back()) {
      ips.insert(internet.reflector_host(net::AmpVector::kNtp, id).ip.value());
    }
    hosts.push_back(std::move(ips));
  }
  // The switch replaces the list wholesale...
  std::vector<sim::ReflectorId> kept;
  std::vector<sim::ReflectorId> before = lists[switch_day - 1];
  std::vector<sim::ReflectorId> after = lists[switch_day];
  std::sort(before.begin(), before.end());
  std::sort(after.begin(), after.end());
  std::set_intersection(before.begin(), before.end(), after.begin(),
                        after.end(), std::back_inserter(kept));
  EXPECT_LT(kept.size(), after.size() / 4);
  // ...and the new list churns on every day after it.
  for (std::size_t d = switch_day + 1; d < days; ++d) {
    EXPECT_NE(lists[d], lists[d - 1]) << "day " << d;
  }

  // Each shard polls the list of its own day, and the late shards reach
  // reflectors that joined after the switch.
  exec::ThreadPool pool(2);
  PollSink polls(internet.booter_backend(1).ip, net::ports::kNtp, days);
  (void)sim::run_landscape_stream(internet, config, pool, polls);
  std::size_t joined_later = 0;
  for (std::size_t d = switch_day; d < days; ++d) {
    ASSERT_FALSE(polls.targets(d).empty()) << "day " << d;
    for (const std::uint32_t ip : polls.targets(d)) {
      EXPECT_TRUE(hosts[d].contains(ip)) << "day " << d;
      if (!hosts[switch_day].contains(ip)) ++joined_later;
    }
  }
  EXPECT_GT(joined_later, 0U);

  // The output is the same at every pool size and from both engines.
  expect_pinned(internet, config, stream_digest(internet, config, 1));
}

}  // namespace
}  // namespace booterscope
