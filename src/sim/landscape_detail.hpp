// Internal machinery of the day-sharded landscape engine
// (landscape_shard.cpp). Not part of the public surface: include only from
// sim/*.cpp and from tests that pin the engine's state.
//
// The generation primitives are parameterized by a [from, to) time range
// and an explicit Rng: each day shard calls them over its one day with
// counter-based Rng::split streams, which makes the output independent of
// thread count.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "flow/record.hpp"
#include "sim/booter.hpp"
#include "sim/honeypot.hpp"
#include "sim/internet.hpp"
#include "sim/landscape.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace booterscope::sim::detail {

/// Per-vantage view of one (src AS, dst AS) unidirectional path.
struct Visibility {
  bool visible = false;
  net::Asn peer;  // adjacent AS handing traffic into the vantage network
};

struct PathView {
  Visibility ixp;
  Visibility tier1;
  Visibility tier2;
  bool reachable = false;
};

/// Vantage visibility of every (src, dst) AS pair, filled lazily: a dense
/// table over the Internet's AS pairs (273² entries, about 2 MB by
/// default). `classify` is pure, so a table's content never depends on
/// which shard filled it; the engine keeps one table per wave slot and
/// reuses it across waves, and a table is never shared between threads.
class PathTable {
 public:
  explicit PathTable(const Internet& internet);

  const PathView& view(topo::AsId src, topo::AsId dst) {
    Entry& entry = entries_[static_cast<std::size_t>(src) * as_count_ + dst];
    if (!entry.filled) {
      entry.view = classify(src, dst);
      entry.filled = true;
    }
    return entry.view;
  }

 private:
  struct Entry {
    PathView view;
    bool filled = false;
  };

  [[nodiscard]] PathView classify(topo::AsId src, topo::AsId dst) const;

  const Internet* internet_;
  std::size_t as_count_;
  std::vector<Entry> entries_;
};

/// Per-vantage emit/drop tallies of one generation context. `emits` counts
/// every visible-path emission attempt; it equals
///   window_drops + zero_sample_drops + flows
/// — the flow-count conservation identity carried into run manifests.
/// `offered` is pre-sampling truth on visible in-window paths; `sampled` is
/// what the vantage exported; their gap is the sampler loss the paper's
/// §3.2 caveat is about.
struct VantageTally {
  std::uint64_t emits = 0;
  std::uint64_t flows = 0;
  std::uint64_t offered_packets = 0;
  std::uint64_t sampled_packets = 0;
  std::uint64_t zero_sample_drops = 0;  // emits whose Poisson draw came up 0
  std::uint64_t window_drops = 0;       // emits outside the vantage's window

  /// Adds the tallies to the `vantage`-labelled landscape counters of the
  /// global registry.
  void publish(const char* vantage) const;
};

/// Mutable generation context of one day shard: flow sinks, the path table
/// and the shard's split()-derived sampling RNG. Emit accounting stays in
/// plain tallies until `publish`, which the shard calls once when it is
/// done, so the registry's counters move in steps of one day.
struct Context {
  const Internet* internet;
  const LandscapeConfig* config;
  PathTable* paths;
  util::Rng rng;
  flow::FlowList ixp_flows;
  flow::FlowList tier1_flows;
  flow::FlowList tier2_flows;
  VantageTally ixp_tally;
  VantageTally tier1_tally;
  VantageTally tier2_tally;
  std::uint64_t unreachable_drops = 0;

  explicit Context(const Internet& net, const LandscapeConfig& cfg,
                   PathTable& path_table, util::Rng context_rng)
      : internet(&net), config(&cfg), paths(&path_table), rng(context_rng) {}

  /// Emits one sampled flow record to every vantage that sees the path.
  void emit(topo::AsId src_as, net::Ipv4Addr src, topo::AsId dst_as,
            net::Ipv4Addr dst, std::uint16_t src_port, std::uint16_t dst_port,
            std::uint64_t true_packets, std::uint32_t packet_bytes,
            util::Timestamp first, util::Timestamp last);

  /// Adds this context's tallies to the global registry.
  void publish() const;
};

/// Demand seasonality: weekday x hour-of-day multiplier, mean ~1.
[[nodiscard]] double seasonality(util::Timestamp t) noexcept;

[[nodiscard]] net::AmpVector draw_vector(const LandscapeConfig& config,
                                         util::Rng& rng);

/// Stable pseudo-random ephemeral port for an entity pair.
[[nodiscard]] std::uint16_t ephemeral_port(std::uint64_t salt) noexcept;

struct MarketRuntime {
  std::vector<BooterProfile> profiles;
  std::vector<BooterService> services;
  std::vector<Internet::Host> backends;
};

using ReflectorPools = std::unordered_map<net::AmpVector, ReflectorPool>;

/// The per-protocol amplifier populations of this config.
[[nodiscard]] ReflectorPools build_pools(const LandscapeConfig& config);

/// Builds the booter market (profiles, live services, backend hosts) from
/// `market_rng`. Deterministic: every caller that feeds an identically
/// seeded rng gets an identical market. The engine builds it once per run
/// and advances that one replica in day order.
[[nodiscard]] MarketRuntime build_market(const Internet& internet,
                                         const LandscapeConfig& config,
                                         const ReflectorPools& pools,
                                         util::Rng& market_rng);

/// Picks an active booter offering `vector`, weighted by market share.
/// Returns profiles.size() when no booter qualifies.
[[nodiscard]] std::size_t pick_booter(const MarketRuntime& market,
                                      net::AmpVector vector, util::Timestamp t,
                                      std::optional<util::Timestamp> takedown,
                                      util::Rng& rng);

/// Attack + trigger traffic for launches in [from, to). `horizon` caps the
/// per-minute emission loop (attacks running past the study window stop
/// there). A day shard passes its day and a split("attacks", day) stream.
void generate_attack_traffic(Context& ctx, MarketRuntime& market,
                             const ReflectorPools& pools,
                             const HoneypotDeployment& honeypots,
                             util::Timestamp from, util::Timestamp to,
                             util::Timestamp horizon, util::Rng rng,
                             std::vector<AttackRecord>& ground_truth,
                             std::vector<HoneypotObservation>& honeypot_log);

/// Reflector-maintenance traffic of one (booter, day) cell, drawn from
/// that cell's own split("maintenance", cell) stream. `market` is the
/// shard's copy at `day`, so the booter polls its list as of that day.
void generate_maintenance_booter_day(Context& ctx, MarketRuntime& market,
                                     std::size_t booter_index,
                                     util::Timestamp day,
                                     std::optional<util::Timestamp> takedown,
                                     util::Rng rng);

/// Benign baseline + scanner traffic for days in [from, to).
void generate_benign_traffic(Context& ctx, const ReflectorPools& pools,
                             util::Timestamp from, util::Timestamp to,
                             util::Rng rng);

}  // namespace booterscope::sim::detail
