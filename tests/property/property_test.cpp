// Parameterized property tests: invariants swept across parameter grids
// (TEST_P / INSTANTIATE_TEST_SUITE_P).
#include <gtest/gtest.h>

#include <cmath>

#include "flow/anonymize.hpp"
#include "flow/ipfix.hpp"
#include "flow/netflow_v5.hpp"
#include "flow/sampler.hpp"
#include "flow/store.hpp"
#include "sim/internet.hpp"
#include "stats/welch.hpp"
#include "util/rng.hpp"

namespace booterscope {
namespace {

using util::Duration;
using util::Timestamp;

flow::FlowRecord random_flow(util::Rng& rng) {
  flow::FlowRecord f;
  f.src = net::Ipv4Addr{static_cast<std::uint32_t>(rng())};
  f.dst = net::Ipv4Addr{static_cast<std::uint32_t>(rng())};
  f.src_port = static_cast<std::uint16_t>(rng.bounded(65536));
  f.dst_port = static_cast<std::uint16_t>(rng.bounded(65536));
  f.proto = net::IpProto::kUdp;
  f.packets = rng.bounded(1 << 20) + 1;
  f.bytes = f.packets * (rng.bounded(1400) + 64);
  f.first = Timestamp::parse("2018-12-01").value() +
            Duration::millis(static_cast<std::int64_t>(rng.bounded(86'400'000)));
  f.last = f.first + Duration::millis(static_cast<std::int64_t>(rng.bounded(120'000)));
  f.src_asn = net::Asn{static_cast<std::uint32_t>(rng.bounded(60'000) + 1)};
  f.dst_asn = net::Asn{static_cast<std::uint32_t>(rng.bounded(60'000) + 1)};
  f.peer_asn = net::Asn{static_cast<std::uint32_t>(rng.bounded(60'000) + 1)};
  f.sampling_rate = 1000;
  return f;
}

// ---------------------------------------------------------------- codecs

// Values are pinned: they seed each case's flows and appear in the printed
// test parameter, so a deleted codec leaves a gap rather than a renumbering.
enum class Codec { kNetflowV5 = 0, kIpfix = 2, kBsf = 3 };

struct CodecCase {
  Codec codec;
  std::size_t records;
};

class CodecRoundTrip : public ::testing::TestWithParam<CodecCase> {};

TEST_P(CodecRoundTrip, PreservesSupportedFields) {
  const CodecCase param = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(param.records) * 31 +
                static_cast<std::uint64_t>(param.codec));
  flow::FlowList flows;
  for (std::size_t i = 0; i < param.records; ++i) {
    flows.push_back(random_flow(rng));
  }
  const Timestamp boot = Timestamp::parse("2018-11-30").value();
  const Timestamp now = Timestamp::parse("2018-12-02").value();

  flow::FlowList decoded;
  bool asn_full_width = true;
  switch (param.codec) {
    case Codec::kNetflowV5: {
      const flow::NetflowV5ExportConfig config{boot, 0, 0, 1000};
      const auto pdu = flow::encode_netflow_v5(flows, config, 0, now);
      const auto packet = flow::decode_netflow_v5(pdu, boot);
      ASSERT_TRUE(packet.has_value());
      decoded = packet->records;
      asn_full_width = false;  // v5 truncates ASNs to 16 bits
      break;
    }
    case Codec::kIpfix: {
      const auto message = flow::ipfix::encode_message(flows, 1, 0, now);
      flow::ipfix::MessageDecoder decoder;
      const auto packet = decoder.decode(message);
      ASSERT_TRUE(packet.has_value());
      decoded = packet->records;
      break;
    }
    case Codec::kBsf: {
      const auto bytes = flow::serialize_flows(flows);
      const auto parsed = flow::deserialize_flows(bytes);
      ASSERT_TRUE(parsed.has_value());
      decoded = *parsed;
      break;
    }
  }

  ASSERT_EQ(decoded.size(), flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const flow::FlowRecord& in = flows[i];
    const flow::FlowRecord& out = decoded[i];
    // The five-tuple and counters survive every codec.
    ASSERT_EQ(out.src, in.src) << i;
    ASSERT_EQ(out.dst, in.dst) << i;
    ASSERT_EQ(out.src_port, in.src_port) << i;
    ASSERT_EQ(out.dst_port, in.dst_port) << i;
    ASSERT_EQ(out.proto, in.proto) << i;
    ASSERT_EQ(out.packets, in.packets) << i;
    ASSERT_EQ(out.bytes, in.bytes) << i;
    // Timestamps to the codec's resolution (>= millisecond everywhere).
    ASSERT_EQ(out.first.millis(), in.first.millis()) << i;
    ASSERT_EQ(out.last.millis(), in.last.millis()) << i;
    if (asn_full_width) {
      ASSERT_EQ(out.src_asn, in.src_asn) << i;
      ASSERT_EQ(out.dst_asn, in.dst_asn) << i;
    } else {
      ASSERT_EQ(out.src_asn.number(), in.src_asn.number() & 0xffff) << i;
    }
  }
}

std::string codec_case_name(
    const ::testing::TestParamInfo<CodecCase>& param_info) {
  const char* name = "";
  switch (param_info.param.codec) {
    case Codec::kNetflowV5:
      name = "NetflowV5";
      break;
    case Codec::kIpfix:
      name = "Ipfix";
      break;
    case Codec::kBsf:
      name = "Bsf";
      break;
  }
  return std::string(name) + "_" + std::to_string(param_info.param.records);
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecsAndSizes, CodecRoundTrip,
    ::testing::Values(CodecCase{Codec::kNetflowV5, 1},
                      CodecCase{Codec::kNetflowV5, 30},
                      CodecCase{Codec::kIpfix, 1},
                      CodecCase{Codec::kIpfix, 64},
                      CodecCase{Codec::kIpfix, 500},
                      CodecCase{Codec::kBsf, 0}, CodecCase{Codec::kBsf, 1},
                      CodecCase{Codec::kBsf, 333}),
    codec_case_name);

// --------------------------------------------------------------- sampler

class SamplerUnbiased : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SamplerUnbiased, LongRunRateMatches) {
  const std::uint32_t rate = GetParam();
  flow::ProbabilisticSampler probabilistic(rate, util::Rng(rate));
  flow::SystematicSampler systematic(rate);
  std::uint64_t kept_probabilistic = 0;
  std::uint64_t kept_systematic = 0;
  const std::uint64_t offered_per_call = 997;  // exercises batch paths
  const int calls = 3000;
  for (int i = 0; i < calls; ++i) {
    kept_probabilistic += probabilistic.sample(offered_per_call);
    kept_systematic += systematic.sample(offered_per_call);
  }
  const double offered = static_cast<double>(offered_per_call) * calls;
  const double expected = offered / rate;
  EXPECT_NEAR(static_cast<double>(kept_probabilistic), expected,
              std::max(4 * std::sqrt(expected), 2.0));
  // Systematic sampling is exact up to the final phase remainder.
  EXPECT_NEAR(static_cast<double>(kept_systematic), expected, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Rates, SamplerUnbiased,
                         ::testing::Values(1u, 7u, 100u, 1'000u, 10'000u),
                         [](const auto& param_info) {
                           return "OneIn" + std::to_string(param_info.param);
                         });

// ------------------------------------------------------------ anonymizer

class AnonymizerProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AnonymizerProperty, PrefixPreservingUnderAnyKey) {
  const util::SipKey key{GetParam(), ~GetParam()};
  const flow::PrefixPreservingAnonymizer anonymizer(key);
  util::Rng rng(GetParam() ^ 0xabcdef);
  auto lcp = [](net::Ipv4Addr a, net::Ipv4Addr b) {
    const std::uint32_t diff = a.value() ^ b.value();
    return diff == 0 ? 32u : static_cast<unsigned>(__builtin_clz(diff));
  };
  for (int i = 0; i < 400; ++i) {
    const net::Ipv4Addr a{static_cast<std::uint32_t>(rng())};
    const net::Ipv4Addr b{static_cast<std::uint32_t>(rng())};
    ASSERT_EQ(lcp(anonymizer.anonymize(a), anonymizer.anonymize(b)), lcp(a, b));
  }
}

INSTANTIATE_TEST_SUITE_P(Keys, AnonymizerProperty,
                         ::testing::Values(0ULL, 1ULL, 0xdeadbeefULL,
                                           0x123456789abcdefULL));

// ----------------------------------------------------------------- welch

class WelchPower : public ::testing::TestWithParam<double> {};

TEST_P(WelchPower, LargerEffectsAreMoreSignificant) {
  const double effect = GetParam();  // relative reduction
  util::Rng rng(static_cast<std::uint64_t>(effect * 1000) + 3);
  std::vector<double> before;
  std::vector<double> after;
  for (int i = 0; i < 30; ++i) {
    before.push_back(util::normal(rng, 100.0, 10.0));
    after.push_back(util::normal(rng, 100.0 * (1.0 - effect), 10.0));
  }
  const auto result = stats::welch_t_test(before, after);
  if (effect >= 0.3) {
    EXPECT_TRUE(result.significant_reduction());
    EXPECT_NEAR(result.reduction_ratio(), 1.0 - effect, 0.08);
  }
  if (effect == 0.0) {
    // Not guaranteed insignificant for every seed, but p must not be tiny.
    EXPECT_GT(result.p_value_greater, 1e-4);
  }
}

INSTANTIATE_TEST_SUITE_P(Effects, WelchPower,
                         ::testing::Values(0.0, 0.3, 0.6, 0.9),
                         [](const auto& param_info) {
                           return "Reduction" +
                                  std::to_string(
                                      static_cast<int>(param_info.param * 100));
                         });

// --------------------------------------------------------------- routing

class RoutingInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RoutingInvariants, ValleyFreeLoopFreeAndConnected) {
  sim::InternetConfig config;
  config.seed = GetParam();
  config.stub_count = 60;
  config.tier2_count = 8;
  config.tier2_members = 5;
  config.stub_members = 10;
  config.content_count = 5;
  const sim::Internet internet{config};
  const auto& topology = internet.topology();
  const auto& router = internet.router();

  util::Rng rng(GetParam() + 17);
  for (int trial = 0; trial < 300; ++trial) {
    const auto src = static_cast<topo::AsId>(rng.bounded(topology.as_count()));
    const auto dst = static_cast<topo::AsId>(rng.bounded(topology.as_count()));
    ASSERT_TRUE(router.reachable(src, dst)) << src << "->" << dst;
    const auto path = router.path(src, dst);
    ASSERT_FALSE(path.empty());
    ASSERT_EQ(path.front(), src);
    ASSERT_EQ(path.back(), dst);
    // Loop-free.
    std::unordered_set<topo::AsId> seen(path.begin(), path.end());
    ASSERT_EQ(seen.size(), path.size());
    // Valley-free: links go up (customer->provider), then at most one
    // peer hop, then down — encoded as phase 0 (up) -> 1 (peer) -> 2 (down).
    int phase = 0;
    const auto links = router.link_path(src, dst);
    for (std::size_t i = 0; i < links.size(); ++i) {
      const topo::Link& link = topology.link(links[i]);
      if (link.kind == topo::LinkKind::kCustomerProvider) {
        const bool upward = link.a == path[i];  // customer side is 'a'
        if (upward) {
          ASSERT_EQ(phase, 0) << "climb after descent/peer";
        } else {
          phase = 2;
        }
      } else {
        ASSERT_LT(phase, 2) << "peer hop after descent";
        ASSERT_NE(phase, 1) << "two peer hops";
        phase = 1;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoutingInvariants,
                         ::testing::Values(1ULL, 2ULL, 42ULL, 1337ULL, 9999ULL));

}  // namespace
}  // namespace booterscope
