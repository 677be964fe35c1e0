#include "flow/netflow_v5.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace booterscope::flow {
namespace {

using util::Duration;
using util::Timestamp;

NetflowV5ExportConfig test_config() {
  NetflowV5ExportConfig config;
  config.boot_time = Timestamp::parse("2018-12-01").value();
  config.engine_type = 1;
  config.engine_id = 7;
  config.sampling_interval = 1000;  // 1-in-1000
  return config;
}

FlowRecord make_flow(util::Rng& rng, Timestamp base) {
  FlowRecord f;
  f.src = net::Ipv4Addr{static_cast<std::uint32_t>(rng())};
  f.dst = net::Ipv4Addr{static_cast<std::uint32_t>(rng())};
  f.src_port = static_cast<std::uint16_t>(rng.bounded(65536));
  f.dst_port = static_cast<std::uint16_t>(rng.bounded(65536));
  f.proto = rng.chance(0.8) ? net::IpProto::kUdp : net::IpProto::kTcp;
  f.packets = rng.bounded(1'000'000) + 1;
  f.bytes = f.packets * (rng.bounded(1400) + 60);
  f.first = base + Duration::millis(static_cast<std::int64_t>(rng.bounded(100'000)));
  f.last = f.first + Duration::millis(static_cast<std::int64_t>(rng.bounded(60'000)));
  f.src_asn = net::Asn{static_cast<std::uint32_t>(rng.bounded(65'000) + 1)};
  f.dst_asn = net::Asn{static_cast<std::uint32_t>(rng.bounded(65'000) + 1)};
  return f;
}

TEST(NetflowV5, PduSizeMatchesSpec) {
  const auto config = test_config();
  util::Rng rng(1);
  FlowList flows;
  for (int i = 0; i < 5; ++i) flows.push_back(make_flow(rng, config.boot_time));
  const auto pdu = encode_netflow_v5(flows, config, 0,
                                     config.boot_time + Duration::minutes(5));
  EXPECT_EQ(pdu.size(), kNetflowV5HeaderBytes + 5 * kNetflowV5RecordBytes);
}

TEST(NetflowV5, RoundTripPreservesFields) {
  const auto config = test_config();
  util::Rng rng(2);
  FlowList flows;
  for (int i = 0; i < 20; ++i) flows.push_back(make_flow(rng, config.boot_time));
  const Timestamp export_time = config.boot_time + Duration::minutes(10);
  const auto pdu = encode_netflow_v5(flows, config, 77, export_time);
  const auto decoded = decode_netflow_v5(pdu, config.boot_time);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->flow_sequence, 77u);
  EXPECT_EQ(decoded->engine_id, 7);
  EXPECT_EQ(decoded->export_time, export_time);
  ASSERT_EQ(decoded->records.size(), flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const FlowRecord& in = flows[i];
    const FlowRecord& out = decoded->records[i];
    EXPECT_EQ(out.src, in.src);
    EXPECT_EQ(out.dst, in.dst);
    EXPECT_EQ(out.src_port, in.src_port);
    EXPECT_EQ(out.dst_port, in.dst_port);
    EXPECT_EQ(out.proto, in.proto);
    EXPECT_EQ(out.packets, in.packets);
    EXPECT_EQ(out.bytes, in.bytes);
    // v5 timestamps are millisecond-resolution SysUptime offsets.
    EXPECT_EQ(out.first.millis(), in.first.millis());
    EXPECT_EQ(out.last.millis(), in.last.millis());
    // v5 carries 16-bit ASNs.
    EXPECT_EQ(out.src_asn.number(), in.src_asn.number() & 0xffff);
    EXPECT_EQ(out.dst_asn.number(), in.dst_asn.number() & 0xffff);
    EXPECT_EQ(out.sampling_rate, 1000u);
  }
}

TEST(NetflowV5, RejectsWrongVersion) {
  const auto config = test_config();
  auto pdu = encode_netflow_v5({}, config, 0, config.boot_time);
  pdu[1] = 9;  // version 9
  const auto decoded = decode_netflow_v5(pdu, config.boot_time);
  ASSERT_FALSE(decoded.has_value());
  EXPECT_EQ(decoded.error(), util::DecodeError::kBadVersion);
}

TEST(NetflowV5, SalvagesTruncatedPdu) {
  const auto config = test_config();
  util::Rng rng(3);
  FlowList flows = {make_flow(rng, config.boot_time),
                    make_flow(rng, config.boot_time)};
  auto pdu = encode_netflow_v5(flows, config, 0, config.boot_time);
  pdu.resize(pdu.size() - 10);  // cuts into the second record
  const auto decoded = decode_netflow_v5(pdu, config.boot_time);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->records.size(), 1u);
  EXPECT_EQ(decoded->declared_count, 2u);
  EXPECT_EQ(decoded->damage.count(util::DecodeError::kCountMismatch), 1u);
  EXPECT_EQ(decoded->damage.records_skipped, 1u);
}

TEST(NetflowV5, OversizedCountDegradesToAvailableRecords) {
  const auto config = test_config();
  auto pdu = encode_netflow_v5({}, config, 0, config.boot_time);
  pdu[3] = 31;  // count > kNetflowV5MaxRecords, no record bytes present
  const auto decoded = decode_netflow_v5(pdu, config.boot_time);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->records.empty());
  EXPECT_EQ(decoded->damage.count(util::DecodeError::kCountMismatch), 1u);
  EXPECT_EQ(decoded->damage.records_skipped, 31u);
}

TEST(NetflowV5, RejectsTruncatedHeader) {
  const auto config = test_config();
  auto pdu = encode_netflow_v5({}, config, 0, config.boot_time);
  pdu.resize(kNetflowV5HeaderBytes - 1);
  const auto decoded = decode_netflow_v5(pdu, config.boot_time);
  ASSERT_FALSE(decoded.has_value());
  EXPECT_EQ(decoded.error(), util::DecodeError::kTruncatedHeader);
}

TEST(NetflowV5, EncodeCapsAtMaxRecords) {
  const auto config = test_config();
  util::Rng rng(4);
  FlowList flows;
  for (int i = 0; i < 40; ++i) flows.push_back(make_flow(rng, config.boot_time));
  const auto pdu = encode_netflow_v5(flows, config, 0, config.boot_time);
  const auto decoded = decode_netflow_v5(pdu, config.boot_time);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->records.size(), kNetflowV5MaxRecords);
}

TEST(NetflowV5, CounterSaturationAt32Bits) {
  const auto config = test_config();
  FlowRecord f;
  f.first = config.boot_time;
  f.last = config.boot_time;
  f.packets = 0x1'0000'0001ULL;  // exceeds 32 bits
  f.bytes = 0xffff'ffff'ffULL;
  const auto pdu = encode_netflow_v5(FlowList{f}, config, 0, config.boot_time);
  const auto decoded = decode_netflow_v5(pdu, config.boot_time);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->records[0].packets, 0xffffffffULL);
  EXPECT_EQ(decoded->records[0].bytes, 0xffffffffULL);
}

TEST(NetflowV5Exporter, EmitsFullPdusAndTracksSequence) {
  const auto config = test_config();
  util::Rng rng(5);
  NetflowV5Exporter exporter(config);
  int pdus = 0;
  std::size_t decoded_records = 0;
  for (int i = 0; i < 65; ++i) {
    const auto pdu = exporter.add(make_flow(rng, config.boot_time),
                                  config.boot_time + Duration::seconds(i));
    if (pdu) {
      ++pdus;
      const auto decoded = decode_netflow_v5(*pdu, config.boot_time);
      ASSERT_TRUE(decoded.has_value());
      decoded_records += decoded->records.size();
    }
  }
  EXPECT_EQ(pdus, 2);  // 60 flows flushed as 2 PDUs of 30
  const auto final_pdu = exporter.flush(config.boot_time + Duration::minutes(2));
  ASSERT_TRUE(final_pdu.has_value());
  const auto decoded = decode_netflow_v5(*final_pdu, config.boot_time);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->records.size(), 5u);
  EXPECT_EQ(decoded->flow_sequence, 60u);
  EXPECT_EQ(decoded_records + decoded->records.size(), 65u);
  EXPECT_EQ(exporter.sequence(), 65u);
  EXPECT_FALSE(exporter.flush(config.boot_time).has_value());
}

}  // namespace
}  // namespace booterscope::flow
