// ExporterSession: decode + dedup + health + quarantine, all driven by a
// synthetic clock. The suite pins the full quarantine lifecycle — garbage
// packets trip the window threshold, packets are then discarded-but-counted,
// the backoff delay readmits deterministically — and that the session tally
// balances at every step of the way.
#include "svc/session.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "flow/batch.hpp"
#include "flow/ipfix.hpp"
#include "flow/netflow_v5.hpp"
#include "flow/record.hpp"
#include "util/time.hpp"

namespace booterscope::svc {
namespace {

constexpr std::int64_t kMs = 1'000'000;

[[nodiscard]] util::Timestamp start_time() {
  return util::Timestamp::from_date({2018, 9, 30});
}

[[nodiscard]] flow::FlowRecord test_flow(int minute) {
  flow::FlowRecord flow;
  flow.src = net::Ipv4Addr(192, 0, 2, 1);
  flow.dst = net::Ipv4Addr(198, 51, 100, 2);
  flow.src_port = 123;
  flow.dst_port = 123;
  flow.packets = 10;
  flow.bytes = 4000;
  flow.first = start_time() + util::Duration::minutes(minute);
  flow.last = flow.first + util::Duration::seconds(30);
  return flow;
}

[[nodiscard]] SessionConfig test_config() {
  SessionConfig config;
  config.seed = 7;
  config.v5_boot_time = start_time();
  return config;
}

/// A packet no decoder accepts: version 0x0063 is neither v5 nor IPFIX.
[[nodiscard]] std::vector<std::uint8_t> garbage_packet() {
  return {0x00, 0x63, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00};
}

TEST(ExporterSession, IpfixPacketDecodesAndMapsDomainToVantage) {
  ExporterSession session(0, test_config());
  const std::vector<flow::FlowRecord> flows = {test_flow(0), test_flow(1)};
  const auto packet =
      flow::ipfix::encode_message(flows, /*observation_domain=*/4,
                                  /*sequence=*/0, flows.back().last);

  const IngestResult result = session.ingest(packet, 0);
  EXPECT_EQ(result.outcome, PacketOutcome::kClean);
  EXPECT_EQ(result.records.size(), 2u);
  EXPECT_EQ(result.vantage, 4u % flow::kVantageCount);
  EXPECT_TRUE(session.tally().balanced());
  EXPECT_EQ(session.tally().decoded_clean, 1u);
  EXPECT_DOUBLE_EQ(session.health(), 1.0);
}

TEST(ExporterSession, NetflowV5PacketDecodesAndMapsEngineToVantage) {
  SessionConfig config = test_config();
  ExporterSession session(1, config);
  flow::NetflowV5ExportConfig v5;
  v5.boot_time = config.v5_boot_time;
  v5.engine_id = 5;
  const std::vector<flow::FlowRecord> flows = {test_flow(0)};
  const auto packet =
      flow::encode_netflow_v5(flows, v5, /*flow_sequence=*/0, flows[0].last);

  const IngestResult result = session.ingest(packet, 0);
  EXPECT_EQ(result.outcome, PacketOutcome::kClean);
  EXPECT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.vantage, 5u % flow::kVantageCount);
  EXPECT_TRUE(session.tally().balanced());
}

TEST(ExporterSession, DuplicateV5SequenceIsFailedNotDoubleCounted) {
  SessionConfig config = test_config();
  ExporterSession session(2, config);
  flow::NetflowV5ExportConfig v5;
  v5.boot_time = config.v5_boot_time;
  const std::vector<flow::FlowRecord> flows = {test_flow(0)};
  const auto packet =
      flow::encode_netflow_v5(flows, v5, /*flow_sequence=*/17, flows[0].last);

  EXPECT_EQ(session.ingest(packet, 0).outcome, PacketOutcome::kClean);
  // The same PDU re-delivered (UDP duplication): rows must not re-enter.
  const IngestResult dup = session.ingest(packet, kMs);
  EXPECT_EQ(dup.outcome, PacketOutcome::kFailed);
  EXPECT_EQ(dup.error, util::DecodeError::kDuplicateSequence);
  EXPECT_TRUE(dup.records.empty());
  EXPECT_EQ(session.tally().failed, 1u);
  EXPECT_TRUE(session.tally().balanced());
}

TEST(ExporterSession, IpfixSequencesAreDedupedPerObservationDomain) {
  ExporterSession session(6, test_config());
  const std::vector<flow::FlowRecord> flows = {test_flow(0)};
  const auto domain_1 =
      flow::ipfix::encode_message(flows, 1, /*sequence=*/42, flows[0].last);
  const auto domain_2 =
      flow::ipfix::encode_message(flows, 2, /*sequence=*/42, flows[0].last);

  // One sequence number in two domains is two distinct messages.
  EXPECT_EQ(session.ingest(domain_1, 0).outcome, PacketOutcome::kClean);
  EXPECT_EQ(session.ingest(domain_2, kMs).outcome, PacketOutcome::kClean);
  // A repeat within one domain is a re-delivery.
  const IngestResult dup = session.ingest(domain_1, 2 * kMs);
  EXPECT_EQ(dup.outcome, PacketOutcome::kFailed);
  EXPECT_EQ(dup.error, util::DecodeError::kDuplicateSequence);
  EXPECT_TRUE(dup.records.empty());
  EXPECT_EQ(session.tally().decoded_clean, 2u);
  EXPECT_EQ(session.tally().failed, 1u);
  EXPECT_TRUE(session.tally().balanced());
}

TEST(ExporterSession, TruncatedIpfixHeaderIsNeverADuplicate) {
  ExporterSession session(7, test_config());
  const std::vector<flow::FlowRecord> flows = {test_flow(0)};
  auto packet = flow::ipfix::encode_message(flows, 1, 5, flows[0].last);
  packet.resize(flow::ipfix::kMessageHeaderBytes - 1);

  for (int i = 0; i < 2; ++i) {
    const IngestResult result = session.ingest(packet, i * kMs);
    EXPECT_EQ(result.outcome, PacketOutcome::kFailed);
    EXPECT_EQ(result.error, util::DecodeError::kTruncatedHeader) << i;
  }
  EXPECT_TRUE(session.tally().balanced());
}

TEST(ExporterSession, GarbageTripsQuarantineAndBackoffReadmits) {
  SessionConfig config = test_config();
  ExporterSession session(3, config);

  // Feed fatal garbage up to the threshold: the tripping packet reports
  // quarantined_now exactly once.
  std::int64_t now = 0;
  std::uint64_t trips = 0;
  for (std::size_t i = 0; i < config.quarantine_threshold; ++i) {
    now += kMs;
    const IngestResult result = session.ingest(garbage_packet(), now);
    EXPECT_EQ(result.outcome, PacketOutcome::kFailed);
    trips += result.quarantined_now ? 1 : 0;
  }
  EXPECT_EQ(trips, 1u);
  EXPECT_TRUE(session.quarantined());
  EXPECT_EQ(session.quarantine_events(), 1u);
  const std::int64_t readmit_at = session.readmit_at_nanos();
  EXPECT_GT(readmit_at, now);  // a real backoff span, not instant

  // While quarantined, even a valid packet is discarded unexamined.
  const std::vector<flow::FlowRecord> flows = {test_flow(0)};
  const auto good = flow::ipfix::encode_message(flows, 0, 0, flows[0].last);
  const IngestResult held = session.ingest(good, readmit_at - 1);
  EXPECT_EQ(held.outcome, PacketOutcome::kQuarantined);
  EXPECT_TRUE(held.records.empty());
  EXPECT_EQ(session.tally().quarantined, 1u);

  // At the readmission instant the next packet is examined again.
  const IngestResult back = session.ingest(good, readmit_at);
  EXPECT_TRUE(back.readmitted);
  EXPECT_EQ(back.outcome, PacketOutcome::kClean);
  EXPECT_EQ(back.records.size(), 1u);
  EXPECT_FALSE(session.quarantined());
  EXPECT_EQ(session.readmissions(), 1u);
  EXPECT_TRUE(session.tally().balanced());
}

TEST(ExporterSession, RepeatOffenderWaitsLongerEachQuarantine) {
  SessionConfig config = test_config();
  ExporterSession session(4, config);

  std::int64_t now = 0;
  std::vector<std::int64_t> spans;
  for (std::uint64_t round = 1; round <= 3; ++round) {
    // Keep feeding garbage until this round's quarantine trips (the first
    // packet of rounds 2+ readmits the exporter, then the window refills).
    while (session.quarantine_events() < round) {
      now += kMs;
      (void)session.ingest(garbage_packet(), now);
    }
    spans.push_back(session.readmit_at_nanos() - now);
    now = session.readmit_at_nanos();
  }
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(session.quarantine_events(), 3u);
  // Jittered, so not strictly monotone per-pair, but every span lives in
  // the schedule's window and the window ceiling doubles per offense.
  const std::int64_t base =
      config.readmit_backoff.base.total_nanos();
  EXPECT_GE(spans[0], base);
  EXPECT_LE(spans[0], 2 * base);
  EXPECT_GE(spans[1], base);
  EXPECT_LE(spans[1], 4 * base);
  EXPECT_GE(spans[2], base);
  EXPECT_LE(spans[2], 8 * base);
  EXPECT_TRUE(session.tally().balanced());
}

TEST(ExporterSession, QuarantineIsAPureFunctionOfScheduleAndSeed) {
  // Two sessions with the same id/config fed the same schedule transition
  // at the same instants; a different exporter id jitters differently.
  SessionConfig config = test_config();
  ExporterSession a(9, config);
  ExporterSession b(9, config);
  ExporterSession c(10, config);
  std::int64_t now = 0;
  while (!a.quarantined()) {
    now += kMs;
    (void)a.ingest(garbage_packet(), now);
    (void)b.ingest(garbage_packet(), now);
    (void)c.ingest(garbage_packet(), now);
  }
  EXPECT_TRUE(b.quarantined());
  EXPECT_TRUE(c.quarantined());
  EXPECT_EQ(a.readmit_at_nanos(), b.readmit_at_nanos());
  EXPECT_NE(a.readmit_at_nanos(), c.readmit_at_nanos());
}

TEST(ExporterSession, HealthDegradesWithFailuresAndRecoversWithSuccesses) {
  SessionConfig config = test_config();
  config.quarantine_threshold = 1000;  // keep quarantine out of the way
  ExporterSession session(5, config);

  const std::vector<flow::FlowRecord> flows = {test_flow(0)};
  std::int64_t now = 0;
  std::uint32_t sequence = 0;
  for (int i = 0; i < 8; ++i) {
    now += kMs;
    const auto good =
        flow::ipfix::encode_message(flows, 0, sequence++, flows[0].last);
    (void)session.ingest(good, now);
  }
  EXPECT_DOUBLE_EQ(session.health(), 1.0);

  for (int i = 0; i < 8; ++i) {
    now += kMs;
    (void)session.ingest(garbage_packet(), now);
  }
  EXPECT_LT(session.health(), 1.0);
  const double degraded = session.health();

  for (int i = 0; i < 32; ++i) {
    now += kMs;
    const auto good =
        flow::ipfix::encode_message(flows, 0, sequence++, flows[0].last);
    (void)session.ingest(good, now);
  }
  EXPECT_GT(session.health(), degraded);
  EXPECT_DOUBLE_EQ(session.health(), 1.0);  // failures aged out of the window
}

}  // namespace
}  // namespace booterscope::svc
