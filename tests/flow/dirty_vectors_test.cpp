// Golden dirty-telemetry vectors: hand-mangled NetFlow v5, IPFIX, pcap
// and BSF1 inputs, plus replays through an exporter session, one family per defect class. Each scenario is a
// plain function so the aggregate check can re-run every vector in one
// process (ctest runs each TEST in isolation) and assert the suite
// exercises every DecodeError variant at least once — a new variant cannot
// be added without a vector that triggers it.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "flow/ipfix.hpp"
#include "flow/netflow_v5.hpp"
#include "flow/store.hpp"
#include "pcap/pcap_file.hpp"
#include "svc/session.hpp"
#include "util/byteio.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"

namespace booterscope {
namespace {

using util::DecodeError;
using util::Duration;
using util::Timestamp;

const Timestamp kBoot = Timestamp::parse("2018-12-01").value();

using ErrorSet = std::set<DecodeError>;

void note_damage(ErrorSet& seen, const util::DecodeDamage& damage) {
  for (DecodeError error : util::all_decode_errors()) {
    if (damage.count(error) > 0) seen.insert(error);
  }
}

flow::FlowRecord sample_flow(util::Rng& rng) {
  flow::FlowRecord f;
  f.src = net::Ipv4Addr{static_cast<std::uint32_t>(rng())};
  f.dst = net::Ipv4Addr{static_cast<std::uint32_t>(rng())};
  f.src_port = static_cast<std::uint16_t>(rng.bounded(65536));
  f.dst_port = 123;
  f.proto = net::IpProto::kUdp;
  f.packets = rng.bounded(10'000) + 1;
  f.bytes = f.packets * 468;
  f.first = kBoot + Duration::millis(static_cast<std::int64_t>(rng.bounded(60'000)));
  f.last = f.first + Duration::seconds(5);
  return f;
}

std::vector<std::uint8_t> v5_pdu(int flows_count, util::Rng& rng) {
  flow::NetflowV5ExportConfig config;
  config.boot_time = kBoot;
  flow::FlowList flows;
  for (int i = 0; i < flows_count; ++i) flows.push_back(sample_flow(rng));
  return flow::encode_netflow_v5(flows, config, 1, kBoot + Duration::hours(1));
}

std::vector<std::uint8_t> ipfix_message(int flows_count, util::Rng& rng,
                                        std::uint32_t sequence = 0) {
  flow::FlowList flows;
  for (int i = 0; i < flows_count; ++i) flows.push_back(sample_flow(rng));
  return flow::ipfix::encode_message(flows, 7, sequence,
                                     kBoot + Duration::hours(1));
}

void run_truncated_headers(ErrorSet& seen) {
  util::Rng rng(1);
  auto v5 = v5_pdu(1, rng);
  v5.resize(23);
  const auto v5_result = flow::decode_netflow_v5(v5, kBoot);
  ASSERT_FALSE(v5_result.has_value());
  EXPECT_EQ(v5_result.error(), DecodeError::kTruncatedHeader);
  seen.insert(v5_result.error());

  auto ipfix = ipfix_message(1, rng);
  ipfix.resize(15);
  flow::ipfix::MessageDecoder ipfix_decoder;
  const auto ipfix_result = ipfix_decoder.decode(ipfix);
  ASSERT_FALSE(ipfix_result.has_value());
  EXPECT_EQ(ipfix_result.error(), DecodeError::kTruncatedHeader);

  const std::vector<std::uint8_t> stub{0x42, 0x53};
  const auto store_result = flow::deserialize_flows(stub);
  ASSERT_FALSE(store_result.has_value());
  EXPECT_EQ(store_result.error(), DecodeError::kTruncatedHeader);
}

void run_wrong_versions(ErrorSet& seen) {
  util::Rng rng(2);
  auto v5 = v5_pdu(1, rng);
  v5[1] = 9;
  const auto v5_result = flow::decode_netflow_v5(v5, kBoot);
  ASSERT_FALSE(v5_result.has_value());
  EXPECT_EQ(v5_result.error(), DecodeError::kBadVersion);
  seen.insert(v5_result.error());

  auto ipfix = ipfix_message(1, rng);
  ipfix[1] = 9;  // NetFlow v9 framed as IPFIX
  flow::ipfix::MessageDecoder decoder;
  const auto ipfix_result = decoder.decode(ipfix);
  ASSERT_FALSE(ipfix_result.has_value());
  EXPECT_EQ(ipfix_result.error(), DecodeError::kBadVersion);
}

void run_bad_magic(ErrorSet& seen) {
  auto pcap_bytes = pcap::encode_pcap({});
  pcap_bytes[0] = 0xde;
  const auto pcap_result = pcap::decode_pcap(pcap_bytes);
  ASSERT_FALSE(pcap_result.has_value());
  EXPECT_EQ(pcap_result.error(), DecodeError::kBadMagic);
  seen.insert(pcap_result.error());

  auto store_bytes = flow::serialize_flows({});
  store_bytes[0] = 0x00;
  const auto store_result = flow::deserialize_flows(store_bytes);
  ASSERT_FALSE(store_result.has_value());
  EXPECT_EQ(store_result.error(), DecodeError::kBadMagic);
}

void run_v5_count_overclaim(ErrorSet& seen) {
  util::Rng rng(4);
  auto pdu = v5_pdu(2, rng);
  pdu[3] = 7;  // claims 7 records; only 2 on the wire
  const auto result = flow::decode_netflow_v5(pdu, kBoot);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->records.size(), 2u);
  EXPECT_EQ(result->declared_count, 7u);
  EXPECT_EQ(result->damage.count(DecodeError::kCountMismatch), 1u);
  EXPECT_EQ(result->damage.records_skipped, 5u);
  note_damage(seen, result->damage);
}

void run_ipfix_unknown_template(ErrorSet& seen) {
  util::Rng rng(6);
  const auto message = ipfix_message(1, rng);
  // Strip the template set; the data set's template was never announced.
  const std::size_t template_length =
      (static_cast<std::size_t>(message[18]) << 8) | message[19];
  std::vector<std::uint8_t> data_only(
      message.begin(), message.begin() + flow::ipfix::kMessageHeaderBytes);
  data_only.insert(data_only.end(),
                   message.begin() + static_cast<std::ptrdiff_t>(
                                         flow::ipfix::kMessageHeaderBytes +
                                         template_length),
                   message.end());
  util::ByteWriter(data_only).patch_u16(
      2, static_cast<std::uint16_t>(data_only.size()));
  flow::ipfix::MessageDecoder decoder;
  const auto result = decoder.decode(data_only);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->records.empty());
  EXPECT_EQ(result->skipped_sets, 1u);
  EXPECT_GT(result->damage.count(DecodeError::kUnknownTemplate), 0u);
  note_damage(seen, result->damage);
}

void run_ipfix_truncation(ErrorSet& seen) {
  util::Rng rng(7);
  auto message = ipfix_message(1, rng);
  message.resize(message.size() - 4);
  flow::ipfix::MessageDecoder decoder;
  const auto result = decoder.decode(message);
  ASSERT_TRUE(result.has_value());
  EXPECT_GT(result->damage.count(DecodeError::kLengthOverflow), 0u);
  EXPECT_GT(result->damage.count(DecodeError::kTruncatedRecord), 0u);
  note_damage(seen, result->damage);
}

void run_ipfix_bad_sets(ErrorSet& seen) {
  util::Rng rng(5);
  std::vector<std::uint8_t> bytes;
  util::ByteWriter w(bytes);
  w.u16(flow::ipfix::kIpfixVersion);
  const std::size_t length_offset = bytes.size();
  w.u16(0);
  w.u32(static_cast<std::uint32_t>(kBoot.seconds()));
  w.u32(0);  // sequence
  w.u32(7);  // observation domain
  w.u16(flow::ipfix::kTemplateSetId);
  w.u16(3);  // set length < 4
  w.patch_u16(length_offset, static_cast<std::uint16_t>(bytes.size()));
  flow::ipfix::MessageDecoder decoder;
  const auto short_set = decoder.decode(bytes);
  ASSERT_TRUE(short_set.has_value());
  EXPECT_GT(short_set->damage.count(DecodeError::kBadSetLength), 0u);
  note_damage(seen, short_set->damage);

  // Template advertising a reserved id (< 256) is rejected as malformed.
  std::vector<std::uint8_t> bad_template;
  util::ByteWriter w2(bad_template);
  w2.u16(flow::ipfix::kIpfixVersion);
  const std::size_t length_offset2 = bad_template.size();
  w2.u16(0);
  w2.u32(static_cast<std::uint32_t>(kBoot.seconds()));
  w2.u32(0);
  w2.u32(7);
  w2.u16(flow::ipfix::kTemplateSetId);
  w2.u16(12);   // set header + template header + one field
  w2.u16(100);  // reserved template id
  w2.u16(1);
  w2.u16(8);    // field type
  w2.u16(4);    // field length
  w2.patch_u16(length_offset2, static_cast<std::uint16_t>(bad_template.size()));
  const auto bad = decoder.decode(bad_template);
  ASSERT_TRUE(bad.has_value());
  EXPECT_GT(bad->damage.count(DecodeError::kBadTemplate), 0u);
  note_damage(seen, bad->damage);

  // The decoder resyncs: a valid message through it decodes cleanly.
  const auto good = decoder.decode(ipfix_message(3, rng));
  ASSERT_TRUE(good.has_value());
  EXPECT_EQ(good->records.size(), 3u);
  EXPECT_TRUE(good->damage.clean());
}

void run_sequence_dedup(ErrorSet& seen) {
  util::Rng rng(8);
  const auto ipfix = ipfix_message(1, rng, 99);

  // A bare decoder accepts replays (stateless replay tooling relies on it).
  flow::ipfix::MessageDecoder decoder;
  EXPECT_TRUE(decoder.decode(ipfix).has_value());
  EXPECT_TRUE(decoder.decode(ipfix).has_value());

  // An exporter session rejects the re-delivered message.
  svc::SessionConfig config;
  config.v5_boot_time = kBoot;
  svc::ExporterSession session(0, config);
  EXPECT_EQ(session.ingest(ipfix, 0).outcome, svc::PacketOutcome::kClean);
  const svc::IngestResult dup = session.ingest(ipfix, 1);
  EXPECT_EQ(dup.outcome, svc::PacketOutcome::kFailed);
  EXPECT_EQ(dup.error, DecodeError::kDuplicateSequence);
  EXPECT_EQ(session.tally().failed, 1u);
  seen.insert(dup.error);

  const auto v5 = v5_pdu(1, rng);
  EXPECT_EQ(session.ingest(v5, 2).outcome, svc::PacketOutcome::kClean);
  EXPECT_EQ(session.ingest(v5, 3).error, DecodeError::kDuplicateSequence);
  EXPECT_TRUE(session.tally().balanced());
}

void run_bounded_template_cache() {
  util::Rng rng(9);
  flow::ipfix::MessageDecoder decoder(/*max_templates=*/2);
  for (std::uint32_t domain = 0; domain < 4; ++domain) {
    const flow::FlowList flows = {sample_flow(rng)};
    ASSERT_TRUE(decoder
                    .decode(flow::ipfix::encode_message(flows, domain, 0, kBoot))
                    .has_value());
  }
  EXPECT_LE(decoder.cached_template_count(), 2u);
  EXPECT_EQ(decoder.templates_evicted(), 2u);
}

void run_store_io_failure(ErrorSet& seen) {
  const auto result =
      flow::read_flow_file("/nonexistent/booterscope/flows.bsf");
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error(), DecodeError::kIo);
  seen.insert(result.error());
}

void run_pcap_truncation(ErrorSet& seen) {
  std::vector<pcap::Packet> packets(2);
  packets[0].time = kBoot;
  packets[0].src_ip = net::Ipv4Addr{192, 0, 2, 1};
  packets[0].dst_ip = net::Ipv4Addr{203, 0, 113, 7};
  packets[1] = packets[0];
  packets[1].time = kBoot + Duration::seconds(1);
  auto bytes = pcap::encode_pcap(packets);
  bytes.resize(bytes.size() - 3);
  const auto result = pcap::decode_pcap(bytes);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->packets.size(), 1u);
  EXPECT_GT(result->damage.count(DecodeError::kTruncatedRecord), 0u);
  note_damage(seen, result->damage);
}

TEST(DirtyVectors, TruncatedHeadersAreFatal) {
  ErrorSet seen;
  run_truncated_headers(seen);
}
TEST(DirtyVectors, WrongVersionsAreFatal) {
  ErrorSet seen;
  run_wrong_versions(seen);
}
TEST(DirtyVectors, BadMagicIsFatal) {
  ErrorSet seen;
  run_bad_magic(seen);
}
TEST(DirtyVectors, V5CountOverclaimSalvagesPrefix) {
  ErrorSet seen;
  run_v5_count_overclaim(seen);
}
TEST(DirtyVectors, IpfixUnknownTemplateSkipsData) {
  ErrorSet seen;
  run_ipfix_unknown_template(seen);
}
TEST(DirtyVectors, IpfixTruncationYieldsOverflowAndTruncatedRecord) {
  ErrorSet seen;
  run_ipfix_truncation(seen);
}
TEST(DirtyVectors, IpfixBadSetLengthAndBadTemplate) {
  ErrorSet seen;
  run_ipfix_bad_sets(seen);
}
TEST(DirtyVectors, SequenceDedupIsOptIn) {
  ErrorSet seen;
  run_sequence_dedup(seen);
}
TEST(DirtyVectors, TemplateCacheIsBounded) { run_bounded_template_cache(); }
TEST(DirtyVectors, StoreIoFailureIsReported) {
  ErrorSet seen;
  run_store_io_failure(seen);
}
TEST(DirtyVectors, PcapTruncationSalvagesPrefix) {
  ErrorSet seen;
  run_pcap_truncation(seen);
}

TEST(DirtyVectors, EveryDecodeErrorVariantExercised) {
  ErrorSet seen;
  run_truncated_headers(seen);
  run_wrong_versions(seen);
  run_bad_magic(seen);
  run_v5_count_overclaim(seen);
  run_ipfix_unknown_template(seen);
  run_ipfix_truncation(seen);
  run_ipfix_bad_sets(seen);
  run_sequence_dedup(seen);
  run_store_io_failure(seen);
  run_pcap_truncation(seen);
  for (DecodeError error : util::all_decode_errors()) {
    EXPECT_TRUE(seen.contains(error))
        << "no dirty vector triggers " << util::to_string(error);
  }
}

}  // namespace
}  // namespace booterscope
