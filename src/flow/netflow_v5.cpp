#include "flow/netflow_v5.hpp"

#include <algorithm>

#include "util/byteio.hpp"
#include "obs/decode_metrics.hpp"

namespace booterscope::flow {

namespace {

constexpr std::uint16_t kVersion = 5;

/// Millisecond SysUptime offset of `t` relative to `boot`, saturating at 0.
[[nodiscard]] std::uint32_t uptime_ms(util::Timestamp t,
                                      util::Timestamp boot) noexcept {
  const std::int64_t ms = (t - boot).total_millis();
  if (ms < 0) return 0;
  return static_cast<std::uint32_t>(ms);
}

}  // namespace

std::vector<std::uint8_t> encode_netflow_v5(std::span<const FlowRecord> flows,
                                            const NetflowV5ExportConfig& config,
                                            std::uint32_t flow_sequence,
                                            util::Timestamp export_time) {
  const std::size_t count = std::min(flows.size(), kNetflowV5MaxRecords);
  std::vector<std::uint8_t> buffer;
  buffer.reserve(kNetflowV5HeaderBytes + count * kNetflowV5RecordBytes);
  util::ByteWriter w(buffer);

  const std::int64_t export_ns = export_time.nanos();
  w.u16(kVersion);
  w.u16(static_cast<std::uint16_t>(count));
  w.u32(uptime_ms(export_time, config.boot_time));
  w.u32(static_cast<std::uint32_t>(export_ns / 1'000'000'000));
  w.u32(static_cast<std::uint32_t>(export_ns % 1'000'000'000));
  w.u32(flow_sequence);
  w.u8(config.engine_type);
  w.u8(config.engine_id);
  w.u16(config.sampling_interval);

  for (std::size_t i = 0; i < count; ++i) {
    const FlowRecord& f = flows[i];
    w.u32(f.src.value());
    w.u32(f.dst.value());
    w.u32(0);  // nexthop: not modelled
    w.u16(0);  // input ifIndex
    w.u16(0);  // output ifIndex
    w.u32(static_cast<std::uint32_t>(std::min<std::uint64_t>(
        f.packets, 0xffffffffULL)));
    w.u32(static_cast<std::uint32_t>(std::min<std::uint64_t>(
        f.bytes, 0xffffffffULL)));
    w.u32(uptime_ms(f.first, config.boot_time));
    w.u32(uptime_ms(f.last, config.boot_time));
    w.u16(f.src_port);
    w.u16(f.dst_port);
    w.u8(0);  // pad1
    w.u8(0);  // TCP flags: not modelled
    w.u8(static_cast<std::uint8_t>(f.proto));
    w.u8(0);  // ToS
    w.u16(static_cast<std::uint16_t>(f.src_asn.number() & 0xffff));
    w.u16(static_cast<std::uint16_t>(f.dst_asn.number() & 0xffff));
    w.u8(0);  // src mask
    w.u8(0);  // dst mask
    w.u16(0); // pad2
  }
  return buffer;
}

util::Result<NetflowV5Packet> decode_netflow_v5(
    std::span<const std::uint8_t> data, util::Timestamp boot_time) {
  util::ByteReader r(data);
  if (!r.has(kNetflowV5HeaderBytes)) {
    obs::count_decode_failure("netflow_v5", util::DecodeError::kTruncatedHeader);
    return util::DecodeError::kTruncatedHeader;
  }
  const std::uint16_t version = r.u16();
  const std::uint16_t count = r.u16();
  if (version != kVersion) {
    obs::count_decode_failure("netflow_v5", util::DecodeError::kBadVersion);
    return util::DecodeError::kBadVersion;
  }

  NetflowV5Packet packet;
  packet.declared_count = count;
  packet.sys_uptime_ms = r.u32();
  const std::uint32_t unix_secs = r.u32();
  const std::uint32_t unix_nsecs = r.u32();
  packet.export_time = util::Timestamp::from_nanos(
      static_cast<std::int64_t>(unix_secs) * 1'000'000'000 + unix_nsecs);
  packet.flow_sequence = r.u32();
  packet.engine_type = r.u8();
  packet.engine_id = r.u8();
  packet.sampling_interval = r.u16();

  // A count that over-claims (spec caps a PDU at 30 records, and a truncated
  // export ends mid-record) is not fatal: salvage the whole-record prefix
  // and account for the shortfall instead of discarding good records.
  std::uint64_t usable = std::min<std::uint64_t>(count, kNetflowV5MaxRecords);
  usable = std::min(usable, r.max_records(kNetflowV5RecordBytes));
  if (usable < count) {
    packet.damage.note(util::DecodeError::kCountMismatch, count - usable);
  }

  // Sampling interval: low 14 bits carry the 1-in-N rate.
  const std::uint32_t rate = std::max<std::uint32_t>(
      1, packet.sampling_interval & 0x3fff);

  packet.records.reserve(static_cast<std::size_t>(usable));
  for (std::uint64_t i = 0; i < usable; ++i) {
    FlowRecord f;
    f.src = net::Ipv4Addr{r.u32()};
    f.dst = net::Ipv4Addr{r.u32()};
    (void)r.u32();  // nexthop
    (void)r.u16();  // input
    (void)r.u16();  // output
    f.packets = r.u32();
    f.bytes = r.u32();
    const std::uint32_t first_ms = r.u32();
    const std::uint32_t last_ms = r.u32();
    f.first = boot_time + util::Duration::millis(first_ms);
    f.last = boot_time + util::Duration::millis(last_ms);
    f.src_port = r.u16();
    f.dst_port = r.u16();
    (void)r.u8();  // pad1
    (void)r.u8();  // tcp flags
    f.proto = static_cast<net::IpProto>(r.u8());
    (void)r.u8();  // tos
    f.src_asn = net::Asn{r.u16()};
    f.dst_asn = net::Asn{r.u16()};
    (void)r.u8();   // src mask
    (void)r.u8();   // dst mask
    (void)r.u16();  // pad2
    f.sampling_rate = rate;
    if (!r.ok()) {
      // max_records() bounded the loop, so this is unreachable in practice;
      // keep the guard so a logic slip degrades instead of corrupting.
      packet.damage.note(util::DecodeError::kTruncatedRecord, usable - i);
      break;
    }
    packet.records.push_back(f);
  }
  obs::count_decode_damage("netflow_v5", packet.damage);
  return packet;
}

std::optional<std::vector<std::uint8_t>> NetflowV5Exporter::add(
    const FlowRecord& flow, util::Timestamp now) {
  pending_.push_back(flow);
  if (pending_.size() < kNetflowV5MaxRecords) return std::nullopt;
  return flush(now);
}

std::optional<std::vector<std::uint8_t>> NetflowV5Exporter::flush(
    util::Timestamp now) {
  if (pending_.empty()) return std::nullopt;
  auto pdu = encode_netflow_v5(pending_, config_, sequence_, now);
  sequence_ += static_cast<std::uint32_t>(pending_.size());
  pending_.clear();
  return pdu;
}

}  // namespace booterscope::flow
