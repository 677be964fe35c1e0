#include "flow/ipfix.hpp"

#include <utility>

#include "util/byteio.hpp"
#include "obs/decode_metrics.hpp"

namespace booterscope::flow::ipfix {

namespace {

[[nodiscard]] std::uint64_t read_uint(util::ByteReader& r,
                                      std::uint16_t length) noexcept {
  // IPFIX encodes unsigned integers big-endian with reduced-size encoding.
  std::uint64_t value = 0;
  for (std::uint16_t i = 0; i < length; ++i) {
    value = (value << 8) | r.u8();
  }
  return value;
}

void write_uint(util::ByteWriter& w, std::uint64_t value, std::uint16_t length) {
  for (int shift = (length - 1) * 8; shift >= 0; shift -= 8) {
    w.u8(static_cast<std::uint8_t>(value >> shift));
  }
}

[[nodiscard]] std::uint64_t field_value(const FlowRecord& f, std::uint16_t ie_id) {
  switch (static_cast<Ie>(ie_id)) {
    case Ie::kOctetDeltaCount: return f.bytes;
    case Ie::kPacketDeltaCount: return f.packets;
    case Ie::kProtocolIdentifier: return static_cast<std::uint64_t>(f.proto);
    case Ie::kSourceTransportPort: return f.src_port;
    case Ie::kSourceIpv4Address: return f.src.value();
    case Ie::kDestinationTransportPort: return f.dst_port;
    case Ie::kDestinationIpv4Address: return f.dst.value();
    case Ie::kBgpSourceAsNumber: return f.src_asn.number();
    case Ie::kBgpDestinationAsNumber: return f.dst_asn.number();
    case Ie::kFlowDirection:
      return f.direction == Direction::kIngress ? 0 : 1;
    case Ie::kBgpNextAdjacentAsNumber: return f.peer_asn.number();
    case Ie::kFlowStartMilliseconds:
      return static_cast<std::uint64_t>(f.first.millis());
    case Ie::kFlowEndMilliseconds:
      return static_cast<std::uint64_t>(f.last.millis());
    case Ie::kSamplingPacketInterval: return f.sampling_rate;
  }
  return 0;
}

void apply_field(FlowRecord& f, std::uint16_t ie_id, std::uint64_t value) {
  switch (static_cast<Ie>(ie_id)) {
    case Ie::kOctetDeltaCount: f.bytes = value; break;
    case Ie::kPacketDeltaCount: f.packets = value; break;
    case Ie::kProtocolIdentifier:
      f.proto = static_cast<net::IpProto>(value);
      break;
    case Ie::kSourceTransportPort:
      f.src_port = static_cast<std::uint16_t>(value);
      break;
    case Ie::kSourceIpv4Address:
      f.src = net::Ipv4Addr{static_cast<std::uint32_t>(value)};
      break;
    case Ie::kDestinationTransportPort:
      f.dst_port = static_cast<std::uint16_t>(value);
      break;
    case Ie::kDestinationIpv4Address:
      f.dst = net::Ipv4Addr{static_cast<std::uint32_t>(value)};
      break;
    case Ie::kBgpSourceAsNumber:
      f.src_asn = net::Asn{static_cast<std::uint32_t>(value)};
      break;
    case Ie::kBgpDestinationAsNumber:
      f.dst_asn = net::Asn{static_cast<std::uint32_t>(value)};
      break;
    case Ie::kFlowDirection:
      f.direction = value == 0 ? Direction::kIngress : Direction::kEgress;
      break;
    case Ie::kBgpNextAdjacentAsNumber:
      f.peer_asn = net::Asn{static_cast<std::uint32_t>(value)};
      break;
    case Ie::kFlowStartMilliseconds:
      f.first = util::Timestamp::from_nanos(
          static_cast<std::int64_t>(value) * 1'000'000);
      break;
    case Ie::kFlowEndMilliseconds:
      f.last = util::Timestamp::from_nanos(
          static_cast<std::int64_t>(value) * 1'000'000);
      break;
    case Ie::kSamplingPacketInterval:
      f.sampling_rate = static_cast<std::uint32_t>(value);
      break;
  }
}

}  // namespace

const Template& canonical_template() {
  static const Template kTemplate{
      kFirstDataSetId,
      {
          {static_cast<std::uint16_t>(Ie::kSourceIpv4Address), 4},
          {static_cast<std::uint16_t>(Ie::kDestinationIpv4Address), 4},
          {static_cast<std::uint16_t>(Ie::kSourceTransportPort), 2},
          {static_cast<std::uint16_t>(Ie::kDestinationTransportPort), 2},
          {static_cast<std::uint16_t>(Ie::kProtocolIdentifier), 1},
          {static_cast<std::uint16_t>(Ie::kPacketDeltaCount), 8},
          {static_cast<std::uint16_t>(Ie::kOctetDeltaCount), 8},
          {static_cast<std::uint16_t>(Ie::kFlowStartMilliseconds), 8},
          {static_cast<std::uint16_t>(Ie::kFlowEndMilliseconds), 8},
          {static_cast<std::uint16_t>(Ie::kBgpSourceAsNumber), 4},
          {static_cast<std::uint16_t>(Ie::kBgpDestinationAsNumber), 4},
          {static_cast<std::uint16_t>(Ie::kBgpNextAdjacentAsNumber), 4},
          {static_cast<std::uint16_t>(Ie::kFlowDirection), 1},
          {static_cast<std::uint16_t>(Ie::kSamplingPacketInterval), 4},
      }};
  return kTemplate;
}

std::vector<std::uint8_t> encode_message(std::span<const FlowRecord> flows,
                                         std::uint32_t observation_domain,
                                         std::uint32_t sequence,
                                         util::Timestamp export_time) {
  const Template& tmpl = canonical_template();
  std::vector<std::uint8_t> buffer;
  util::ByteWriter w(buffer);

  // Message header; length patched at the end.
  w.u16(kIpfixVersion);
  const std::size_t length_offset = buffer.size();
  w.u16(0);
  w.u32(static_cast<std::uint32_t>(export_time.seconds()));
  w.u32(sequence);
  w.u32(observation_domain);

  // Template set.
  const std::size_t template_set_offset = buffer.size();
  w.u16(kTemplateSetId);
  w.u16(0);  // patched
  w.u16(tmpl.id);
  w.u16(static_cast<std::uint16_t>(tmpl.fields.size()));
  for (const auto& field : tmpl.fields) {
    w.u16(field.ie_id);
    w.u16(field.length);
  }
  w.patch_u16(template_set_offset + 2,
              static_cast<std::uint16_t>(buffer.size() - template_set_offset));

  // Data set.
  if (!flows.empty()) {
    const std::size_t data_set_offset = buffer.size();
    w.u16(tmpl.id);
    w.u16(0);  // patched
    for (const FlowRecord& f : flows) {
      for (const auto& field : tmpl.fields) {
        write_uint(w, field_value(f, field.ie_id), field.length);
      }
    }
    w.patch_u16(data_set_offset + 2,
                static_cast<std::uint16_t>(buffer.size() - data_set_offset));
  }

  w.patch_u16(length_offset, static_cast<std::uint16_t>(buffer.size()));
  return buffer;
}

void MessageDecoder::cache_template(const TemplateKey& key, Template tmpl) {
  const auto it = templates_.find(key);
  if (it != templates_.end()) {
    it->second = std::move(tmpl);  // refresh in place, keep FIFO position
    return;
  }
  while (max_templates_ > 0 && templates_.size() >= max_templates_ &&
         !template_order_.empty()) {
    templates_.erase(template_order_.front());
    template_order_.pop_front();
    ++templates_evicted_;
    obs::metrics()
        .counter("booterscope_decode_template_evictions_total",
                 {{"codec", "ipfix"}})
        .inc();
  }
  templates_.emplace(key, std::move(tmpl));
  template_order_.push_back(key);
}

util::Result<MessageDecoder::Message> MessageDecoder::decode(
    std::span<const std::uint8_t> data) {
  util::ByteReader r(data);
  if (!r.has(kMessageHeaderBytes)) {
    obs::count_decode_failure("ipfix", util::DecodeError::kTruncatedHeader);
    return util::DecodeError::kTruncatedHeader;
  }
  const std::uint16_t version = r.u16();
  const std::uint16_t message_length = r.u16();
  if (version != kIpfixVersion) {
    obs::count_decode_failure("ipfix", util::DecodeError::kBadVersion);
    return util::DecodeError::kBadVersion;
  }
  if (message_length < kMessageHeaderBytes) {
    // A length smaller than the header it was read from: unusable framing.
    obs::count_decode_failure("ipfix", util::DecodeError::kLengthOverflow);
    return util::DecodeError::kLengthOverflow;
  }

  Message result;
  result.export_time = util::Timestamp::from_seconds(r.u32());
  result.sequence = r.u32();
  result.observation_domain = r.u32();

  // A message that declares more bytes than the buffer holds was truncated
  // in flight: clamp and salvage the whole sets/records that did arrive.
  std::size_t effective_end = message_length;
  if (message_length > data.size()) {
    result.damage.note(util::DecodeError::kLengthOverflow);
    effective_end = data.size();
  }

  bool stopped_early = false;
  while (r.ok() && r.position() + 4 <= effective_end) {
    const std::uint16_t set_id = r.u16();
    const std::uint16_t set_length = r.u16();
    if (set_length < 4) {
      // No usable length means no next-set boundary: keep what we have.
      result.damage.note(util::DecodeError::kBadSetLength);
      stopped_early = true;
      break;
    }
    std::size_t set_end = r.position() + set_length - 4;
    bool clamped = false;
    if (set_end > effective_end) {
      result.damage.note(util::DecodeError::kLengthOverflow);
      set_end = effective_end;
      clamped = true;
    }

    if (set_id == kTemplateSetId) {
      // One or more template records.
      while (r.ok() && r.position() + 4 <= set_end) {
        Template tmpl;
        tmpl.id = r.u16();
        const std::uint16_t field_count = r.u16();
        bool tmpl_ok = tmpl.id >= kFirstDataSetId && field_count > 0;
        tmpl.fields.reserve(field_count);
        for (std::uint16_t i = 0; r.ok() && i < field_count; ++i) {
          TemplateField field;
          field.ie_id = r.u16();
          field.length = r.u16();
          if (field.length == 0 || field.length > 8) {
            tmpl_ok = false;  // keep consuming fields to stay aligned
            continue;
          }
          tmpl.fields.push_back(field);
        }
        if (!r.ok()) break;  // truncated template, handled below
        if (!tmpl_ok || tmpl.record_bytes() == 0) {
          // Malformed definition: drop it, resync at the next template.
          result.damage.note(util::DecodeError::kBadTemplate);
          ++result.damage.resyncs;
          continue;
        }
        cache_template(TemplateKey{result.observation_domain, tmpl.id},
                       std::move(tmpl));
        ++result.templates_seen;
      }
      if (!r.ok() || !r.skip(set_end - r.position())) {
        result.damage.note(util::DecodeError::kTruncatedRecord);
        stopped_early = true;
        break;
      }
    } else if (set_id >= kFirstDataSetId) {
      const auto it =
          templates_.find(TemplateKey{result.observation_domain, set_id});
      if (it == templates_.end()) {
        // Late or lost template: skip the whole set, resync after it.
        ++result.skipped_sets;
        result.damage.note(util::DecodeError::kUnknownTemplate);
        ++result.damage.resyncs;
        if (!r.skip(set_end - r.position())) {
          result.damage.note(util::DecodeError::kTruncatedRecord);
          stopped_early = true;
          break;
        }
      } else {
        const Template& tmpl = it->second;
        const std::size_t record_bytes = tmpl.record_bytes();
        if (record_bytes == 0) {
          // cache_template() refuses zero-width templates, so this is
          // unreachable; the guard keeps a logic slip from looping forever.
          result.damage.note(util::DecodeError::kBadTemplate);
          if (!r.skip(set_end - r.position())) {
            stopped_early = true;
            break;
          }
          continue;
        }
        while (r.ok() && set_end - r.position() >= record_bytes) {
          FlowRecord f;
          for (const auto& field : tmpl.fields) {
            apply_field(f, field.ie_id, read_uint(r, field.length));
          }
          if (!r.ok()) {
            result.damage.note(util::DecodeError::kTruncatedRecord, 1);
            stopped_early = true;
            break;
          }
          result.records.push_back(f);
        }
        if (stopped_early) break;
        if (clamped && set_end > r.position()) {
          // Leftover bytes of a clamped set are a cut-off record, not the
          // RFC 7011 §3.3.1 padding they would be in an intact set.
          result.damage.note(util::DecodeError::kTruncatedRecord, 1);
        }
        if (!r.skip(set_end - r.position())) {
          result.damage.note(util::DecodeError::kTruncatedRecord);
          stopped_early = true;
          break;
        }
      }
    } else {
      // Options templates (id 3) and reserved sets: skip.
      ++result.skipped_sets;
      result.damage.note(util::DecodeError::kUnknownTemplate);
      if (!r.skip(set_end - r.position())) {
        result.damage.note(util::DecodeError::kTruncatedRecord);
        stopped_early = true;
        break;
      }
    }
  }
  (void)stopped_early;
  obs::count_decode_damage("ipfix", result.damage);
  return result;
}

}  // namespace booterscope::flow::ipfix
