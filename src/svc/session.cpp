#include "svc/session.hpp"

#include <algorithm>
#include <string_view>
#include <utility>

#include "flow/batch.hpp"
#include "flow/netflow_v5.hpp"
#include "obs/decode_metrics.hpp"
#include "util/byteio.hpp"
#include "util/rng.hpp"

namespace booterscope::svc {

namespace {

/// Template cache bound of each session's IPFIX decoder: a flapping
/// exporter must not grow the daemon's memory with fresh template ids.
constexpr std::size_t kMaxTemplates = 64;
/// Recent export sequences remembered per stream for dedup; a live UDP
/// path re-delivers.
constexpr std::size_t kDedupWindow = 64;

/// True when `sequence` is in the recent window; otherwise records it,
/// evicting the oldest entry beyond kDedupWindow.
[[nodiscard]] bool seen(std::deque<std::uint32_t>& recent,
                        std::uint32_t sequence) {
  if (std::find(recent.begin(), recent.end(), sequence) != recent.end()) {
    return true;
  }
  recent.push_back(sequence);
  if (recent.size() > kDedupWindow) recent.pop_front();
  return false;
}

[[nodiscard]] IngestResult duplicate(std::string_view codec) {
  obs::count_decode_failure(codec, util::DecodeError::kDuplicateSequence);
  IngestResult result;
  result.outcome = PacketOutcome::kFailed;
  result.error = util::DecodeError::kDuplicateSequence;
  return result;
}

/// Mixes the exporter id into the service seed so each session draws an
/// independent jitter stream from the same configured seed.
[[nodiscard]] std::uint64_t session_seed(std::uint64_t seed,
                                         std::uint64_t exporter) noexcept {
  std::uint64_t state = seed ^ (exporter * 0x9e3779b97f4a7c15ULL);
  return util::splitmix64(state);
}

}  // namespace

ExporterSession::ExporterSession(std::uint64_t exporter_id,
                                 const SessionConfig& config)
    : id_(exporter_id),
      config_(config),
      backoff_(session_seed(config.seed, exporter_id), "svc-readmit",
               config.readmit_backoff),
      ipfix_(kMaxTemplates) {}

double ExporterSession::health() const noexcept {
  if (window_.empty()) return 1.0;
  return 1.0 - static_cast<double>(window_failures_) /
                   static_cast<double>(window_.size());
}

IngestResult ExporterSession::ingest(std::span<const std::uint8_t> bytes,
                                     std::int64_t now_nanos) {
  ++tally_.offered;
  bool readmitted_now = false;
  if (quarantined_) {
    if (now_nanos < readmit_at_nanos_) {
      ++tally_.quarantined;
      IngestResult result;
      result.outcome = PacketOutcome::kQuarantined;
      return result;
    }
    // Probation: the exporter is examined again with a clean window, so
    // one good packet is not immediately outvoted by pre-quarantine junk.
    quarantined_ = false;
    ++readmissions_;
    readmitted_now = true;
    window_.clear();
    window_failures_ = 0;
  }

  IngestResult result = decode(bytes);
  result.readmitted = readmitted_now;
  const bool failed = result.outcome == PacketOutcome::kFailed;
  if (failed) {
    tally_.note_decode_failure(result.error);
  } else if (result.outcome == PacketOutcome::kClean) {
    ++tally_.decoded_clean;
  } else {
    ++tally_.recovered;
  }
  note_outcome(failed, now_nanos, result);
  return result;
}

IngestResult ExporterSession::decode(std::span<const std::uint8_t> bytes) {
  IngestResult result;
  util::ByteReader header(bytes);
  const std::uint16_t version = header.u16();  // 0 when under 2 bytes
  if (version == 5) {
    // flow_sequence sits at bytes 16-19 of the v5 header.
    if (bytes.size() >= 20 && header.skip(14) &&
        seen(v5_recent_sequences_, header.u32())) {
      return duplicate("netflow_v5");
    }
    auto packet = flow::decode_netflow_v5(bytes, config_.v5_boot_time);
    if (!packet) {
      result.outcome = PacketOutcome::kFailed;
      result.error = packet.error();
      return result;
    }
    result.outcome = packet->damage.clean() ? PacketOutcome::kClean
                                            : PacketOutcome::kRecovered;
    result.records = std::move(packet->records);
    result.vantage = packet->engine_id % flow::kVantageCount;
    tally_.records_skipped += packet->damage.records_skipped;
    return result;
  }

  // IPFIX sequences are deduplicated per observation domain, and only on
  // a header the decoder accepts: a truncated header, a wrong version or a
  // length below the header stays the decoder's fatal error, never a
  // duplicate.
  const std::uint16_t length = header.u16();
  (void)header.skip(4);  // export time
  const std::uint32_t sequence = header.u32();
  const std::uint32_t domain = header.u32();
  if (header.ok() && version == flow::ipfix::kIpfixVersion &&
      length >= flow::ipfix::kMessageHeaderBytes &&
      seen(ipfix_recent_sequences_[domain], sequence)) {
    return duplicate("ipfix");
  }
  auto message = ipfix_.decode(bytes);
  if (!message) {
    result.outcome = PacketOutcome::kFailed;
    result.error = message.error();
    return result;
  }
  result.outcome = message->damage.clean() ? PacketOutcome::kClean
                                           : PacketOutcome::kRecovered;
  result.records = std::move(message->records);
  result.vantage = message->observation_domain % flow::kVantageCount;
  tally_.records_skipped += message->damage.records_skipped;
  return result;
}

void ExporterSession::note_outcome(bool failed, std::int64_t now_nanos,
                                   IngestResult& result) {
  window_.push_back(failed);
  if (failed) ++window_failures_;
  while (window_.size() > config_.health_window) {
    if (window_.front()) --window_failures_;
    window_.pop_front();
  }
  if (!quarantined_ && window_failures_ >= config_.quarantine_threshold) {
    quarantined_ = true;
    result.quarantined_now = true;
    const util::Duration delay = backoff_.delay(quarantine_events_);
    ++quarantine_events_;
    readmit_at_nanos_ = now_nanos + delay.total_nanos();
  }
}

}  // namespace booterscope::svc
