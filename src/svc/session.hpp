// Per-exporter ingest sessions: decode, dedup, health, quarantine.
//
// Every exporter that sends the daemon a datagram gets its own session —
// its own bounded template cache and sequence-dedup window (one flapping
// router must not evict another's templates), its own IntegrityTally, and
// its own health score. Health is a sliding window over recent packet
// outcomes: when fatal decodes dominate the window, the exporter is
// quarantined — its packets are discarded-but-counted instead of burning
// decode time on garbage — and readmitted after a util::Backoff delay that
// grows with each repeat offense (decorrelated jitter keeps a fleet of
// flapping exporters from re-arriving in lockstep). Every transition is a
// pure function of (seed, exporter, packet contents, fed clock), so a
// replayed ingest schedule quarantines and readmits identically.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <unordered_map>
#include <vector>

#include "fault/fault.hpp"
#include "flow/ipfix.hpp"
#include "flow/record.hpp"
#include "util/backoff.hpp"
#include "util/time.hpp"

namespace booterscope::svc {

struct SessionConfig {
  /// Packet outcomes remembered for health scoring.
  std::size_t health_window = 32;
  /// Fatal decodes within the window that trigger quarantine.
  std::size_t quarantine_threshold = 8;
  /// Readmission delay schedule; attempt n is the exporter's n-th
  /// quarantine, so repeat offenders wait longer.
  util::Backoff::Config readmit_backoff{
      .base = util::Duration::millis(200),
      .cap = util::Duration::seconds(30),
      .multiplier = 2.0};
  /// Jitter seed; each session derives its own stream from (seed, exporter).
  std::uint64_t seed = 0;
  /// Router boot time assumed when decoding NetFlow v5 SysUptime offsets.
  util::Timestamp v5_boot_time;
};

/// What one datagram became.
enum class PacketOutcome : std::uint8_t {
  kClean,        // decoded, no damage
  kRecovered,    // decoded with salvage
  kFailed,       // fatal decode (including duplicates)
  kQuarantined,  // discarded unexamined while the exporter is quarantined
};

struct IngestResult {
  PacketOutcome outcome = PacketOutcome::kFailed;
  util::DecodeError error = util::DecodeError::kIo;  // when kFailed
  /// Decoded rows; empty unless kClean/kRecovered.
  flow::FlowList records;
  /// Vantage slot the exporter maps to (observation domain / engine id
  /// modulo kVantageCount).
  std::size_t vantage = 0;
  /// True when this packet readmitted a quarantined exporter.
  bool readmitted = false;
  /// True when this packet's outcome tripped quarantine.
  bool quarantined_now = false;
};

class ExporterSession {
 public:
  ExporterSession(std::uint64_t exporter_id, const SessionConfig& config);

  /// Decodes one datagram at `now_nanos` (caller-fed clock). Updates the
  /// session tally, health window and quarantine state.
  [[nodiscard]] IngestResult ingest(std::span<const std::uint8_t> bytes,
                                    std::int64_t now_nanos);

  [[nodiscard]] std::uint64_t exporter_id() const noexcept { return id_; }
  [[nodiscard]] const fault::IntegrityTally& tally() const noexcept {
    return tally_;
  }
  [[nodiscard]] bool quarantined() const noexcept { return quarantined_; }
  /// Times this exporter entered quarantine.
  [[nodiscard]] std::uint64_t quarantine_events() const noexcept {
    return quarantine_events_;
  }
  [[nodiscard]] std::uint64_t readmissions() const noexcept {
    return readmissions_;
  }
  /// Earliest instant a quarantined exporter's next packet is examined.
  [[nodiscard]] std::int64_t readmit_at_nanos() const noexcept {
    return readmit_at_nanos_;
  }
  /// 1.0 = no recent failures; 0.0 = the whole window failed.
  [[nodiscard]] double health() const noexcept;

 private:
  [[nodiscard]] IngestResult decode(std::span<const std::uint8_t> bytes);
  void note_outcome(bool failed, std::int64_t now_nanos, IngestResult& result);

  std::uint64_t id_;
  SessionConfig config_;
  util::Backoff backoff_;
  flow::ipfix::MessageDecoder ipfix_;
  /// Recent export sequences: one window for the exporter's v5 stream, one
  /// per IPFIX observation domain.
  std::deque<std::uint32_t> v5_recent_sequences_;
  std::unordered_map<std::uint32_t, std::deque<std::uint32_t>>
      ipfix_recent_sequences_;
  std::deque<bool> window_;  // true = fatal decode
  std::size_t window_failures_ = 0;
  bool quarantined_ = false;
  std::int64_t readmit_at_nanos_ = 0;
  std::uint64_t quarantine_events_ = 0;
  std::uint64_t readmissions_ = 0;
  fault::IntegrityTally tally_;
};

}  // namespace booterscope::svc
