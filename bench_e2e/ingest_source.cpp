#include "ingest_source.hpp"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "flow/ipfix.hpp"
#include "flow/netflow_v5.hpp"
#include "svc/session.hpp"

namespace booterscope::e2e {

namespace {

constexpr std::size_t kFlowsPerPacket = 30;

/// Four more undecodable datagrams than it takes to trip quarantine, and
/// still inside one health window, so every burst trips it.
const std::size_t kFlapBurst = svc::SessionConfig{}.quarantine_threshold + 4;

/// An IPFIX version field on a datagram shorter than the IPFIX header: a
/// fatal decode for every session that receives it.
const std::vector<std::uint8_t> kGarbage = {0x00, 0x0a, 0x00, 0x08,
                                            0xde, 0xad, 0xbe, 0xef};

}  // namespace

/// One exporter: encodes its vantage's rows and, when faulted, mangles its
/// packets through its own channel.
struct ScheduleBuilder::Exporter {
  std::uint64_t id = 0;
  bool ipfix = false;
  std::uint32_t sequence = 0;  // IPFIX message sequence
  std::optional<flow::NetflowV5Exporter> v5;
  flow::FlowList pending;      // IPFIX rows awaiting a message
  std::optional<fault::PacketChannel> channel;

  Exporter(std::size_t vantage, util::Timestamp boot_time,
           std::uint64_t fault_seed, const fault::FaultProfile& profile)
      : id(vantage), ipfix(vantage == flow::kVantageIxp) {
    if (!ipfix) {
      flow::NetflowV5ExportConfig config;
      config.boot_time = boot_time;
      // The session maps engine_id % kVantageCount back to the vantage.
      config.engine_id = static_cast<std::uint8_t>(vantage);
      v5.emplace(config);
    }
    if (profile.enabled()) {
      channel.emplace(fault_seed, "e2e-exporter-" + std::to_string(vantage),
                      profile);
    }
  }

  /// Adds one row; finished datagrams land in `out`.
  void add(const flow::FlowRecord& row, std::vector<Datagram>& out) {
    if (ipfix) {
      pending.push_back(row);
      if (pending.size() >= kFlowsPerPacket) emit_ipfix(out);
    } else if (auto packet = v5->add(row, row.last)) {
      send(std::move(*packet), static_cast<std::uint32_t>(kFlowsPerPacket), out);
    }
  }

  void finish(std::vector<Datagram>& out) {
    if (ipfix) {
      if (!pending.empty()) emit_ipfix(out);
    } else if (auto packet = v5->flush(util::Timestamp{})) {
      // The v5 header's record count (bytes 2-3) says how many were left.
      const auto rows = static_cast<std::uint32_t>(((*packet)[2] << 8) | (*packet)[3]);
      send(std::move(*packet), rows, out);
    }
    if (channel) {
      std::vector<std::vector<std::uint8_t>> held;
      channel->flush(held);
      for (auto& packet : held) out.push_back(Datagram{id, std::move(packet), 0});
    }
  }

 private:
  void emit_ipfix(std::vector<Datagram>& out) {
    // Observation domain 0 maps to the IXP vantage slot.
    send(flow::ipfix::encode_message(pending, 0, sequence++, pending.back().last),
         static_cast<std::uint32_t>(pending.size()), out);
    pending.clear();
  }

  /// A clean exporter delivers the packet as encoded; a faulted one hands
  /// it to its channel, after which the row count is no longer known.
  void send(std::vector<std::uint8_t> packet, std::uint32_t rows,
            std::vector<Datagram>& out) {
    if (!channel) {
      out.push_back(Datagram{id, std::move(packet), rows});
      return;
    }
    std::vector<std::vector<std::uint8_t>> delivered;
    channel->offer(std::move(packet), delivered);
    for (auto& bytes : delivered) out.push_back(Datagram{id, std::move(bytes), 0});
  }
};

ScheduleBuilder::ScheduleBuilder(util::Timestamp boot_time,
                                 std::uint64_t fault_seed,
                                 const fault::FaultProfile& profile)
    : faulted_(profile.enabled()) {
  for (std::size_t v = 0; v < flow::kVantageCount; ++v) {
    exporters_.push_back(
        std::make_unique<Exporter>(v, boot_time, fault_seed, profile));
  }
}

ScheduleBuilder::~ScheduleBuilder() = default;

void ScheduleBuilder::consume(std::size_t vantage,
                              const flow::FlowBatchView& batch) {
  flow::FlowList& rows = day_rows_[vantage];
  for (std::size_t i = 0; i < batch.size(); ++i) rows.push_back(batch.record(i));
}

void ScheduleBuilder::day_complete(int /*day*/, util::Timestamp /*day_start*/) {
  release_day();
}

void ScheduleBuilder::release_day() {
  const auto by_start = [](const flow::FlowRecord& a, const flow::FlowRecord& b) {
    return a.first < b.first;
  };
  for (flow::FlowList& rows : day_rows_) {
    std::stable_sort(rows.begin(), rows.end(), by_start);
  }
  // Three-way merge by start time; ties go to the lower vantage slot.
  std::size_t next[flow::kVantageCount] = {0, 0, 0};
  std::vector<Datagram> finished;
  for (;;) {
    std::optional<std::size_t> best;
    for (std::size_t v = 0; v < flow::kVantageCount; ++v) {
      if (next[v] >= day_rows_[v].size()) continue;
      if (!best || day_rows_[v][next[v]].first <
                       day_rows_[*best][next[*best]].first) {
        best = v;
      }
    }
    if (!best) break;
    exporters_[*best]->add(day_rows_[*best][next[*best]++], finished);
    ++schedule_.rows_encoded;
    append(finished);
  }
  for (flow::FlowList& rows : day_rows_) rows.clear();
}

void ScheduleBuilder::append(std::vector<Datagram>& finished) {
  for (Datagram& datagram : finished) {
    schedule_.datagrams.push_back(std::move(datagram));
    if (faulted_ && ++since_flap_ == kFlapPeriod) {
      since_flap_ = 0;
      for (std::size_t i = 0; i < kFlapBurst; ++i) {
        schedule_.datagrams.push_back(Datagram{kFlapperId, kGarbage, 0});
      }
      schedule_.unchanneled += kFlapBurst;
    }
  }
  finished.clear();
}

Schedule ScheduleBuilder::finish() {
  release_day();
  std::vector<Datagram> finished;
  for (auto& exporter : exporters_) {
    exporter->finish(finished);
    append(finished);
    if (exporter->channel) schedule_.channels.merge(exporter->channel->stats());
  }
  return std::move(schedule_);
}

}  // namespace booterscope::e2e
