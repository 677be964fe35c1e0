// Landscape -> export datagram schedule: the input of the ingest workloads.
//
// A landscape run is re-encoded the way its vantage points would export it:
// the IXP as IPFIX messages, the two ISPs as NetFlow v5 PDUs, one exporter
// per vantage, with rows released in flow start-time order across the
// three exporters. With a fault profile, each exporter's packets cross its
// own fault::PacketChannel, and a fourth, flapping exporter sends a burst
// of undecodable datagrams every kFlapPeriod datagrams. The burst is longer
// than the session quarantine threshold and shorter than its health window,
// so quarantine and readmission fire on any schedule of a few thousand
// datagrams, whatever the channel faults happen to hit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "fault/fault.hpp"
#include "flow/batch.hpp"
#include "flow/record.hpp"
#include "util/time.hpp"

namespace booterscope::e2e {

struct Datagram {
  std::uint64_t exporter = 0;
  std::vector<std::uint8_t> bytes;
  /// Flow records encoded into it; 0 when a fault channel carried it (its
  /// faults may have changed what it decodes to) and for the flapper.
  std::uint32_t rows = 0;
};

struct Schedule {
  std::vector<Datagram> datagrams;
  /// Flow records encoded, before any channel fault.
  std::uint64_t rows_encoded = 0;
  /// Channel accounting of the exporters (all zero when clean).
  fault::ChannelStats channels;
  /// Datagrams that crossed no channel: the flapping exporter's bursts.
  std::uint64_t unchanneled = 0;
};

/// Exporter id of the flapping exporter (the vantage exporters are 0..2).
inline constexpr std::uint64_t kFlapperId = flow::kVantageCount;
inline constexpr std::size_t kFlapPeriod = 1000;

/// Encodes the rows it is fed into a Schedule. Rows are buffered one day at
/// a time; at each day barrier the day's rows are merged into start-time
/// order and handed to their vantage's exporter.
class ScheduleBuilder : public flow::FlowBatchSink {
 public:
  /// `boot_time` is the v5 SysUptime origin (the sessions' v5_boot_time);
  /// profile none builds a clean schedule.
  ScheduleBuilder(util::Timestamp boot_time, std::uint64_t fault_seed,
                  const fault::FaultProfile& profile);
  ~ScheduleBuilder() override;

  ScheduleBuilder(const ScheduleBuilder&) = delete;
  ScheduleBuilder& operator=(const ScheduleBuilder&) = delete;

  void consume(std::size_t vantage, const flow::FlowBatchView& batch) override;
  void day_complete(int day, util::Timestamp day_start) override;

  /// Flushes partial packets and held datagrams. Call once, after the run.
  [[nodiscard]] Schedule finish();

 private:
  struct Exporter;

  void release_day();
  /// Moves finished datagrams into the schedule, interleaving the
  /// flapping exporter's bursts when faulted.
  void append(std::vector<Datagram>& finished);

  bool faulted_;
  std::vector<std::unique_ptr<Exporter>> exporters_;
  flow::FlowList day_rows_[flow::kVantageCount];
  std::size_t since_flap_ = 0;
  Schedule schedule_;
};

}  // namespace booterscope::e2e
