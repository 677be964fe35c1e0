#include "flow/store.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>

#include "net/protocol.hpp"
#include "obs/metrics.hpp"
#include "util/backoff.hpp"
#include "util/byteio.hpp"
#include "obs/decode_metrics.hpp"

namespace booterscope::flow {

namespace detail {

void count_store_added(std::size_t n) noexcept {
  static obs::Counter& counter =
      obs::metrics().counter("booterscope_store_added_flows_total");
  counter.add(n);
}

}  // namespace detail

namespace {

constexpr std::uint32_t kMagic = 0x42534631;  // "BSF1"
constexpr std::size_t kRecordBytes = 4 + 4 + 2 + 2 + 1 + 8 + 8 + 8 + 8 + 4 + 4 + 4 + 1 + 4;

struct FileCloser {
  void operator()(std::FILE* f) const noexcept {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

constexpr int kIoAttempts = 3;

/// One BSF1 record off the reader; validity is the reader's ok() state.
[[nodiscard]] FlowRecord parse_record(util::ByteReader& r) {
  FlowRecord f;
  f.src = net::Ipv4Addr{r.u32()};
  f.dst = net::Ipv4Addr{r.u32()};
  f.src_port = r.u16();
  f.dst_port = r.u16();
  f.proto = static_cast<net::IpProto>(r.u8());
  f.packets = r.u64();
  f.bytes = r.u64();
  f.first = util::Timestamp::from_nanos(static_cast<std::int64_t>(r.u64()));
  f.last = util::Timestamp::from_nanos(static_cast<std::int64_t>(r.u64()));
  f.src_asn = net::Asn{r.u32()};
  f.dst_asn = net::Asn{r.u32()};
  f.peer_asn = net::Asn{r.u32()};
  f.direction = r.u8() == 0 ? Direction::kIngress : Direction::kEgress;
  f.sampling_rate = r.u32();
  return f;
}

/// Sleeps the util::Backoff schedule between retries; counted so a run
/// manifest shows how often storage flaked. The seed is a fixed constant:
/// store I/O has no run seed in scope, and a stable schedule is exactly
/// what a replayed run wants.
void backoff(int attempt) {
  static const util::Backoff schedule(
      0x5105ull, "store-io",
      {.base = util::Duration::millis(1),
       .cap = util::Duration::millis(250),
       .multiplier = 2.0});
  obs::metrics().counter("booterscope_store_io_retries_total").inc();
  std::this_thread::sleep_for(std::chrono::nanoseconds(
      schedule.delay(static_cast<std::uint64_t>(attempt)).total_nanos()));
}

}  // namespace

FlowStore FlowStore::filter(
    const std::function<bool(const FlowRecord&)>& pred) const {
  FlowList result;
  for (const FlowRecord& f : flows_) {
    if (pred(f)) result.push_back(f);
  }
  return FlowStore{std::move(result)};
}

FlowStore FlowStore::to_port(std::uint16_t dst_port) const {
  return filter([dst_port](const FlowRecord& f) {
    return f.proto == net::IpProto::kUdp && f.dst_port == dst_port;
  });
}

FlowStore FlowStore::from_port(std::uint16_t src_port) const {
  return filter([src_port](const FlowRecord& f) {
    return f.proto == net::IpProto::kUdp && f.src_port == src_port;
  });
}

void FlowStore::sort_by_time() {
  std::sort(flows_.begin(), flows_.end(),
            [](const FlowRecord& a, const FlowRecord& b) {
              return a.first < b.first;
            });
}

double FlowStore::total_scaled_packets() const noexcept {
  double total = 0.0;
  for (const FlowRecord& f : flows_) total += f.scaled_packets();
  return total;
}

double FlowStore::total_scaled_bytes() const noexcept {
  double total = 0.0;
  for (const FlowRecord& f : flows_) total += f.scaled_bytes();
  return total;
}

std::vector<std::uint8_t> serialize_flows(std::span<const FlowRecord> flows) {
  obs::metrics()
      .counter("booterscope_store_serialized_flows_total")
      .add(flows.size());
  std::vector<std::uint8_t> buffer;
  buffer.reserve(12 + flows.size() * kRecordBytes);
  util::ByteWriter w(buffer);
  w.u32(kMagic);
  w.u64(flows.size());
  for (const FlowRecord& f : flows) {
    w.u32(f.src.value());
    w.u32(f.dst.value());
    w.u16(f.src_port);
    w.u16(f.dst_port);
    w.u8(static_cast<std::uint8_t>(f.proto));
    w.u64(f.packets);
    w.u64(f.bytes);
    w.u64(static_cast<std::uint64_t>(f.first.nanos()));
    w.u64(static_cast<std::uint64_t>(f.last.nanos()));
    w.u32(f.src_asn.number());
    w.u32(f.dst_asn.number());
    w.u32(f.peer_asn.number());
    w.u8(f.direction == Direction::kIngress ? 0 : 1);
    w.u32(f.sampling_rate);
  }
  return buffer;
}

util::Result<FlowList> deserialize_flows(std::span<const std::uint8_t> data,
                                         util::DecodeDamage* damage) {
  static obs::Counter& bad_input =
      obs::metrics().counter("booterscope_store_deserialize_failures_total");
  util::ByteReader r(data);
  if (!r.has(4)) {
    bad_input.inc();
    obs::count_decode_failure("store", util::DecodeError::kTruncatedHeader);
    return util::DecodeError::kTruncatedHeader;
  }
  if (r.u32() != kMagic) {
    bad_input.inc();
    obs::count_decode_failure("store", util::DecodeError::kBadMagic);
    return util::DecodeError::kBadMagic;
  }
  const std::uint64_t count = r.u64();
  if (!r.ok()) {
    bad_input.inc();
    obs::count_decode_failure("store", util::DecodeError::kTruncatedHeader);
    return util::DecodeError::kTruncatedHeader;
  }
  // The declared count is attacker-controlled 64-bit input: comparing
  // `remaining() < count * kRecordBytes` can wrap and a reserve(count) on
  // the raw value is an allocation bomb. fits_records() divides instead,
  // and a truncated body degrades to salvaging the whole-record prefix.
  util::DecodeDamage local_damage;
  std::uint64_t usable = count;
  if (!r.fits_records(count, kRecordBytes)) {
    usable = r.max_records(kRecordBytes);
    local_damage.note(util::DecodeError::kCountMismatch, count - usable);
  }
  FlowList flows;
  flows.reserve(static_cast<std::size_t>(usable));
  for (std::uint64_t i = 0; i < usable; ++i) {
    const FlowRecord f = parse_record(r);
    if (!r.ok()) {
      // max_records() bounded the loop; degrade rather than corrupt if a
      // logic slip ever lands here.
      local_damage.note(util::DecodeError::kTruncatedRecord, usable - i);
      break;
    }
    flows.push_back(f);
  }
  obs::metrics()
      .counter("booterscope_store_deserialized_flows_total")
      .add(flows.size());
  obs::count_decode_damage("store", local_damage);
  if (damage != nullptr) damage->merge(local_damage);
  return flows;
}

bool write_flow_file(const std::string& path, std::span<const FlowRecord> flows) {
  const auto bytes = serialize_flows(flows);
  for (int attempt = 0; attempt < kIoAttempts; ++attempt) {
    if (attempt > 0) backoff(attempt);
    const FilePtr file{std::fopen(path.c_str(), "wb")};
    if (!file) continue;
    if (std::fwrite(bytes.data(), 1, bytes.size(), file.get()) == bytes.size()) {
      return true;
    }
  }
  obs::metrics().counter("booterscope_store_io_failures_total").inc();
  return false;
}

util::Result<FlowList> read_flow_file(const std::string& path,
                                      util::DecodeDamage* damage) {
  for (int attempt = 0; attempt < kIoAttempts; ++attempt) {
    if (attempt > 0) backoff(attempt);
    const FilePtr file{std::fopen(path.c_str(), "rb")};
    if (!file) {
      if (errno == ENOENT) break;  // missing file: retrying cannot help
      continue;
    }
    std::vector<std::uint8_t> bytes;
    std::uint8_t chunk[1 << 16];
    std::size_t read_count = 0;
    while ((read_count = std::fread(chunk, 1, sizeof chunk, file.get())) > 0) {
      bytes.insert(bytes.end(), chunk, chunk + read_count);
    }
    if (std::ferror(file.get()) != 0) continue;  // torn read: retry
    return deserialize_flows(bytes, damage);
  }
  obs::metrics().counter("booterscope_store_io_failures_total").inc();
  obs::count_decode_failure("store", util::DecodeError::kIo);
  return util::DecodeError::kIo;
}

}  // namespace booterscope::flow
