// Soak/stress harness for the booterscoped ingest daemon (DESIGN.md §15).
//
// Closes the roadmap's loop: the simulator becomes a load generator. A
// small landscape run is re-encoded as real export packets — the IXP
// vantage as IPFIX messages, the two ISP vantages as NetFlow v5 PDUs —
// striped across several exporters per vantage, pushed through per-exporter
// fault::PacketChannels (drops, dups, reorder, truncation, bitflips under
// --fault-profile) and offered to a svc::Daemon on a deterministic
// offer/pump schedule with synthetic time and periodic overload bursts
// that overflow the bounded ingest ring on purpose.
//
// The whole point is the ledger: after a graceful drain the combined
// channel + daemon accounting must satisfy
//   offered + dup == clean + recovered + failed + dropped + quarantined + shed
// exactly — overload sheds, flapping exporters quarantine and readmit, and
// none of it is silent. The harness asserts balance, that shedding and
// quarantine actually happened under the heavy profile, and writes
// OBS_soak.manifest.json with the full integrity block.
//
// --target PORT switches to replay mode: the same mangled packet schedule
// is sent over UDP to an external booterscoped (CI's soak-smoke job drives
// a 60 s run this way and then SIGTERM-drains the daemon).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "fault/fault.hpp"
#include "flow/ipfix.hpp"
#include "flow/netflow_v5.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "svc/daemon.hpp"
#include "svc/session.hpp"
#include "svc/udp.hpp"
#include "util/cli.hpp"

using namespace booterscope;

namespace {

constexpr std::size_t kFlowsPerPacket = 30;

/// A faulted run adds one flapping exporter: every kFlapPeriod datagrams it
/// sends a burst of undecodable ones, four more than it takes to trip
/// quarantine and still inside one health window, so a burst that finds it
/// admitted trips quarantine. Channel faults alone quarantine an exporter
/// only at some run lengths.
constexpr std::size_t kFlapPeriod = 1000;
const std::size_t kFlapBurst = svc::SessionConfig{}.quarantine_threshold + 4;

/// An IPFIX version field on a datagram shorter than the IPFIX header: a
/// fatal decode for every session that receives it.
const std::vector<std::uint8_t> kGarbage = {0x00, 0x0a, 0x00, 0x08,
                                            0xde, 0xad, 0xbe, 0xef};

/// One simulated exporter: encodes its share of a vantage's flows and
/// mangles the result through its own PacketChannel.
struct Exporter {
  std::size_t vantage = 0;
  std::uint64_t id = 0;
  // IXP exporters speak IPFIX; ISP exporters speak NetFlow v5.
  bool ipfix = false;
  std::uint32_t domain = 0;      // IPFIX observation domain (domain % 3 == 0)
  std::uint32_t sequence = 0;    // IPFIX message sequence
  std::optional<flow::NetflowV5Exporter> v5;
  flow::FlowList pending;        // IPFIX-side buffered flows
  fault::PacketChannel channel;

  Exporter(std::size_t vantage_slot, std::uint64_t exporter_id,
           std::uint64_t fault_seed, const fault::FaultProfile& profile,
           util::Timestamp boot_time)
      : vantage(vantage_slot),
        id(exporter_id),
        ipfix(vantage_slot == flow::kVantageIxp),
        channel(fault_seed, "soak-exporter-" + std::to_string(exporter_id),
                profile) {
    if (ipfix) {
      domain = static_cast<std::uint32_t>(3 * exporter_id);
    } else {
      flow::NetflowV5ExportConfig config;
      config.boot_time = boot_time;
      // engine_id % kVantageCount must recover the vantage slot.
      config.engine_id = static_cast<std::uint8_t>(
          (exporter_id * flow::kVantageCount + vantage_slot) % 256);
      v5.emplace(config);
    }
  }

  /// Adds one flow; encoded packets (post-channel mangling) land in `out`.
  void add(const flow::FlowRecord& flow,
           std::vector<std::vector<std::uint8_t>>& out) {
    if (ipfix) {
      pending.push_back(flow);
      if (pending.size() >= kFlowsPerPacket) emit_ipfix(out);
      return;
    }
    if (auto packet = v5->add(flow, flow.last)) {
      channel.offer(std::move(*packet), out);
    }
  }

  /// Flushes buffered flows and the channel's held (reordered) packet.
  void finish(std::vector<std::vector<std::uint8_t>>& out) {
    if (ipfix) {
      if (!pending.empty()) emit_ipfix(out);
    } else if (auto packet = v5->flush(util::Timestamp{})) {
      channel.offer(std::move(*packet), out);
    }
    channel.flush(out);
  }

 private:
  void emit_ipfix(std::vector<std::vector<std::uint8_t>>& out) {
    channel.offer(flow::ipfix::encode_message(pending, domain, sequence++,
                                              pending.back().last),
                  out);
    pending.clear();
  }
};

struct SoakOptions {
  bench::RunOptions run;
  std::size_t exporters_per_vantage = 4;
  std::size_t queue_capacity = 256;
  int target_port = 0;        // 0 = direct in-process mode
  int duration_s = 10;        // --target replay duration
  int pps = 2000;             // --target replay rate
};

void usage(const char* program) {
  std::fprintf(
      stderr,
      "usage: %s [--days N] [--attacks-per-day X] [--seed N]\n"
      "          [--fault-profile none|light|heavy] [--fault-seed N]\n"
      "          [--exporters N] [--queue-capacity N]\n"
      "          [--target PORT [--duration-s N] [--pps N]]\n",
      program);
}

[[nodiscard]] SoakOptions parse(int argc, char** argv) {
  util::CliArgs args(argc, argv);
  if (args.has_flag("help") || args.has_flag("h")) {
    usage(argv[0]);
    std::exit(0);
  }
  const auto unknown = args.unknown(
      {"days", "attacks-per-day", "seed", "fault-profile", "fault-seed",
       "exporters", "queue-capacity", "target", "duration-s", "pps", "help",
       "h"});
  for (const std::string& flag : unknown) {
    std::fprintf(stderr, "bench_soak: unknown flag --%s\n", flag.c_str());
    usage(argv[0]);
    std::exit(2);
  }
  SoakOptions options;
  // Soak default: a small window with dense attacks — the stress is the
  // ingest path, not the simulation.
  options.run.days = static_cast<int>(args.int_or("days", 10));
  options.run.attacks_per_day = args.double_or("attacks-per-day", 0.0);
  options.run.seed = static_cast<std::uint64_t>(args.int_or("seed", 0));
  options.run.fault_profile = args.value_or("fault-profile", "heavy");
  options.run.fault_seed =
      static_cast<std::uint64_t>(args.int_or("fault-seed", 1));
  options.run.sample_interval_ms = 0;  // the landscape here is only a source
  options.exporters_per_vantage =
      static_cast<std::size_t>(args.int_or("exporters", 4));
  options.queue_capacity =
      static_cast<std::size_t>(args.int_or("queue-capacity", 256));
  options.target_port = static_cast<int>(args.int_or("target", 0));
  options.duration_s = static_cast<int>(args.int_or("duration-s", 10));
  options.pps = static_cast<int>(args.int_or("pps", 2000));
  return options;
}

/// Time-ordered 3-way merge cursor over the vantage flow lists.
struct MergeCursor {
  const flow::FlowList* lists[flow::kVantageCount];
  std::size_t index[flow::kVantageCount] = {0, 0, 0};

  [[nodiscard]] std::optional<std::size_t> next_vantage() const {
    std::optional<std::size_t> best;
    for (std::size_t v = 0; v < flow::kVantageCount; ++v) {
      if (index[v] >= lists[v]->size()) continue;
      if (!best.has_value() ||
          (*lists[v])[index[v]].first < (*lists[*best])[index[*best]].first) {
        best = v;
      }
    }
    return best;
  }
};

}  // namespace

int main(int argc, char** argv) {
  const SoakOptions options = parse(argc, argv);

  const auto profile = fault::FaultProfile::parse(options.run.fault_profile);
  if (!profile) {
    std::fprintf(stderr, "bench_soak: bad --fault-profile %s\n",
                 options.run.fault_profile.c_str());
    return 2;
  }

  // The landscape is the load source only: channel-level faults are
  // injected here at the export boundary, so the world itself runs clean.
  bench::RunOptions world_options = options.run;
  world_options.fault_profile = "none";
  bench::LandscapeWorld world(world_options);
  const sim::LandscapeResult& result = world.materialize();
  const sim::LandscapeConfig& cfg = world.config;

  // Time-sorted per-vantage sources (export order == observation order).
  flow::FlowList sorted[flow::kVantageCount] = {
      result.ixp.store.flows(), result.tier1.store.flows(),
      result.tier2.store.flows()};
  for (auto& flows : sorted) {
    std::sort(flows.begin(), flows.end(),
              [](const flow::FlowRecord& a, const flow::FlowRecord& b) {
                return a.first < b.first;
              });
  }

  // Exporter fleet: E per vantage, each with its own codec + channel.
  const std::size_t per_vantage = std::max<std::size_t>(1, options.exporters_per_vantage);
  std::vector<Exporter> exporters;
  for (std::size_t v = 0; v < flow::kVantageCount; ++v) {
    for (std::size_t e = 0; e < per_vantage; ++e) {
      exporters.emplace_back(v, v * per_vantage + e, options.run.fault_seed,
                             *profile, cfg.start);
    }
  }
  std::vector<std::size_t> round_robin(flow::kVantageCount, 0);

  // ---- packet schedule: merge flows, stripe, encode, mangle ------------
  std::vector<std::pair<std::uint64_t, std::vector<std::uint8_t>>> schedule;
  // The flapper's bursts cross no channel: the ledger counts them as
  // offered at the daemon.
  const std::uint64_t flapper_id = exporters.size();
  std::uint64_t unchanneled = 0;
  std::size_t since_flap = 0;
  const auto append = [&](std::uint64_t exporter,
                          std::vector<std::uint8_t> packet) {
    schedule.emplace_back(exporter, std::move(packet));
    if (profile->enabled() && ++since_flap == kFlapPeriod) {
      since_flap = 0;
      for (std::size_t i = 0; i < kFlapBurst; ++i) {
        schedule.emplace_back(flapper_id, kGarbage);
      }
      unchanneled += kFlapBurst;
    }
  };
  std::vector<std::vector<std::uint8_t>> scratch;
  MergeCursor cursor{{&sorted[0], &sorted[1], &sorted[2]}};
  while (const auto v = cursor.next_vantage()) {
    const flow::FlowRecord& flow = (*cursor.lists[*v])[cursor.index[*v]++];
    const std::size_t slot = *v * per_vantage + round_robin[*v];
    round_robin[*v] = (round_robin[*v] + 1) % per_vantage;
    Exporter& exporter = exporters[slot];
    exporter.add(flow, scratch);
    for (auto& packet : scratch) append(exporter.id, std::move(packet));
    scratch.clear();
  }
  for (Exporter& exporter : exporters) {
    exporter.finish(scratch);
    for (auto& packet : scratch) append(exporter.id, std::move(packet));
    scratch.clear();
  }
  std::printf("bench_soak: %zu packets from %zu exporters (profile %s)\n",
              schedule.size(), exporters.size(),
              options.run.fault_profile.c_str());

  // ---- replay mode: aim the schedule at an external daemon -------------
  if (options.target_port > 0) {
    // One socket per exporter, the flapper included: the daemon keys
    // sessions by source addr:port, so distinct sockets are what make the
    // live path see distinct exporters (and quarantine them independently).
    std::vector<svc::UdpSender> senders(flapper_id + 1);
    for (auto& sender : senders) {
      if (!sender.open(static_cast<std::uint16_t>(options.target_port))) {
        std::fprintf(stderr, "bench_soak: cannot open UDP to port %d\n",
                     options.target_port);
        return 2;
      }
    }
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(options.duration_s);
    const auto gap = std::chrono::microseconds(
        options.pps > 0 ? 1'000'000 / options.pps : 0);
    std::uint64_t sent = 0;
    while (std::chrono::steady_clock::now() < deadline) {
      for (const auto& [exporter, packet] : schedule) {
        if (std::chrono::steady_clock::now() >= deadline) break;
        if (senders[exporter].send(packet)) ++sent;
        if (gap.count() > 0) std::this_thread::sleep_for(gap);
      }
    }
    std::printf("bench_soak: replayed %llu packets to udp://127.0.0.1:%d\n",
                static_cast<unsigned long long>(sent), options.target_port);
    return 0;
  }

  // ---- direct mode: deterministic offer/pump with overload bursts ------
  svc::DaemonConfig daemon_config;
  daemon_config.start = cfg.start;
  daemon_config.days = cfg.days;
  daemon_config.seed = cfg.seed;
  daemon_config.queue_capacity = options.queue_capacity;
  daemon_config.takedown = cfg.takedown;
  daemon_config.session.seed = cfg.seed;
  daemon_config.session.v5_boot_time = cfg.start;
  svc::Daemon daemon(daemon_config);

  // Synthetic clock: 1 ms per offered packet, so quarantine spans are a
  // pure function of the schedule. Overload bursts: every kBurstEvery
  // packets the worker "stalls" for kBurstLen offers — the ring fills and
  // the daemon must shed deterministically.
  constexpr std::int64_t kNanosPerPacket = 1'000'000;
  constexpr std::size_t kBurstEvery = 5000;
  constexpr std::size_t kBurstLen = 600;
  std::int64_t now = 0;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    now += kNanosPerPacket;
    auto& [exporter, packet] = schedule[i];
    (void)daemon.offer(exporter, std::move(packet), now);
    const bool bursting = (i % kBurstEvery) < kBurstLen;
    if (!bursting) (void)daemon.pump(2, now);
  }
  daemon.drain(now);

  // ---- the ledger is the deliverable -----------------------------------
  fault::IntegrityTally combined;
  for (const Exporter& exporter : exporters) {
    combined.note_channel(exporter.channel.stats());
  }
  combined.offered += unchanneled;
  fault::IntegrityTally daemon_tally = daemon.merged_tally();
  const bool daemon_balanced = daemon_tally.balanced();
  // The daemon's `offered` is the channels' `delivered`: zero it before the
  // merge so packets are counted once, at the channel boundary.
  daemon_tally.offered = 0;
  combined.merge(daemon_tally);

  std::printf(
      "bench_soak: received=%llu shed=%llu sessions=%zu quarantined_pkts=%llu "
      "quarantine_events=%llu readmissions=%llu rows=%llu late_rows=%llu "
      "wild_rows=%llu\n",
      static_cast<unsigned long long>(daemon.received()),
      static_cast<unsigned long long>(daemon.shed()), daemon.session_count(),
      static_cast<unsigned long long>(combined.quarantined),
      static_cast<unsigned long long>(daemon.quarantine_events()),
      static_cast<unsigned long long>(daemon.readmissions()),
      static_cast<unsigned long long>(daemon.rows()),
      static_cast<unsigned long long>(daemon.late_rows()),
      static_cast<unsigned long long>(daemon.wild_rows()));
  std::printf("bench_soak: conservation %llu + %llu == %llu : %s\n",
              static_cast<unsigned long long>(combined.offered),
              static_cast<unsigned long long>(combined.duplicated),
              static_cast<unsigned long long>(combined.rhs()),
              combined.balanced() ? "balanced" : "IMBALANCED");

  obs::RunManifest manifest("bench_soak");
  manifest.set_experiment("soak");
  manifest.set_seed(cfg.seed);
  manifest.add_config("days", static_cast<std::uint64_t>(cfg.days));
  manifest.add_config("fault_profile", options.run.fault_profile);
  manifest.add_config("fault_seed", options.run.fault_seed);
  manifest.add_config("exporters", static_cast<std::uint64_t>(exporters.size()));
  manifest.add_config("queue_capacity",
                      static_cast<std::uint64_t>(options.queue_capacity));
  combined.add_to_manifest(manifest);
  manifest.add_accounting("svc_datagrams_received", daemon.received());
  manifest.add_accounting("svc_quarantine_events", daemon.quarantine_events());
  manifest.add_accounting("svc_readmissions", daemon.readmissions());
  manifest.add_accounting("svc_rows", daemon.rows());
  manifest.add_accounting("svc_late_rows", daemon.late_rows());
  manifest.add_accounting("svc_wild_rows", daemon.wild_rows());
  if (!manifest.write("OBS_soak.manifest.json", &world.tracer,
                      &obs::metrics())) {
    std::fprintf(stderr, "bench_soak: manifest write failed\n");
    return 2;
  }

  // Acceptance gates (ISSUE 8): balance always; shed/quarantine/readmit
  // must actually fire under a faulty profile.
  bool ok = combined.balanced() && daemon_balanced;
  if (profile->enabled()) {
    ok = ok && daemon.shed() > 0 && daemon.quarantine_events() > 0 &&
         daemon.readmissions() > 0;
  }
  if (!ok) {
    std::fprintf(stderr, "bench_soak: FAILED acceptance gates\n");
    return 1;
  }
  std::printf("bench_soak: ok\n");
  return 0;
}
