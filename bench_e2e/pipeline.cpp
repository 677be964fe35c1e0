#include "pipeline.hpp"

#include <cstdio>
#include <map>
#include <string>
#include <utility>

#include "common.hpp"
#include "flow/ipfix.hpp"
#include "flow/netflow_v5.hpp"
#include "net/protocol.hpp"
#include "svc/session.hpp"

namespace booterscope::e2e {

namespace {

/// Synthetic receive clock of a direct-mode replay, as in bench_soak: it
/// makes quarantine and readmission a pure function of the schedule.
constexpr std::int64_t kNanosPerDatagram = 1'000'000;
constexpr std::size_t kBurstEvery = 5000;
constexpr std::size_t kBurstLen = 600;

[[nodiscard]] bool same_window(const core::WindowMetrics& a,
                               const core::WindowMetrics& b) {
  return a.window_days == b.window_days && a.significant == b.significant &&
         a.welch.t_statistic == b.welch.t_statistic &&
         a.welch.degrees_of_freedom == b.welch.degrees_of_freedom &&
         a.welch.p_value_greater == b.welch.p_value_greater &&
         a.welch.p_value_two_sided == b.welch.p_value_two_sided &&
         a.welch.mean_before == b.welch.mean_before &&
         a.welch.mean_after == b.welch.mean_after &&
         a.reduction == b.reduction &&
         a.effective_before_days == b.effective_before_days &&
         a.effective_after_days == b.effective_after_days &&
         a.excluded_days == b.excluded_days;
}

[[nodiscard]] std::uint16_t version_of(const std::vector<std::uint8_t>& bytes) {
  return bytes.size() >= 2
             ? static_cast<std::uint16_t>((bytes[0] << 8) | bytes[1])
             : 0;
}

[[nodiscard]] std::uint64_t nanos_of(double seconds) {
  return static_cast<std::uint64_t>(seconds * 1e9);
}

}  // namespace

LayerSink::LayerSink(obs::StageTracer& tracer, flow::FlowBatchSink& analysis,
                     flow::FlowBatchSink* extra, std::string_view extra_span)
    : tracer_(tracer),
      analysis_(analysis),
      extra_(extra),
      extra_span_(extra_span) {}

void LayerSink::consume(std::size_t vantage, const flow::FlowBatchView& batch) {
  {
    obs::StageTimer timer(tracer_, "core.consume");
    timer.add_items_out(batch.size());
    analysis_.consume(vantage, batch);
  }
  if (extra_ != nullptr) {
    const obs::StageTimer timer(tracer_, extra_span_);
    extra_->consume(vantage, batch);
  }
}

void LayerSink::day_complete(int day, util::Timestamp day_start) {
  {
    const obs::StageTimer timer(tracer_, "core.day_complete");
    analysis_.day_complete(day, day_start);
  }
  if (extra_ != nullptr) {
    const obs::StageTimer timer(tracer_, extra_span_);
    extra_->day_complete(day, day_start);
  }
}

bool same_verdict(const core::TakedownMetrics& a,
                  const core::TakedownMetrics& b) {
  return same_window(a.wt30, b.wt30) && same_window(a.wt40, b.wt40);
}

sim::LandscapeConfig landscape(int days, double attacks_per_day,
                               std::uint64_t seed) {
  bench::RunOptions run;
  run.days = days;
  run.attacks_per_day = attacks_per_day;
  run.seed = seed;
  return bench::apply_run_options(sim::paper_landscape_config(), run);
}

double busy_seconds(const exec::ThreadPool& pool) {
  std::uint64_t nanos = 0;
  for (std::size_t w = 0; w < pool.size(); ++w) nanos += pool.worker_busy_nanos(w);
  return static_cast<double>(nanos) / 1e9;
}

svc::DaemonConfig daemon_config(const sim::LandscapeConfig& landscape) {
  svc::DaemonConfig config;
  config.start = landscape.start;
  config.days = landscape.days;
  config.seed = landscape.seed;
  config.takedown = landscape.takedown;
  config.session.seed = landscape.seed;
  config.session.v5_boot_time = landscape.start;
  static constexpr const char* kNames[flow::kVantageCount] = {
      "ixp_ntp", "tier1_ntp", "tier2_ntp"};
  for (std::size_t v = 0; v < flow::kVantageCount; ++v) {
    core::SeriesSpec spec;
    spec.name = kNames[v];
    spec.vantage = v;
    spec.kind = core::SeriesSpec::Kind::kToPort;
    spec.port = net::ports::kNtp;
    config.specs.push_back(spec);
  }
  return config;
}

ReplayOutcome replay(const Schedule& schedule, const svc::DaemonConfig& config,
                     const ReplayPolicy& policy, bool time_calls) {
  svc::DaemonConfig daemon_config = config;
  daemon_config.queue_capacity = policy.queue_capacity;
  svc::Daemon daemon(std::move(daemon_config));

  ReplayOutcome out;
  if (time_calls) out.call_us.reserve(schedule.datagrams.size());
  std::int64_t offer_ns = 0;
  std::int64_t pump_ns = 0;
  std::int64_t now = 0;
  const double cpu_begin = process_cpu_seconds();
  const std::int64_t begin = util::monotonic_nanos();
  for (std::size_t i = 0; i < schedule.datagrams.size(); ++i) {
    const Datagram& datagram = schedule.datagrams[i];
    now += kNanosPerDatagram;
    const std::size_t pumps =
        !policy.bursts ? 1 : (i % kBurstEvery < kBurstLen ? 0 : 2);
    // offer() takes the bytes by value: the copy a socket receiver makes of
    // every datagram it hands over, counted as part of the offer.
    if (!time_calls) {
      (void)daemon.offer(datagram.exporter, datagram.bytes, now);
      if (pumps > 0) (void)daemon.pump(pumps, now);
      continue;
    }
    const std::int64_t t0 = util::monotonic_nanos();
    (void)daemon.offer(datagram.exporter, datagram.bytes, now);
    const std::int64_t t1 = util::monotonic_nanos();
    if (pumps > 0) (void)daemon.pump(pumps, now);
    const std::int64_t t2 = util::monotonic_nanos();
    offer_ns += t1 - t0;
    pump_ns += t2 - t1;
    out.call_us.push_back(static_cast<double>(t2 - t0) / 1e3);
  }
  const std::int64_t drain_begin = util::monotonic_nanos();
  daemon.drain(now);
  const std::int64_t end = util::monotonic_nanos();

  out.wall_s = seconds_between(begin, end);
  out.cpu_s = process_cpu_seconds() - cpu_begin;
  out.offered = schedule.datagrams.size();
  out.shed = daemon.shed();
  out.rows = daemon.rows();
  out.late_rows = daemon.late_rows();
  out.wild_rows = daemon.wild_rows();
  out.quarantine_events = daemon.quarantine_events();
  out.readmissions = daemon.readmissions();
  out.tally = daemon.merged_tally();
  out.verdict = daemon.verdict();
  if (time_calls) {
    out.offer_s = static_cast<double>(offer_ns) / 1e9;
    out.pump_s = static_cast<double>(pump_ns) / 1e9;
    out.drain_s = seconds_between(drain_begin, end);
  }
  return out;
}

obs::prof::Profiler::Options shard_profiler_options(const exec::ThreadPool& pool) {
  obs::prof::Profiler::Options options;
  options.lanes = pool.size() + 1;
  options.force = "software";
  return options;
}

void add_landscape_layers(Result& result, const obs::StageTracer& tracer,
                          const obs::prof::Profiler& profiler, double busy_s,
                          std::size_t workers) {
  // Worker lanes' "task" sections: the pool's only tasks were day shards.
  obs::prof::CounterSample shards;
  for (const auto& stage : profiler.stages()) {
    if (stage.lane > 0 && stage.path == "task") shards.accumulate(stage.self);
  }
  if (!profiler.available()) {
    std::fprintf(stderr, "bench_e2e: day-shard counters read 0: %s\n",
                 profiler.unavailable_reason().c_str());
  }
  const double shard_s = stage_self_seconds(tracer, "day_shard");
  const auto flows = static_cast<double>(stage_items_out(tracer, "day_shard"));
  const double drain_s = stage_self_seconds(tracer, "drain");
  const auto drained = static_cast<double>(stage_items_out(tracer, "drain"));
  const double consume_s = stage_total_seconds(tracer, "core.consume");
  const auto consumed =
      static_cast<double>(stage_items_out(tracer, "core.consume"));
  const double waves_s = stage_total_seconds(tracer, "day_shards");
  result.add("sim.day_shard_s", shard_s, "s");
  result.add("sim.day_shard_ns_per_flow", per_unit_ns(shard_s, flows), "ns");
  result.add("sim.day_shard_task_clock_s",
             static_cast<double>(shards.task_clock_nanos) / 1e9, "s");
  result.add("sim.day_shard_page_faults", static_cast<double>(shards.page_faults),
             "count");
  result.add("exec.busy_s", busy_s, "s");
  // Share of the workers' time during the waves spent inside shard bodies.
  // Not busy_s, which also counts a task's tail after it signalled the
  // waiting caller thread, when the woken caller often holds the worker's core.
  result.add("exec.pool_utilization",
             waves_s > 0.0 ? shard_s / (static_cast<double>(workers) * waves_s)
                           : 0.0,
             "frac");
  result.add("flow.drain_s", drain_s, "s");
  result.add("flow.drain_ns_per_row", per_unit_ns(drain_s, drained), "ns");
  result.add("core.consume_s", consume_s, "s");
  result.add("core.consume_ns_per_row", per_unit_ns(consume_s, consumed), "ns");
  result.add("core.day_complete_s",
             stage_total_seconds(tracer, "core.day_complete"), "s");
  result.add("core.verdict_s", stage_total_seconds(tracer, "core.verdict"),
             "s");
}

ReplayOutcome add_ingest_layers(Result& result, obs::StageTracer& tracer,
                                const Schedule& schedule,
                                const svc::DaemonConfig& config,
                                const ReplayPolicy& policy) {
  // The decoders alone, one call per datagram of each vantage exporter.
  double ipfix_s = 0.0;
  double v5_s = 0.0;
  std::uint64_t ipfix_calls = 0;
  std::uint64_t v5_calls = 0;
  std::uint64_t ipfix_rows = 0;
  std::uint64_t v5_rows = 0;
  {
    const obs::StageTimer pass(tracer, "layer.decode");
    flow::ipfix::MessageDecoder decoder;
    for (const Datagram& datagram : schedule.datagrams) {
      if (datagram.exporter == kFlapperId) continue;
      const std::int64_t t0 = util::monotonic_nanos();
      if (version_of(datagram.bytes) == 5) {
        const auto packet =
            flow::decode_netflow_v5(datagram.bytes, config.session.v5_boot_time);
        v5_s += seconds_between(t0, util::monotonic_nanos());
        ++v5_calls;
        if (packet) v5_rows += packet->records.size();
      } else {
        const auto message = decoder.decode(datagram.bytes);
        ipfix_s += seconds_between(t0, util::monotonic_nanos());
        ++ipfix_calls;
        if (message) ipfix_rows += message->records.size();
      }
    }
    tracer.add_completed("flow.ipfix_decode", -1, nanos_of(ipfix_s),
                         ipfix_calls, ipfix_calls, ipfix_rows, 0);
    tracer.add_completed("flow.v5_decode", -1, nanos_of(v5_s), v5_calls,
                         v5_calls, v5_rows, 0);
  }

  // The exporter sessions alone: decode, dedup and health, no ring.
  double session_s = 0.0;
  {
    const obs::StageTimer pass(tracer, "layer.session");
    std::map<std::uint64_t, svc::ExporterSession> sessions;
    std::int64_t now = 0;
    for (const Datagram& datagram : schedule.datagrams) {
      now += kNanosPerDatagram;
      svc::ExporterSession& session =
          sessions.try_emplace(datagram.exporter, datagram.exporter,
                               config.session)
              .first->second;
      const std::int64_t t0 = util::monotonic_nanos();
      (void)session.ingest(datagram.bytes, now);
      session_s += seconds_between(t0, util::monotonic_nanos());
    }
    tracer.add_completed("svc.session_ingest", -1, nanos_of(session_s),
                         schedule.datagrams.size(), schedule.datagrams.size(),
                         0, 0);
  }

  // The whole daemon, every call timed.
  ReplayOutcome timed;
  {
    const obs::StageTimer pass(tracer, "svc.replay");
    timed = replay(schedule, config, policy, true);
    tracer.add_completed("svc.offer", -1, nanos_of(timed.offer_s),
                         timed.offered, timed.offered, 0, 0);
    tracer.add_completed("svc.pump", -1, nanos_of(timed.pump_s), timed.offered,
                         timed.offered, timed.rows, 0);
    tracer.add_completed("svc.drain", -1, nanos_of(timed.drain_s), 1, 0, 0, 0);
  }

  const auto datagrams = static_cast<double>(schedule.datagrams.size());
  const double decoded =
      static_cast<double>(timed.tally.decoded_clean + timed.tally.recovered);
  result.add("flow.ipfix_decode_ns_per_row",
             per_unit_ns(ipfix_s, static_cast<double>(ipfix_rows)), "ns");
  result.add("flow.v5_decode_ns_per_row",
             per_unit_ns(v5_s, static_cast<double>(v5_rows)), "ns");
  result.add("flow.recovered_frac",
             decoded > 0.0 ? static_cast<double>(timed.tally.recovered) / decoded
                           : 0.0,
             "frac");
  result.add("svc.session_ingest_ns_per_dgram",
             per_unit_ns(session_s, datagrams), "ns");
  result.add("svc.offer_ns", per_unit_ns(timed.offer_s, datagrams), "ns");
  result.add("svc.pump_ns", per_unit_ns(timed.pump_s, datagrams), "ns");
  result.add("svc.dgram_p50_us", quantile(timed.call_us, 0.5), "us");
  result.add("svc.dgram_p999_us", quantile(timed.call_us, 0.999), "us");
  result.add("svc.shed", static_cast<double>(timed.shed), "count");
  result.add("svc.failed", static_cast<double>(timed.tally.failed), "count");
  result.add("svc.quarantine_events",
             static_cast<double>(timed.quarantine_events), "count");
  result.add("svc.readmissions", static_cast<double>(timed.readmissions),
             "count");
  result.add("svc.late_rows", static_cast<double>(timed.late_rows), "count");
  result.add("svc.wild_rows", static_cast<double>(timed.wild_rows), "count");
  return timed;
}

void add_udp_layers(Result& result, const UdpLayers& udp) {
  result.add("svc.udp_kernel_drops", static_cast<double>(udp.kernel_drops),
             "count");
  result.add("svc.udp_shed", static_cast<double>(udp.shed), "count");
  result.add("svc.udp_loss_frac", udp.loss_frac, "frac");
  result.add("bench.gen_max_lag_ms", udp.gen_max_lag_ms, "ms");
  result.add("bench.gen_late_frac", udp.gen_late_frac, "frac");
}

}  // namespace booterscope::e2e
