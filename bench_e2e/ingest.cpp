// The ingest workloads replay a landscape re-encoded as export datagrams
// (ingest_source.hpp) into the daemon. `ingest` is the clean path: every
// datagram decodes and the ring never fills, so decode, sessions, batcher
// and analysis do all of the timed work. `ingest_faulted` sends the same
// kind of schedule through heavy channel faults and a flapping exporter
// into a 256-slot ring with overload bursts, so salvage, dedup,
// quarantine and shedding run. `udp` is the only workload through the
// socket layer: an open-loop generator feeds a live daemon over loopback.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/stream_analysis.hpp"
#include "e2e.hpp"
#include "ingest_source.hpp"
#include "pipeline.hpp"
#include "svc/daemon.hpp"
#include "svc/udp.hpp"

namespace booterscope::e2e {

namespace {

constexpr int kSetups = 3;

/// How a workload runs: the untraced run sets up `worlds` schedules of
/// `world_days` days and replays all of them once per repetition; the
/// traced run sets up one `full_days` schedule at the seed itself.
struct Shape {
  int world_days = 0;
  std::size_t worlds = 1;
  int full_days = 0;
  double attacks_per_day = 0.0;  // 0 = the paper demand
  /// Wall of one repetition on a 4-core x86 box: sets how many
  /// repetitions fill the measured seconds.
  double nominal_rep_s = 1.0;
};

struct Source {
  sim::LandscapeConfig config;
  Schedule schedule;
};

/// A clean landscape re-encoded as a datagram schedule; the seed is also
/// the fault seed. With a tracer, the rows also feed the daemon's analysis
/// series behind a LayerSink, so the sim, exec, flow-drain and core layers
/// are measured on the rows the daemon later sees.
[[nodiscard]] Source build_source(const sim::Internet& internet, int days,
                                  double attacks_per_day, std::uint64_t seed,
                                  const fault::FaultProfile& profile,
                                  exec::ThreadPool& pool,
                                  obs::StageTracer* tracer) {
  Source source{landscape(days, attacks_per_day, seed), {}};
  ScheduleBuilder builder(source.config.start, seed, profile);
  if (tracer == nullptr) {
    (void)sim::run_landscape_stream(internet, source.config, pool, builder);
  } else {
    core::StreamAnalysis analysis(source.config.start, source.config.days,
                                  daemon_config(source.config).specs);
    LayerSink sink(*tracer, analysis, &builder, "bench.encode");
    (void)sim::run_landscape_stream(internet, source.config, pool, sink, {},
                                    tracer);
    const obs::StageTimer timer(tracer, "core.verdict");
    analysis.finish();
    core::TakedownAccumulator verdict(*source.config.takedown);
    verdict.add_series(analysis.series(0));
    (void)verdict.finish();
  }
  source.schedule = builder.finish();
  return source;
}

/// The inputs every ingest run sets up: the Internet, a one-thread pool for
/// the landscapes, and the schedules.
struct Setup {
  std::optional<sim::Internet> internet;
  std::optional<exec::ThreadPool> pool;
  std::vector<Source> sources;
  obs::StageTracer tracer;
  std::optional<obs::TimelineRecorder> timeline;
  std::optional<obs::prof::Profiler> profiler;
  double setup_s = 0.0;
  double internet_s = 0.0;
};

void set_up(Setup& setup, const Options& options, const Shape& shape,
            const fault::FaultProfile& profile) {
  setup.setup_s = median_setup(options.trace ? 1 : kSetups, [&] {
    setup.sources.clear();
    setup.pool.reset();
    const std::int64_t begin = util::monotonic_nanos();
    setup.internet.emplace(sim::InternetConfig{});
    setup.internet_s = seconds_between(begin, util::monotonic_nanos());
    setup.pool.emplace(1);
    if (!options.trace) {
      for (std::size_t world = 0; world < shape.worlds; ++world) {
        setup.sources.push_back(build_source(
            *setup.internet, shape.world_days, shape.attacks_per_day,
            world_seed(options.seed, world), profile, *setup.pool, nullptr));
      }
      return;
    }
    setup.timeline.emplace(setup.pool->size() + 1);
    setup.profiler.emplace(shard_profiler_options(*setup.pool));
    setup.tracer.set_timeline(&*setup.timeline);
    setup.tracer.set_profiler(&*setup.profiler);
    setup.pool->attach_timeline(&*setup.timeline);
    setup.pool->attach_profiler(&*setup.profiler);
    setup.sources.push_back(build_source(*setup.internet, shape.full_days,
                                         shape.attacks_per_day, options.seed,
                                         profile, *setup.pool, &setup.tracer));
    setup.pool->attach_profiler(nullptr);
    setup.pool->attach_timeline(nullptr);
    setup.tracer.set_profiler(nullptr);
    setup.tracer.set_timeline(nullptr);
  });
}

/// Datagrams the daemon's ledger does not account for.
[[nodiscard]] std::uint64_t unaccounted(const fault::IntegrityTally& tally) {
  return tally.lhs() > tally.rhs() ? tally.lhs() - tally.rhs()
                                   : tally.rhs() - tally.lhs();
}

void check_replay(Result& result, const ReplayOutcome& out,
                  const Schedule& schedule, bool faulted,
                  const std::optional<ReplayOutcome>& first) {
  result.check(out.tally.balanced(), "daemon ledger unbalanced");
  result.check(out.verdict.has_value(), "daemon produced no verdict");
  if (faulted) {
    // Channel faults are counted where they happen and the daemon's
    // ledger from there on, as in bench_soak; the flapper's datagrams
    // crossed no channel and enter at the daemon.
    fault::IntegrityTally combined;
    combined.note_channel(schedule.channels);
    combined.offered += schedule.unchanneled;
    fault::IntegrityTally daemon = out.tally;
    daemon.offered = 0;
    combined.merge(daemon);
    result.check(combined.balanced(), "channel + daemon ledger unbalanced");
    result.check(out.shed > 0, "overload bursts shed nothing");
    result.check(out.quarantine_events > 0, "no exporter was quarantined");
    result.check(out.readmissions > 0, "no exporter was readmitted");
  } else {
    result.check(out.rows == schedule.rows_encoded,
                 "rows decoded differ from rows encoded");
    result.check(out.shed == 0 && out.tally.failed == 0 &&
                     out.late_rows == 0 && out.wild_rows == 0,
                 "clean replay shed, failed or dropped rows");
  }
  if (!first) return;
  result.check(out.rows == first->rows && out.shed == first->shed &&
                   out.quarantine_events == first->quarantine_events &&
                   out.readmissions == first->readmissions &&
                   out.tally.failed == first->tally.failed &&
                   out.tally.recovered == first->tally.recovered,
               "replay counts differ between repetitions");
  result.check(out.verdict && first->verdict &&
                   same_verdict(*out.verdict, *first->verdict),
               "daemon verdicts differ between repetitions");
}

/// The traced ingest run: the landscape layers from the traced setup, then
/// the single-layer passes and a timed replay between two untraced ones.
void trace_ingest(Result& result, const Options& options, Setup& setup,
                  const ReplayPolicy& policy, bool faulted) {
  const Source& source = setup.sources.front();
  const svc::DaemonConfig config = daemon_config(source.config);
  result.add("sim.internet_build_s", setup.internet_s, "s");
  add_landscape_layers(result, setup.tracer, *setup.profiler,
                       busy_seconds(*setup.pool), setup.pool->size());
  // Untraced replays on both sides of the timed one give its reference;
  // the first also gives the daemon's memory.
  ReplayOutcome plain;
  const double peak_mib = peak_added_mib(
      [&] { plain = replay(source.schedule, config, policy, false); });
  const ReplayOutcome timed =
      add_ingest_layers(result, setup.tracer, source.schedule, config, policy);
  const double untraced_s =
      (plain.wall_s + replay(source.schedule, config, policy, false).wall_s) / 2.0;
  result.attempted += timed.offered;
  result.failed += unaccounted(timed.tally);
  check_replay(result, timed, source.schedule, faulted, plain);
  result.add("obs.trace_overhead_frac", timed.wall_s / untraced_s - 1.0, "frac");
  result.add("obs.layer_coverage_frac",
             (timed.offer_s + timed.pump_s + timed.drain_s) / timed.wall_s,
             "frac");
  result.add("bench.peak_rss_mib", peak_mib, "MiB");
  if (options.workload != "udp") {
    result.add("bench.cpu_ns_per_item",
               per_unit_ns(plain.cpu_s, static_cast<double>(plain.rows)), "ns");
  }

  const std::string id = "e2e_" + options.workload;
  bench::write_perf_ledger(id, source.config, &setup.tracer, &*setup.pool,
                           static_cast<std::uint64_t>(timed.wall_s * 1e9),
                           timed.rows, faulted ? "heavy" : "none",
                           faulted ? options.seed : 0, nullptr, &*setup.profiler);
  bench::write_timeline(id, &*setup.timeline);
  bench::write_folded_profile(id, &*setup.profiler, &setup.tracer, nullptr);
}

// --- udp -------------------------------------------------------------------

/// Both phases are open loop: the generator sends the whole schedule at a
/// fixed rate whether or not the daemon keeps up.
///
/// Paced: far below the loss knee (40 000-80 000 datagrams/s on a 4-core
/// x86 VM), the rate delivered and the CPU cost of the socket path at a
/// load the daemon sustains. Loopback buffers about 90 datagrams, 36 ms at
/// this rate, so a briefly descheduled receiver still loses nothing. At
/// 5 000/s (18 ms) one run in about twenty lost a few datagrams that way.
constexpr double kPacedRate = 2'500.0;
/// Overload (traced runs only): past the knee, where the loss goes; low
/// enough that the generator mostly keeps its schedule.
constexpr double kOverloadRate = 120'000.0;
/// A send more than this past its due time counts as late. More than
/// kMaxLateFrac late sends over a run's paced phases make it invalid, since
/// a stalled generator would read as a daemon that keeps up; the overload
/// phase only reports its lateness.
constexpr std::int64_t kLateNanos = 1'000'000;
constexpr double kMaxLateFrac = 0.01;
/// The daemon is done once analysed rows stop changing for this long.
constexpr std::int64_t kQuietNanos = 50'000'000;

struct UdpOutcome {
  bool started = false;
  std::uint64_t sent = 0;
  std::uint64_t send_errors = 0;
  std::uint64_t received = 0;
  std::uint64_t shed = 0;
  std::uint64_t rows = 0;
  std::uint64_t expected_rows = 0;  // carried by the datagrams sent
  double active_s = 0.0;            // first send to last row analysed
  double daemon_cpu_s = 0.0;        // process CPU minus the generator's
  double max_lag_ms = 0.0;
  std::uint64_t late = 0;  // sends more than kLateNanos past due
  bool balanced = false;

  [[nodiscard]] std::uint64_t kernel_drops() const { return sent - received; }
};

[[nodiscard]] UdpOutcome run_phase(const Schedule& schedule,
                                   const svc::DaemonConfig& config,
                                   double rate) {
  UdpOutcome out;
  svc::Daemon daemon(config);
  if (!daemon.start(0)) return out;
  // One socket per vantage exporter: the daemon keys sessions by source.
  std::vector<svc::UdpSender> senders(flow::kVantageCount);
  for (svc::UdpSender& sender : senders) {
    if (!sender.open(daemon.udp_port())) return out;
  }
  out.started = true;

  using Clock = std::chrono::steady_clock;
  const auto gap = std::chrono::nanoseconds(
      static_cast<std::int64_t>(1e9 / rate));
  const std::size_t count = schedule.datagrams.size();
  std::chrono::nanoseconds max_lag{0};
  const double cpu_begin = process_cpu_seconds();
  const double generator_begin = thread_cpu_seconds();
  const Clock::time_point begin = Clock::now();
  for (std::size_t i = 0; i < count; ++i) {
    const Clock::time_point due = begin + gap * static_cast<std::int64_t>(i);
    Clock::time_point now = Clock::now();
    if (now < due) {
      std::this_thread::sleep_until(due);
      now = Clock::now();
    }
    const auto lag = std::chrono::duration_cast<std::chrono::nanoseconds>(now - due);
    max_lag = std::max(max_lag, lag);
    if (lag.count() > kLateNanos) ++out.late;
    const Datagram& datagram = schedule.datagrams[i];
    if (!senders[datagram.exporter].send(datagram.bytes)) ++out.send_errors;
    out.expected_rows += datagram.rows;
  }
  out.sent = count;

  // The socket and ring are empty once analysed rows stop changing.
  std::uint64_t rows = daemon.rows();
  Clock::time_point last_change = Clock::now();
  for (;;) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    const Clock::time_point now = Clock::now();
    const std::uint64_t current = daemon.rows();
    if (current != rows) {
      rows = current;
      last_change = now;
    } else if (now - last_change > std::chrono::nanoseconds(kQuietNanos)) {
      break;
    }
  }
  out.daemon_cpu_s = (process_cpu_seconds() - cpu_begin) -
                     (thread_cpu_seconds() - generator_begin);
  out.active_s = std::chrono::duration<double>(last_change - begin).count();
  daemon.drain(util::monotonic_nanos());

  out.received = daemon.received();
  out.shed = daemon.shed();
  out.rows = daemon.rows();
  out.max_lag_ms = std::chrono::duration<double, std::milli>(max_lag).count();
  out.balanced = daemon.merged_tally().balanced();
  return out;
}

void check_phase(Result& result, const UdpOutcome& out, const char* phase) {
  const std::string name(phase);
  result.check(out.started, name + ": no loopback UDP sockets");
  if (!out.started) return;
  result.check(out.send_errors == 0, name + ": sends failed");
  result.check(out.balanced, name + ": daemon ledger unbalanced");
  const bool lossless = out.kernel_drops() == 0 && out.shed == 0;
  result.check(lossless ? out.rows == out.expected_rows
                        : out.rows <= out.expected_rows,
               name + ": rows analysed do not match the datagrams received");
}

[[nodiscard]] double late_frac(std::uint64_t late, std::uint64_t sent) {
  return sent > 0 ? static_cast<double>(late) / static_cast<double>(sent) : 0.0;
}

/// A run whose paced sends ran late too often measured a stalled generator,
/// not the daemon.
void check_generator(Result& result, std::uint64_t late, std::uint64_t sent) {
  result.check(late_frac(late, sent) <= kMaxLateFrac,
               "the generator fell behind its schedule: run invalid");
}

void log_phase(const UdpOutcome& out, const char* phase) {
  std::fprintf(stderr,
               "udp %s: %llu sent, %llu dropped by the kernel, %llu shed; "
               "generator max lag %.3f ms, %llu late\n",
               phase, static_cast<unsigned long long>(out.sent),
               static_cast<unsigned long long>(out.kernel_drops()),
               static_cast<unsigned long long>(out.shed), out.max_lag_ms,
               static_cast<unsigned long long>(out.late));
}

[[nodiscard]] double loss_frac(const UdpOutcome& out) {
  return out.sent > 0 ? static_cast<double>(out.kernel_drops() + out.shed) /
                            static_cast<double>(out.sent)
                      : 0.0;
}

}  // namespace

Result run_ingest(const Options& options) {
  const bool faulted = options.workload == "ingest_faulted";
  const Shape shape =
      options.smoke ? Shape{6, 1, 6, 40.0, 1.0} : Shape{8, 4, 30, 0.0, 0.3};
  const fault::FaultProfile profile =
      faulted ? fault::FaultProfile::heavy() : fault::FaultProfile::none();
  const ReplayPolicy policy =
      faulted ? ReplayPolicy{256, true} : ReplayPolicy{4096, false};

  Setup setup;
  set_up(setup, options, shape, profile);
  Result result;
  if (options.trace) {
    trace_ingest(result, options, setup, policy, faulted);
    add_udp_layers(result, UdpLayers{});
    return result;
  }

  const std::size_t reps =
      options.smoke ? 1 : reps_for(options.seconds, shape.nominal_rep_s);
  WorldSamples samples(setup.sources.size());
  std::vector<std::optional<ReplayOutcome>> first(setup.sources.size());
  for (std::size_t rep = 0; rep < reps; ++rep) {
    for (std::size_t world = 0; world < setup.sources.size(); ++world) {
      const Source& source = setup.sources[world];
      ReplayOutcome out =
          replay(source.schedule, daemon_config(source.config), policy, false);
      samples.add(world, out.wall_s, static_cast<double>(out.rows));
      result.attempted += out.offered;
      result.failed += unaccounted(out.tally);
      check_replay(result, out, source.schedule, faulted, first[world]);
      if (!first[world]) first[world] = std::move(out);
    }
  }
  samples.report(result, setup.setup_s);
  return result;
}

Result run_udp(const Options& options) {
  const Shape shape =
      options.smoke ? Shape{6, 1, 6, 40.0, 1.0} : Shape{1, 4, 10, 0.0, 5.0};
  Setup setup;
  set_up(setup, options, shape, fault::FaultProfile::none());

  Result result;
  if (options.trace) {
    trace_ingest(result, options, setup, ReplayPolicy{}, false);
    const Source& source = setup.sources.front();
    const svc::DaemonConfig config = daemon_config(source.config);
    const UdpOutcome paced = run_phase(source.schedule, config, kPacedRate);
    const UdpOutcome flooded = run_phase(source.schedule, config, kOverloadRate);
    check_phase(result, paced, "paced");
    check_phase(result, flooded, "overload");
    check_generator(result, paced.late, paced.sent);
    log_phase(paced, "paced");
    log_phase(flooded, "overload");
    add_udp_layers(result, UdpLayers{flooded.kernel_drops(), flooded.shed,
                                     loss_frac(flooded), paced.max_lag_ms,
                                     late_frac(paced.late, paced.sent)});
    // The socket path's cost: the receiver and decode threads' CPU.
    result.add("bench.cpu_ns_per_item",
               per_unit_ns(paced.daemon_cpu_s, static_cast<double>(paced.rows)),
               "ns");
    return result;
  }

  const std::size_t reps =
      options.smoke ? 1 : reps_for(options.seconds, shape.nominal_rep_s);
  WorldSamples samples(setup.sources.size());
  std::uint64_t late = 0;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    for (std::size_t world = 0; world < setup.sources.size(); ++world) {
      const Source& source = setup.sources[world];
      const UdpOutcome paced =
          run_phase(source.schedule, daemon_config(source.config), kPacedRate);
      check_phase(result, paced, "paced");
      log_phase(paced, "paced");
      late += paced.late;
      result.attempted += paced.sent;
      result.failed += paced.kernel_drops() + paced.shed;
      samples.add(world, paced.active_s, static_cast<double>(paced.rows));
    }
  }
  check_generator(result, late, result.attempted);
  samples.report(result, setup.setup_s);
  return result;
}

}  // namespace booterscope::e2e
