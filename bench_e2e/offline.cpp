// The offline workloads. `paper` runs the paper's density, 300 attacks/day
// on one thread, where the day-shard generator dominates. `dense` packs ten
// times more attacks into each day on two threads, so the single-threaded
// drain into the analysis sits on the critical path and the drain,
// analysis and pool show. Both end in the Fig. 4 panels, the control series
// and Fig. 5, with verdicts. The untraced run averages over several short
// worlds; the traced run traces the full job (the paper's own 122 days, or
// dense's 40) at the seed itself.
#include <array>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/stream_analysis.hpp"
#include "core/takedown.hpp"
#include "e2e.hpp"
#include "ingest_source.hpp"
#include "pipeline.hpp"

namespace booterscope::e2e {

namespace {

constexpr std::size_t kPasses = 2;
/// Rows per vantage of a traced offline run that its ingest passes
/// re-encode: enough datagrams (about 10 000 per vantage) that the p99.9
/// call latency has ten samples beyond it.
constexpr std::uint64_t kSampleRows = 300'000;

/// How a workload runs: the untraced run measures worlds of `world_days`
/// days, kPasses times each, the traced run one job of `full_days`.
struct Shape {
  int world_days = 0;
  int full_days = 0;             // 0 = the paper window
  double attacks_per_day = 0.0;  // 0 = the paper demand
  std::size_t threads = 1;
  /// Wall of one world on a 4-core x86 box: sets how many worlds fill
  /// the measured seconds.
  double nominal_world_s = 1.0;
};

[[nodiscard]] Shape shape_of(const Options& options) {
  const bool dense = options.workload == "dense";
  const std::size_t threads = dense ? 2 : 1;
  if (options.smoke) return {6, 6, 40.0, threads, 1.0};
  if (dense) return {4, 40, 3000.0, threads, 0.6};
  return {10, 0, 0.0, threads, 0.4};
}

/// The Fig. 4 panels in the paper's print order, then the control series.
[[nodiscard]] std::vector<core::SeriesSpec> figure_specs() {
  struct Panel {
    std::uint16_t port;
    std::size_t vantage;
  };
  static constexpr Panel kPanels[] = {
      {net::ports::kMemcached, flow::kVantageIxp},
      {net::ports::kNtp, flow::kVantageTier2},
      {net::ports::kDns, flow::kVantageTier2},
      {net::ports::kNtp, flow::kVantageIxp},
      {net::ports::kMemcached, flow::kVantageTier2},
      {net::ports::kDns, flow::kVantageIxp},
  };
  std::vector<core::SeriesSpec> specs;
  for (const Panel& panel : kPanels) {
    core::SeriesSpec spec;
    spec.vantage = panel.vantage;
    spec.kind = core::SeriesSpec::Kind::kToPort;
    spec.port = panel.port;
    specs.push_back(spec);
  }
  core::SeriesSpec control;
  control.vantage = flow::kVantageIxp;
  control.kind = core::SeriesSpec::Kind::kFromReflectors;
  specs.push_back(control);
  return specs;
}

/// wt30 significance at seed 7 on the paper config, in figure_specs()
/// order followed by Fig. 5: five panels reduce, DNS at the IXP does not,
/// and neither the control nor the attacked systems do.
constexpr std::array<bool, 8> kPinnedWt30 = {true, true,  true,  true,
                                             true, false, false, false};

struct Job {
  std::uint64_t items = 0;  // attacks + kept flows
  std::vector<core::TakedownMetrics> verdicts;
  bool online_matches = true;
};

/// Seed to verdicts: the streaming landscape into one StreamAnalysis, then
/// each series' verdict both from takedown_metrics and from the online
/// Welford accumulator. With a tracer, the analysis sits behind a
/// LayerSink that also feeds `sample`.
[[nodiscard]] Job run_job(const sim::Internet& internet,
                          const sim::LandscapeConfig& config,
                          exec::ThreadPool& pool, obs::StageTracer* tracer,
                          flow::FlowBatchSink* sample) {
  core::StreamAnalysis analysis(config.start, config.days, figure_specs());
  analysis.enable_hourly_victims(flow::kVantageIxp, {});
  sim::StreamSummary summary;
  if (tracer == nullptr) {
    summary = sim::run_landscape_stream(internet, config, pool, analysis);
  } else {
    LayerSink sink(*tracer, analysis, sample, "bench.sample");
    summary =
        sim::run_landscape_stream(internet, config, pool, sink, {}, tracer);
  }

  Job job;
  const obs::StageTimer timer(tracer, "core.verdict");
  analysis.finish();
  const util::Timestamp takedown = *config.takedown;
  std::vector<stats::BinnedSeries> daily;
  for (std::size_t i = 0; i < analysis.series_count(); ++i) {
    daily.push_back(analysis.series(i));
  }
  daily.push_back(analysis.hourly_victims().rebin(util::Duration::days(1)));
  for (const stats::BinnedSeries& series : daily) {
    core::TakedownAccumulator online(takedown);
    online.add_series(series);
    job.verdicts.push_back(core::takedown_metrics(series, takedown));
    job.online_matches =
        job.online_matches && same_verdict(online.finish(), job.verdicts.back());
  }
  job.items = summary.attack_count + analysis.total_kept_flows();
  return job;
}

/// Checks one job against the first of the run: same items, same bits.
void check_job(Result& result, const Job& job, const std::optional<Job>& first) {
  result.check(job.online_matches,
               "online Welford verdicts differ from takedown_metrics");
  if (!first) return;
  result.check(job.items == first->items, "items differ between repetitions");
  bool same = job.verdicts.size() == first->verdicts.size();
  for (std::size_t i = 0; same && i < job.verdicts.size(); ++i) {
    same = same_verdict(job.verdicts[i], first->verdicts[i]);
  }
  result.check(same, "verdicts differ between repetitions");
}

/// Forwards whole batches until `limit` rows of their vantage have
/// passed, and every day barrier: the slice of an offline run its traced
/// ingest passes replay. The cap is per vantage because the paper config
/// opens each vantage's observation window on a different day.
class SampleSink final : public flow::FlowBatchSink {
 public:
  SampleSink(flow::FlowBatchSink& inner, std::uint64_t limit)
      : inner_(inner), limit_(limit) {}

  void consume(std::size_t vantage, const flow::FlowBatchView& batch) override {
    if (forwarded_[vantage] >= limit_) return;
    forwarded_[vantage] += batch.size();
    inner_.consume(vantage, batch);
  }
  void day_complete(int day, util::Timestamp day_start) override {
    inner_.day_complete(day, day_start);
  }

 private:
  flow::FlowBatchSink& inner_;
  std::uint64_t limit_;
  std::uint64_t forwarded_[flow::kVantageCount] = {0, 0, 0};
};

/// The traced run: one traced job on a fresh pool with the timeline and the
/// profiler attached, between two untraced ones that give the reference wall for
/// the tracing overhead, then the ingest passes over a re-encoded slice of
/// its rows.
void trace_offline(Result& result, const Options& options,
                   const sim::Internet& internet,
                   const sim::LandscapeConfig& config, exec::ThreadPool& pool) {
  const auto untraced_job = [&] {
    const std::int64_t begin = util::monotonic_nanos();
    Job job = run_job(internet, config, pool, nullptr, nullptr);
    return std::pair{std::move(job), seconds_between(begin, util::monotonic_nanos())};
  };
  // The first untraced job also gives the job's memory and CPU per item.
  std::pair<Job, double> before;
  const double cpu_begin = process_cpu_seconds();
  const double peak_mib = peak_added_mib([&] { before = untraced_job(); });
  const double cpu_s = process_cpu_seconds() - cpu_begin;
  const auto& [plain, untraced_before_s] = before;

  obs::StageTracer tracer;
  exec::ThreadPool traced_pool(pool.size());
  obs::TimelineRecorder timeline(traced_pool.size() + 1);
  obs::prof::Profiler profiler(shard_profiler_options(traced_pool));
  tracer.set_timeline(&timeline);
  tracer.set_profiler(&profiler);
  traced_pool.attach_timeline(&timeline);
  traced_pool.attach_profiler(&profiler);
  ScheduleBuilder builder(config.start, options.seed, fault::FaultProfile::none());
  SampleSink sample(builder, kSampleRows);
  const std::int64_t begin = util::monotonic_nanos();
  const Job traced = run_job(internet, config, traced_pool, &tracer, &sample);
  const double traced_s = seconds_between(begin, util::monotonic_nanos());
  traced_pool.attach_profiler(nullptr);
  traced_pool.attach_timeline(nullptr);
  tracer.set_profiler(nullptr);
  tracer.set_timeline(nullptr);
  const double untraced_s = (untraced_before_s + untraced_job().second) / 2.0;
  result.attempted += static_cast<std::uint64_t>(config.days);
  check_job(result, traced, plain);
  if (options.workload == "paper" && !options.smoke && options.seed == 7) {
    bool pinned = traced.verdicts.size() == kPinnedWt30.size();
    for (std::size_t i = 0; pinned && i < kPinnedWt30.size(); ++i) {
      pinned = traced.verdicts[i].wt30.significant == kPinnedWt30[i];
    }
    result.check(pinned, "seed 7 wt30 verdicts differ from the pinned ones");
  }

  const double sample_s = stage_total_seconds(tracer, "bench.sample");
  const double layers_s = stage_total_seconds(tracer, "day_shards") +
                          stage_self_seconds(tracer, "drain") +
                          stage_total_seconds(tracer, "core.consume") +
                          stage_total_seconds(tracer, "core.day_complete") +
                          stage_total_seconds(tracer, "core.verdict");
  add_landscape_layers(result, tracer, profiler, busy_seconds(traced_pool),
                       traced_pool.size());
  result.add("obs.trace_overhead_frac", (traced_s - sample_s) / untraced_s - 1.0,
             "frac");
  result.add("obs.layer_coverage_frac", layers_s / (traced_s - sample_s), "frac");
  result.add("bench.peak_rss_mib", peak_mib, "MiB");
  result.add("bench.cpu_ns_per_item",
             per_unit_ns(cpu_s, static_cast<double>(plain.items)), "ns");

  const Schedule schedule = builder.finish();
  const ReplayOutcome replayed = add_ingest_layers(
      result, tracer, schedule, daemon_config(config), ReplayPolicy{});
  result.check(replayed.tally.balanced(), "sample replay ledger unbalanced");
  result.check(replayed.rows == schedule.rows_encoded,
               "sample replay decoded a different number of rows");
  add_udp_layers(result, UdpLayers{});

  const std::string id = "e2e_" + options.workload;
  bench::write_perf_ledger(id, config, &tracer, &traced_pool,
                           static_cast<std::uint64_t>(traced_s * 1e9),
                           traced.items, "none", 0, nullptr, &profiler);
  bench::write_timeline(id, &timeline);
  bench::write_folded_profile(id, &profiler, &tracer, nullptr);
}

}  // namespace

Result run_offline(const Options& options) {
  const Shape shape = shape_of(options);
  // Every job sets up afresh, as a run of its own would: the thread pool
  // and the Internet. Timing each set-up spreads the samples over the
  // whole run, so a short slow spell on the machine moves their median
  // little.
  std::optional<exec::ThreadPool> pool;
  std::optional<sim::Internet> internet;
  std::vector<double> setups;
  double internet_s = 0.0;
  const auto set_up = [&] {
    const std::int64_t begin = util::monotonic_nanos();
    pool.reset();
    pool.emplace(shape.threads);
    const std::int64_t internet_begin = util::monotonic_nanos();
    internet.emplace(sim::InternetConfig{});
    const std::int64_t end = util::monotonic_nanos();
    internet_s = seconds_between(internet_begin, end);
    setups.push_back(seconds_between(begin, end));
  };

  Result result;
  if (options.trace) {
    set_up();
    result.add("sim.internet_build_s", internet_s, "s");
    trace_offline(result, options, *internet,
                  landscape(shape.full_days, shape.attacks_per_day, options.seed),
                  *pool);
    return result;
  }

  // Each world runs once per pass; the second pass gives every world a
  // second chance at an undisturbed wall time and checks that it repeats.
  const std::size_t passes = options.smoke ? 1 : kPasses;
  const std::size_t worlds =
      options.smoke
          ? 1
          : reps_for(options.seconds, shape.nominal_world_s * kPasses);
  WorldSamples samples(worlds);
  std::vector<std::optional<Job>> first(worlds);
  for (std::size_t pass = 0; pass < passes; ++pass) {
    for (std::size_t world = 0; world < worlds; ++world) {
      set_up();
      const sim::LandscapeConfig config =
          landscape(shape.world_days, shape.attacks_per_day,
                    world_seed(options.seed, world));
      const std::int64_t begin = util::monotonic_nanos();
      Job job = run_job(*internet, config, *pool, nullptr, nullptr);
      samples.add(world, seconds_between(begin, util::monotonic_nanos()),
                  static_cast<double>(job.items));
      result.attempted += static_cast<std::uint64_t>(config.days);
      check_job(result, job, first[world]);
      if (!first[world]) first[world] = std::move(job);
    }
  }
  samples.report(result, median(setups));
  return result;
}

}  // namespace booterscope::e2e
