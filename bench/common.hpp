// Shared harness for the per-figure bench binaries.
//
// Each bench binary reproduces one table or figure of the paper: it builds
// the synthetic Internet, runs the relevant experiment, prints the same
// rows/series the paper reports, and appends a paper-vs-measured
// comparison. Everything is deterministic for the default seeds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <memory>

#include "fault/fault.hpp"
#include "obs/live/resource_sampler.hpp"
#include "obs/live/scrape_server.hpp"
#include "obs/live/watchdog.hpp"
#include "obs/manifest.hpp"
#include "obs/perf_ledger.hpp"
#include "obs/prof/profiler.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "sim/booter.hpp"
#include "sim/internet.hpp"
#include "sim/landscape.hpp"
#include "sim/landscape_stream.hpp"
#include "sim/selfattack.hpp"
#include "util/table.hpp"
#include "exec/thread_pool.hpp"

namespace booterscope::bench {

/// Prints the standard bench header naming the figure being reproduced.
void print_header(const std::string& experiment_id, const std::string& title);

/// Command-line options shared by the bench binaries:
///   --threads N          worker threads for the parallel drivers (default 1)
///   --days N             shrink the landscape window to N days (CI smoke)
///   --attacks-per-day X  override attack demand (CI smoke)
///   --seed N             override the master seed
///   --fault-profile P    inject faults: none | light | heavy (default none)
///   --fault-seed N       seed of the fault schedule (default 1)
///   --timeline           record a begin/end execution timeline and write it
///                        as OBS_<id>.trace.json (Chrome trace-event format,
///                        open in Perfetto) next to the bench output
///   --prof               profile the run with hardware counters
///                        (obs::prof): per-stage cycles/instructions/cache/
///                        branch counters in the perf ledger's hw_counters
///                        block and folded stacks in OBS_<id>.folded.txt
///                        (flamegraph.pl input). Degrades tier by tier when
///                        the PMU or perf_event_paranoid says no, bottoming
///                        out at an explicit prof_unavailable reason —
///                        never fake zeros. BOOTERSCOPE_PROF_FORCE pins or
///                        fails the ladder for tests/CI.
///   --sample-interval-ms N  resource sampling cadence for the live plane
///                        (default 25; 0 disables sampling entirely)
///   --serve PORT         serve /metrics, /healthz and /stages on
///                        127.0.0.1:PORT while the run is alive (0 binds an
///                        ephemeral port, printed on startup)
///   --serve-hold-ms N    keep the process (and the scrape endpoint) alive
///                        N ms after the outputs are written, so an external
///                        scraper reliably catches the run (CI smoke)
///   --stream-batch N     rows per columnar batch of the streaming engine
///                        (default 8192; any value produces the same bytes)
/// Defaults reproduce the paper figures; any --threads value produces the
/// same bytes (DESIGN.md §9), so the flags only trade wall-clock and scale.
/// Faulted runs are equally deterministic: the fault schedule is a pure
/// function of --fault-seed, never of thread timing. --timeline and --prof
/// change what is *recorded*, never what is computed, and the live plane
/// (sampler, watchdog, scrape server) is an observer with the same
/// guarantee: simulation output is byte-identical with any of them on or
/// off (DESIGN.md §13, pinned by tests/obs/live_determinism_test.cpp).
struct RunOptions {
  std::size_t threads = 1;
  int days = 0;                  // 0 = paper window (122 days)
  double attacks_per_day = 0.0;  // 0 = config default
  std::uint64_t seed = 0;        // 0 = config default
  std::string fault_profile = "none";
  std::uint64_t fault_seed = 1;
  bool timeline = false;
  bool prof = false;  // hardware-counter profiling (obs::prof)
  int sample_interval_ms = 25;   // 0 = sampler off
  int serve_port = -1;           // -1 = no scrape endpoint, 0 = ephemeral
  int serve_hold_ms = 0;         // post-run scrape window
  std::size_t stream_batch = 0;  // 0 = FlowBatch::kDefaultCapacity
};

/// Parses the flags above; exits with a usage message on anything unknown.
[[nodiscard]] RunOptions parse_run_options(int argc, char** argv);

/// Applies RunOptions overrides to a landscape config. Shrinking the window
/// (--days) moves the takedown to 2/3 through it and clears the per-vantage
/// observation windows so every vantage sees the whole (tiny) run.
[[nodiscard]] sim::LandscapeConfig apply_run_options(
    sim::LandscapeConfig config, const RunOptions& options);

/// One paper-vs-measured comparison row.
struct Comparison {
  std::string quantity;
  std::string paper;
  std::string measured;
};
void print_comparisons(const std::vector<Comparison>& rows);

/// The world shared by the self-attack benches: Internet + the four
/// purchased booters of Table 1 wired to reflector pools.
class SelfAttackWorld {
 public:
  SelfAttackWorld();

  [[nodiscard]] const sim::Internet& internet() const noexcept { return internet_; }
  [[nodiscard]] sim::SelfAttackLab& lab() noexcept { return *lab_; }
  [[nodiscard]] const std::vector<sim::BooterService>& services() const noexcept {
    return services_;
  }
  [[nodiscard]] net::Asn transit_asn() const noexcept;

  /// The paper's measurement campaign (April - September 2018): 16
  /// attacks, chronologically ordered. The first 10 entries marked
  /// `fig1a` are the non-VIP runs of Fig. 1(a); the VIP runs of Fig. 1(b)
  /// are flagged `vip`.
  struct CampaignEntry {
    sim::SelfAttackSpec spec;
    bool fig1a = false;
  };
  [[nodiscard]] static std::vector<CampaignEntry> campaign();

  /// Runs all campaign entries in chronological order.
  [[nodiscard]] std::vector<sim::SelfAttackResult> run_campaign();

 private:
  sim::Internet internet_;
  std::vector<sim::ReflectorPool> pools_;
  std::vector<sim::BooterService> services_;
  std::optional<sim::SelfAttackLab> lab_;
};

/// Writes the observability record of a landscape run next to the bench
/// output: OBS_<id>.manifest.json (RunManifest: seed, config, git describe,
/// stage table, drop/eviction accounting) and OBS_<id>.prom (Prometheus
/// text). This is what makes a bench's printed numbers attributable later.
void write_observability(const std::string& experiment_id,
                         const sim::LandscapeConfig& config,
                         const obs::StageTracer* tracer,
                         std::size_t threads = 1,
                         const fault::IntegrityTally* integrity = nullptr,
                         const std::string& fault_profile = "none",
                         std::uint64_t fault_seed = 0);

/// Writes BENCH_<id>.json — the perf ledger tools/benchdiff compares
/// against the committed baselines in bench/baselines/. `items` is the
/// run's deterministic output count (attacks + stored flows): exact-match
/// comparable across machines whenever the config identity matches.
/// No-op under BOOTERSCOPE_NO_METRICS (so a metrics-free build never
/// emits half-empty ledgers that would trip the differ).
/// `extra_config` appends additional identity pairs after the standard
/// ones (the streaming harness records {"stream","true"} and its batch
/// size; benchdiff excludes both from identity since they do not change
/// the output bytes). A non-null `profiler` fills the schema-/3
/// hw_counters block (per-stage counters, or the explicit prof_unavailable
/// reason when the degradation ladder bottomed out); --prof itself is NOT
/// recorded as a config key — like --threads, it changes what is measured,
/// not what is computed, so profiled candidates stay comparable to
/// unprofiled baselines. The flow_micro block is harvested from the
/// booterscope_flow_* registry series whenever a collector ran,
/// independent of profiling.
void write_perf_ledger(
    const std::string& experiment_id, const sim::LandscapeConfig& config,
    const obs::StageTracer* tracer, const exec::ThreadPool* pool,
    std::uint64_t run_wall_nanos, std::uint64_t items,
    const std::string& fault_profile = "none", std::uint64_t fault_seed = 0,
    const obs::live::ResourceSampler* sampler = nullptr,
    const obs::prof::Profiler* profiler = nullptr,
    const std::vector<std::pair<std::string, std::string>>& extra_config = {});

/// Writes OBS_<id>.folded.txt — flamegraph.pl-compatible folded stacks —
/// and publishes the same text at the scrape server's /profilez route when
/// one is serving. Counter-weighted (cycles, or task-clock nanos on the
/// software tier) when the profiler measured; honest wall-clock fallback
/// rendered from the quiesced tracer when it could not. No-op without
/// --prof (null profiler) or under BOOTERSCOPE_NO_METRICS.
void write_folded_profile(const std::string& experiment_id,
                          const obs::prof::Profiler* profiler,
                          const obs::StageTracer* tracer,
                          obs::live::ScrapeServer* server);

/// Writes OBS_<id>.trace.json (Chrome trace-event JSON; open in Perfetto
/// or chrome://tracing). No-op for a null recorder or under
/// BOOTERSCOPE_NO_METRICS.
void write_timeline(const std::string& experiment_id,
                    const obs::TimelineRecorder* timeline);

/// The landscape world shared by the §4/§5 benches: the Internet, the pool
/// (the run is sharded by day over it — byte-identical for every
/// --threads N), the live telemetry plane and the fault plan. A bench
/// either streams the run into a sink with run() (DESIGN.md §14: day-ordered
/// columnar batches, bounded memory) or holds every flow with materialize().
struct LandscapeWorld {
  sim::Internet internet;
  obs::StageTracer tracer;
  /// Engaged by --timeline: the begin/end recorder the tracer and pool
  /// feed. Declared before the pool, which writes to it until its workers
  /// join.
  std::unique_ptr<obs::TimelineRecorder> timeline;
  /// Engaged by --prof: per-lane hardware counter groups the tracer and
  /// pool feed. Declared before pool for the same outliving reason as the
  /// timeline (workers read it until they detach).
  std::unique_ptr<obs::prof::Profiler> profiler;
  /// Wall nanos of the landscape run alone (not process lifetime) — the
  /// headline number of the perf ledger.
  std::uint64_t run_wall_nanos = 0;
  exec::ThreadPool pool;
  /// The live telemetry plane, engaged by --sample-interval-ms / --serve.
  /// Declared after pool (their probes read it; reverse destruction stops
  /// them first).
  std::unique_ptr<obs::live::Watchdog> watchdog;
  std::unique_ptr<obs::live::ResourceSampler> sampler;
  std::unique_ptr<obs::live::ScrapeServer> server;
  int serve_hold_ms = 0;

  /// The run's config, RunOptions applied.
  sim::LandscapeConfig config;
  std::size_t stream_batch = flow::FlowBatch::kDefaultCapacity;

  std::string fault_profile_name = "none";
  std::uint64_t fault_seed = 0;
  /// Engaged when --fault-profile is not "none": the vantage outage
  /// schedule, and the coverage source for gap-aware series. Built before
  /// the run (a pure function of seed, profile and window). A streaming
  /// sink applies it in-stream: wire it via StreamAnalysis::set_fault_plan
  /// together with `integrity` before calling run(). materialize() applies
  /// it at the store boundary itself.
  std::optional<fault::FaultPlan> fault_plan;
  /// Integrity ledger: every flow record the simulation offered is either
  /// kept (clean) or dropped by an outage window.
  fault::IntegrityTally integrity;

  /// Valid after run().
  sim::StreamSummary summary;
  /// Valid after materialize().
  sim::LandscapeResult result;

  explicit LandscapeWorld(const RunOptions& options = {});

  /// Detaches the pool heartbeat and honors --serve-hold-ms (keeps the
  /// scrape endpoint alive briefly so an external scraper catches the run)
  /// before the members stop their threads in reverse declaration order.
  ~LandscapeWorld();

  /// Streams the landscape into `sink`, timing it for the ledger and
  /// closing out the live plane.
  void run(flow::FlowBatchSink& sink, sim::GroundTruthSink* truth = nullptr);

  /// Runs the landscape into per-vantage stores, timing it like run(), and
  /// drops every flow the fault plan's outage windows hide (store
  /// boundary; counted in `integrity`).
  const sim::LandscapeResult& materialize();

  /// Stamps the fault plan's per-day coverage onto a daily series built
  /// from the given vantage, enabling gap-aware takedown metrics. No-op
  /// without a fault plan.
  void stamp_coverage(stats::BinnedSeries& daily, std::size_t vantage) const {
    if (fault_plan) fault_plan->apply_coverage(daily, vantage);
  }

  /// Deterministic output size of a streamed run: attacks plus the kept
  /// flows the analysis sink counted. The exact-match throughput
  /// denominator of the perf ledger.
  [[nodiscard]] std::uint64_t result_items(
      std::uint64_t kept_flows) const noexcept {
    return summary.attack_count + kept_flows;
  }
  /// The same count for a materialized run: attacks plus stored flows.
  [[nodiscard]] std::uint64_t result_items() const noexcept {
    return result.attacks.size() + result.ixp.store.size() +
           result.tier1.store.size() + result.tier2.store.size();
  }

  /// Writes the manifest, perf ledger, folded profile and timeline of the
  /// run; `items` is one of the result_items() counts. A streamed run's
  /// ledger also records the engine and its batch size.
  void write_observability(const std::string& experiment_id,
                           std::uint64_t items) const;

 private:
  bool streamed_ = false;
};

}  // namespace booterscope::bench
