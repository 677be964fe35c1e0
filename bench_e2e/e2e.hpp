// bench_e2e: one benchmark for both booterscope pipelines.
//
// The offline pipeline (day shard -> drain -> StreamAnalysis -> verdict) runs
// as the `paper` and `dense` workloads; the ingest pipeline (datagram ->
// session decode -> ring -> batcher -> StreamAnalysis -> verdict) runs as
// `ingest`, `ingest_faulted` and `udp`. Each workload builds its inputs from
// the seed, repeats its timed job as often as the requested seconds call
// for, checks its outputs, and reports either the end-to-end metrics
// (untraced) or the per-layer metrics (traced). README.md lists every
// metric and why each workload exists.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "util/time.hpp"

namespace booterscope::e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 7;
  /// Measured seconds per run: how many worlds or repetitions it does.
  double seconds = 15.0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Every workload at a few days' scale with one repetition (self-test).
  bool smoke = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Output checks that did not hold; the run is correct when empty.
  std::vector<std::string> failures;

  void check(bool ok, const std::string& what);
  void add(std::string name, double value, std::string unit);
};

[[nodiscard]] Result run_offline(const Options& options);  // paper, dense
[[nodiscard]] Result run_ingest(const Options& options);   // ingest, ingest_faulted
[[nodiscard]] Result run_udp(const Options& options);

// --- measurement helpers (measure.cpp) -----------------------------------

[[nodiscard]] inline double seconds_between(std::int64_t begin_nanos,
                                            std::int64_t end_nanos) noexcept {
  return static_cast<double>(end_nanos - begin_nanos) / 1e9;
}
[[nodiscard]] double median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
/// User + system CPU of the whole process / of the calling thread.
[[nodiscard]] double process_cpu_seconds() noexcept;
[[nodiscard]] double thread_cpu_seconds() noexcept;
/// Peak resident set size of the process so far (getrusage).
[[nodiscard]] double peak_rss_mib() noexcept;
/// Nanoseconds per unit, 0 when nothing was counted.
[[nodiscard]] double per_unit_ns(double seconds, double units) noexcept;

/// Sums over every node of the tracer's tree named `name`.
[[nodiscard]] double stage_self_seconds(const obs::StageTracer& tracer,
                                        std::string_view name);
[[nodiscard]] double stage_total_seconds(const obs::StageTracer& tracer,
                                         std::string_view name);
[[nodiscard]] std::uint64_t stage_items_out(const obs::StageTracer& tracer,
                                            std::string_view name);

/// Repetitions of a `nominal_s`-second unit of work that fill `seconds`:
/// fixed by the arguments, never by measured speed, so that two builds
/// given the same arguments do the same work.
[[nodiscard]] std::size_t reps_for(double seconds, double nominal_s) noexcept;

/// Landscape seed of world `index` of a run: every run averages over
/// several worlds, because each seed draws its own booter market and the
/// cost per flow differs by up to a fifth between markets.
[[nodiscard]] constexpr std::uint64_t world_seed(std::uint64_t seed,
                                                 std::size_t index) noexcept {
  return seed * 1000 + index;
}

/// Returns freed heap to the kernel and resets the process's peak resident
/// set to its current size (Linux /proc/self/clear_refs). Returns that size
/// in MiB, so that peak_rss_mib() minus it is what the work from here on
/// added on top of its inputs; 0 where the kernel offers no reset.
double reset_peak_rss() noexcept;

/// Runs `build` `times` times and returns the median wall seconds; the
/// state the last call leaves behind is what the run measures.
template <typename Build>
[[nodiscard]] double median_setup(int times, Build&& build) {
  std::vector<double> walls;
  for (int i = 0; i < times; ++i) {
    const std::int64_t begin = util::monotonic_nanos();
    build();
    walls.push_back(seconds_between(begin, util::monotonic_nanos()));
  }
  return median(std::move(walls));
}

/// Peak resident memory, in MiB, that `work` adds to what is resident
/// before it starts.
template <typename Work>
[[nodiscard]] double peak_added_mib(Work&& work) {
  const double baseline = reset_peak_rss();
  work();
  return peak_rss_mib() - baseline;
}

/// The end-to-end metrics of a run that repeats the same worlds. Other load
/// on the machine only ever slows a repetition down, so each world counts
/// with its fastest repetition; the worlds are then pooled, because their
/// costs per item differ.
class WorldSamples {
 public:
  explicit WorldSamples(std::size_t worlds);

  /// One repetition of `world`: `items` items in `wall_s` seconds.
  void add(std::size_t world, double wall_s, double items);

  /// Adds setup_s and items_per_s, all items over the worlds' best walls.
  void report(Result& result, double setup_s) const;

 private:
  std::vector<double> best_wall_s_;
  std::vector<double> items_;
};

}  // namespace booterscope::e2e
