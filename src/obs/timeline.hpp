// booterscope::obs — begin/end timeline recording for profiling.
//
// StageTracer answers "how much time did each stage take in total"; the
// timeline answers "when exactly did each span run, and on which thread".
// A TimelineRecorder owns one append-only event buffer per *lane* — lane 0
// is the driver thread, lane w+1 is pool worker w — and every lane has
// exactly one writer, so recording takes no locks on any hot path:
//
//   - pool workers append task/steal events into their own lane
//     (exec::ThreadPool tags each worker thread's lane on startup);
//   - the driver's StageTimer spans land in lane 0;
//   - externally-timed spans (day shards) are handed back
//     sequentially after the pool quiesced via add_completed_span(), the
//     timeline twin of StageTracer::add_completed — the same
//     ConcurrencyGuard tripwire enforces the single-owner hand-off.
//
// merge-and-export (to_chrome_json) produces the Chrome trace-event format
// (JSON Array Format variant with metadata), loadable in Perfetto or
// chrome://tracing: "X" complete events for spans, "i" instants for steals,
// "C" counter tracks sampled from a MetricsRegistry. The merge is a pure
// function of the recorded events — sorted by (timestamp, lane, sequence) —
// so handing back the same events always yields the same bytes, whatever
// pool size or wall-clock interleaving produced them.
//
// All timestamps are util::monotonic_nanos() values (or synthetic numbers
// in tests; the recorder never reads a clock itself). Under
// -DBOOTERSCOPE_NO_METRICS every record/sample call compiles to an empty
// body and export yields an empty (but valid) trace document.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/annotations.hpp"

namespace booterscope::obs {

class MetricsRegistry;

/// One recorded event. `begin_nanos` doubles as the instant/counter
/// timestamp; `end_nanos` is meaningful for spans only.
struct TimelineEvent {
  enum class Kind : std::uint8_t { kSpan, kInstant, kCounter };
  Kind kind = Kind::kSpan;
  std::string name;
  std::string category;  // "stage", "task", "counter", ...
  std::int64_t begin_nanos = 0;
  std::int64_t end_nanos = 0;
  double value = 0.0;  // counters only
};

/// The lane (timeline track) of the calling thread: 0 for the driver, w+1
/// for pool worker w. exec::ThreadPool sets this for its workers; any other
/// thread records into lane 0. Attribution only — never derive behavior.
void set_timeline_lane(int lane) noexcept;
[[nodiscard]] int timeline_lane() noexcept;

class TimelineRecorder {
 public:
  /// `lanes` buffers (>= 1 enforced); lane 0 is the driver. Size it as
  /// pool.size() + 1. Events recorded from a thread whose lane is out of
  /// range are counted in dropped() instead of corrupting another buffer.
  explicit TimelineRecorder(std::size_t lanes);

  TimelineRecorder(const TimelineRecorder&) = delete;
  TimelineRecorder& operator=(const TimelineRecorder&) = delete;

  /// Hot path (lane-local, lock-free): one completed span on the calling
  /// thread's lane. `begin`/`end` from util::monotonic_nanos().
  void record_span(std::string_view name, std::string_view category,
                   std::int64_t begin_nanos, std::int64_t end_nanos);

  /// Hot path: one instantaneous event (e.g. a steal) on the calling
  /// thread's lane.
  void record_instant(std::string_view name, std::int64_t at_nanos);

  /// Sequential hand-off of an externally-timed span into an explicit lane
  /// — the timeline twin of StageTracer::add_completed. Call after the pool
  /// has quiesced; the ConcurrencyGuard aborts on concurrent entry.
  void add_completed_span(std::size_t lane, std::string_view name,
                          std::string_view category, std::int64_t begin_nanos,
                          std::int64_t end_nanos);

  /// Samples every counter and gauge whose name starts with `prefix` into a
  /// counter track at `at_nanos`. Driver-thread only (lane 0); call at
  /// stage boundaries or end of run.
  void sample_counters(const MetricsRegistry& registry, std::string_view prefix,
                       std::int64_t at_nanos);

  /// One point on a named counter track (lane 0) — how the live resource
  /// series lands in the trace. Sequential surface, same contract as
  /// sample_counters.
  void add_counter_sample(std::string_view name, std::int64_t at_nanos,
                          double value);

  /// Export timestamps are rendered relative to this epoch (microseconds).
  /// Defaults to the smallest recorded timestamp; tests pin it (e.g. 0) for
  /// byte-stable output.
  void set_epoch_nanos(std::int64_t epoch) noexcept;

  [[nodiscard]] std::size_t lane_count() const noexcept {
    return lanes_.size();
  }
  /// Events discarded because the calling thread's lane was out of range.
  [[nodiscard]] std::uint64_t dropped() const noexcept;
  /// Total events currently recorded across all lanes (sequential use only).
  [[nodiscard]] std::size_t event_count() const noexcept;
  [[nodiscard]] const std::vector<TimelineEvent>& lane_events(
      std::size_t lane) const {
    return lanes_[lane]->events;
  }

  /// Chrome trace-event JSON ({"traceEvents":[...]}) of the merged lanes.
  /// Sequential (post-quiesce) like every read of the buffers.
  [[nodiscard]] std::string to_chrome_json() const;

  /// Writes to_chrome_json() to `path`; false on I/O failure.
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  // Heap-allocated so lanes never share a cache line through vector
  // reallocation; each Lane has exactly one writer thread at a time.
  struct alignas(64) Lane {
    std::vector<TimelineEvent> events;
  };

  void append(std::size_t lane, TimelineEvent event);

  std::vector<std::unique_ptr<Lane>> lanes_;
  std::atomic<std::uint64_t> dropped_{0};
  std::int64_t epoch_nanos_ = 0;
  bool epoch_set_ = false;
  // Guards the sequential surface (add_completed_span, sample_counters,
  // export): concurrent entry means the caller broke the post-quiesce
  // hand-off contract.
  mutable util::ConcurrencyGuard guard_;
};

}  // namespace booterscope::obs
