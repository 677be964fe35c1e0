// Unit tests for booterscope::obs::TimelineRecorder: lane-local recording,
// the sequential add_completed_span hand-off, counter sampling, Chrome
// trace-event export, and the merge determinism contract — the exported
// bytes are a pure function of the handed-off events, whatever pool size
// executed the work. Assertions on recorded content are guarded for
// BOOTERSCOPE_NO_METRICS builds, where every record call compiles to an
// empty body and the export is an empty (but valid) document.
#include "obs/timeline.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "exec/thread_pool.hpp"

namespace booterscope::obs {
namespace {

TEST(Timeline, RecordsSpansIntoTheCallersLane) {
  TimelineRecorder recorder(3);
  recorder.record_span("alpha", "stage", 100, 200);
  set_timeline_lane(2);
  recorder.record_span("beta", "task", 150, 300);
  set_timeline_lane(0);
#ifndef BOOTERSCOPE_NO_METRICS
  ASSERT_EQ(recorder.lane_events(0).size(), 1u);
  EXPECT_EQ(recorder.lane_events(0)[0].name, "alpha");
  EXPECT_EQ(recorder.lane_events(0)[0].begin_nanos, 100);
  EXPECT_EQ(recorder.lane_events(0)[0].end_nanos, 200);
  ASSERT_EQ(recorder.lane_events(2).size(), 1u);
  EXPECT_EQ(recorder.lane_events(2)[0].category, "task");
#else
  EXPECT_EQ(recorder.event_count(), 0u);
#endif
}

TEST(Timeline, OutOfRangeLaneCountsAsDroppedNotCorrupted) {
  TimelineRecorder recorder(2);
  set_timeline_lane(7);
  recorder.record_span("lost", "task", 1, 2);
  recorder.record_instant("also-lost", 3);
  set_timeline_lane(0);
#ifndef BOOTERSCOPE_NO_METRICS
  EXPECT_EQ(recorder.dropped(), 2u);
  EXPECT_EQ(recorder.event_count(), 0u);
#else
  EXPECT_EQ(recorder.dropped(), 0u);
#endif
}

TEST(Timeline, AddCompletedSpanTargetsAnExplicitLane) {
  TimelineRecorder recorder(4);
  recorder.add_completed_span(3, "day_shard", "shard", 10, 20);
#ifndef BOOTERSCOPE_NO_METRICS
  ASSERT_EQ(recorder.lane_events(3).size(), 1u);
  EXPECT_EQ(recorder.lane_events(3)[0].name, "day_shard");
  EXPECT_EQ(recorder.lane_events(3)[0].category, "shard");
#endif
  EXPECT_EQ(recorder.lane_events(0).size(), 0u);
}

TEST(Timeline, SampleCountersFiltersByPrefixIntoLaneZero) {
  MetricsRegistry registry;
  registry.counter("booterscope_exec_tasks_total", {{"worker", "0"}}).add(5);
  registry.gauge("booterscope_exec_worker_busy_seconds").set(1.5);
  registry.counter("booterscope_landscape_attacks_total").add(9);

  TimelineRecorder recorder(2);
  recorder.sample_counters(registry, "booterscope_exec", 1000);
#ifndef BOOTERSCOPE_NO_METRICS
  const std::vector<TimelineEvent>& events = recorder.lane_events(0);
  ASSERT_EQ(events.size(), 2u);
  for (const TimelineEvent& event : events) {
    EXPECT_EQ(event.kind, TimelineEvent::Kind::kCounter);
    EXPECT_EQ(event.begin_nanos, 1000);
    EXPECT_EQ(event.name.rfind("booterscope_exec", 0), 0u)
        << "sampled outside prefix: " << event.name;
  }
  EXPECT_EQ(events[0].name, "booterscope_exec_tasks_total{worker=0}");
  EXPECT_DOUBLE_EQ(events[0].value, 5.0);
#else
  EXPECT_EQ(recorder.event_count(), 0u);
#endif
}

TEST(Timeline, ChromeJsonIsWellFormedAndLabelsLanes) {
  TimelineRecorder recorder(2);
  recorder.set_epoch_nanos(0);
  recorder.record_span("stagey", "stage", 1000, 4000);
  recorder.add_completed_span(1, "task", "task", 2000, 2500);
  const std::string json = recorder.to_chrome_json();

  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"driver\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"worker 0\""), std::string::npos);
#ifndef BOOTERSCOPE_NO_METRICS
  // Spans export as "X" complete events with microsecond ts/dur.
  EXPECT_NE(json.find("\"name\":\"stagey\",\"cat\":\"stage\",\"pid\":1,"
                      "\"tid\":0,\"ts\":1,\"ph\":\"X\",\"dur\":3"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"tid\":1,\"ts\":2,\"ph\":\"X\",\"dur\":0.5"),
            std::string::npos)
      << json;
#endif
  // Valid JSON object regardless of build flavor: balanced braces at the
  // ends and no trailing comma before the closing bracket.
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_EQ(json.find(",]"), std::string::npos);
}

TEST(Timeline, CounterEventsExportAsCounterPhase) {
  MetricsRegistry registry;
  registry.counter("booterscope_exec_tasks_total").add(3);
  TimelineRecorder recorder(1);
  recorder.set_epoch_nanos(0);
  recorder.sample_counters(registry, "booterscope_exec", 5000);
  const std::string json = recorder.to_chrome_json();
#ifndef BOOTERSCOPE_NO_METRICS
  EXPECT_NE(json.find("\"ph\":\"C\",\"args\":{\"value\":3}"),
            std::string::npos)
      << json;
#else
  EXPECT_EQ(json.find("\"ph\":\"C\""), std::string::npos);
#endif
}

// The live sampler's export path: one pre-valued point per tick, appended
// post-quiesce to lane 0 without a registry read. Same "C" phase as
// sample_counters so Perfetto draws both under the span rows.
TEST(Timeline, AddCounterSampleEmitsCounterTrackOnLaneZero) {
  TimelineRecorder recorder(1);
  recorder.set_epoch_nanos(0);
  recorder.add_counter_sample("booterscope_live_rss_bytes", 7000, 4096.0);
  recorder.add_counter_sample("booterscope_live_rss_bytes", 9000, 8192.0);
  const std::string json = recorder.to_chrome_json();
#ifndef BOOTERSCOPE_NO_METRICS
  EXPECT_NE(json.find("booterscope_live_rss_bytes"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos) << json;
  EXPECT_EQ(recorder.event_count(), 2u);
#else
  EXPECT_EQ(json.find("\"ph\":\"C\""), std::string::npos);
#endif
}

// The determinism contract of the tentpole: the exported document is a
// pure function of the handed-off events. Execute the same synthetic
// workload on pools of size 1, 2 and 8, derive every timestamp from the
// *index* (not the clock, not the worker), hand the spans back through the
// sequential post-quiesce path with a fixed lane capacity, and the bytes
// must match exactly.
TEST(Timeline, MergeIsByteIdenticalAcrossPoolSizes) {
  constexpr std::size_t kItems = 64;
  constexpr std::size_t kLanes = 9;  // fixed capacity, independent of pool

  const auto run = [&](std::size_t threads) {
    exec::ThreadPool pool(threads);
    struct Slot {
      std::int64_t begin = 0;
      std::int64_t end = 0;
      std::size_t lane = 0;
    };
    std::vector<Slot> slots(kItems);
    pool.parallel_for(kItems, [&](std::size_t i) {
      // Synthetic, index-derived span: overlapping on purpose so the
      // (begin, lane, seq) tie-break in the merge is exercised.
      slots[i].begin = static_cast<std::int64_t>((i % 8) * 100);
      slots[i].end = slots[i].begin + static_cast<std::int64_t>(50 + i);
      slots[i].lane = 1 + (i % (kLanes - 1));
    });
    pool.wait_idle();
    TimelineRecorder recorder(kLanes);
    recorder.set_epoch_nanos(0);
    for (const Slot& slot : slots) {  // task order, post-quiesce
      recorder.add_completed_span(slot.lane, "unit", "task", slot.begin,
                                  slot.end);
    }
    return recorder.to_chrome_json();
  };

  const std::string one = run(1);
  EXPECT_EQ(one, run(2));
  EXPECT_EQ(one, run(8));
#ifndef BOOTERSCOPE_NO_METRICS
  EXPECT_NE(one.find("\"ph\":\"X\""), std::string::npos);
#endif
}

// Off-thread attribution hand-off: spans merged into the aggregate tree
// with StageTracer::add_completed land under the stage that was current at
// hand-off time, and their timeline twins land in the executing worker's
// lane — the exact pattern the landscape drivers' day shards use after the
// pool quiesces.
TEST(Timeline, AddCompletedAttributionMatchesTracerAndLane) {
  StageTracer tracer;
  TimelineRecorder recorder(4);
  tracer.set_timeline(&recorder);
  ASSERT_EQ(tracer.timeline(), &recorder);

  {
    StageTimer phase(tracer, "day_shards");
    // Simulate three shards executed by workers 0 and 2, handed back
    // sequentially with synthetic begin/end stamps.
    struct Shard {
      int worker;
      std::int64_t begin;
      std::int64_t end;
    };
    const Shard shards[] = {{0, 100, 180}, {2, 110, 140}, {0, 200, 260}};
    for (const Shard& shard : shards) {
      tracer.add_completed("day_shard", shard.worker,
                           static_cast<std::uint64_t>(shard.end - shard.begin),
                           1, 1, 0, 0);
      recorder.add_completed_span(static_cast<std::size_t>(shard.worker) + 1,
                                  "day_shard", "shard", shard.begin,
                                  shard.end);
    }
  }

  // Tracer tree: run -> day_shards -> day_shard[w0], day_shard[w2], with
  // per-(name, worker) accumulation.
  ASSERT_EQ(tracer.root().children.size(), 1u);
  const StageNode& phase_node = *tracer.root().children[0];
  EXPECT_EQ(phase_node.name, "day_shards");
  ASSERT_EQ(phase_node.children.size(), 2u);
  const StageNode& w0 = *phase_node.children[0];
  const StageNode& w2 = *phase_node.children[1];
  EXPECT_EQ(w0.worker, 0);
  EXPECT_EQ(w0.calls, 2u);
  EXPECT_EQ(w0.wall_nanos, 140u);  // 80 + 60
  EXPECT_EQ(w2.worker, 2);
  EXPECT_EQ(w2.calls, 1u);

#ifndef BOOTERSCOPE_NO_METRICS
  // Timeline lanes: worker 0's spans in lane 1, worker 2's in lane 3, and
  // the enclosing StageTimer span in the driver lane.
  ASSERT_EQ(recorder.lane_events(1).size(), 2u);
  EXPECT_EQ(recorder.lane_events(1)[0].begin_nanos, 100);
  EXPECT_EQ(recorder.lane_events(1)[1].begin_nanos, 200);
  ASSERT_EQ(recorder.lane_events(3).size(), 1u);
  EXPECT_EQ(recorder.lane_events(3)[0].end_nanos, 140);
  ASSERT_EQ(recorder.lane_events(0).size(), 1u);
  EXPECT_EQ(recorder.lane_events(0)[0].name, "day_shards");
  EXPECT_EQ(recorder.lane_events(0)[0].category, "stage");
#endif
}

TEST(Timeline, WriteProducesALoadableFile) {
  TimelineRecorder recorder(2);
  recorder.set_epoch_nanos(0);
  recorder.record_span("io", "stage", 0, 10);
  const std::string path =
      testing::TempDir() + "/booterscope_timeline_test.trace.json";
  ASSERT_TRUE(recorder.write(path));
  std::FILE* file = std::fopen(path.c_str(), "rb");
  ASSERT_NE(file, nullptr);
  std::string contents(1 << 12, '\0');
  const std::size_t read =
      std::fread(contents.data(), 1, contents.size(), file);
  std::fclose(file);
  contents.resize(read);
  EXPECT_EQ(contents, recorder.to_chrome_json());
}

}  // namespace
}  // namespace booterscope::obs
