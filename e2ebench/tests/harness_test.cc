// Tests of the benchmark harness's own logic: the percentile rule, span
// self time, the sustained-rate decision and the decorators' transparency.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "decorators.h"
#include "stats.h"
#include "tmerge/merge/pipeline.h"
#include "tmerge/merge/tmerge.h"
#include "tmerge/sim/dataset.h"
#include "tmerge/track/sort_tracker.h"
#include "trace.h"

namespace tmerge::e2ebench {
namespace {

// --- Percentile rule -------------------------------------------------------

TEST(PercentileRule, HighestFractionKeepsTenSamplesBeyond) {
  EXPECT_EQ(HighestReliableFraction(19), 0.0);
  EXPECT_EQ(HighestReliableFraction(20), 0.5);
  EXPECT_EQ(HighestReliableFraction(99), 0.5);
  EXPECT_EQ(HighestReliableFraction(100), 0.9);
  EXPECT_EQ(HighestReliableFraction(999), 0.9);
  EXPECT_EQ(HighestReliableFraction(1000), 0.99);
  EXPECT_EQ(HighestReliableFraction(9999), 0.99);
  EXPECT_EQ(HighestReliableFraction(10000), 0.999);
  EXPECT_EQ(HighestReliableFraction(100000), 0.9999);
}

TEST(PercentileRule, SpreadMatchesPythonQuartiles) {
  // statistics.quantiles(values, n=4), then (q3 - q1) / median.
  EXPECT_DOUBLE_EQ(Spread({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 1.0);
  EXPECT_DOUBLE_EQ(Spread({4, 1, 3}), 1.0);
  EXPECT_DOUBLE_EQ(Spread({2, 2}), 0.0);
  EXPECT_DOUBLE_EQ(Spread({1, 3}), 1.5);  // Quartiles 0.5 and 3.5.
  EXPECT_DOUBLE_EQ(Spread({7}), 0.0);
}

TEST(PercentileRule, NearestRank) {
  std::vector<double> values;
  for (int i = 1000; i >= 1; --i) values.push_back(i);
  EXPECT_EQ(Percentile(values, 0.5), 500.0);
  EXPECT_EQ(Percentile(values, 0.999), 999.0);
  EXPECT_EQ(Percentile(values, 1.0), 1000.0);
  EXPECT_EQ(Percentile(values, 0.0), 1.0);
  EXPECT_EQ(Percentile({}, 0.5), 0.0);
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

// --- Self time ---------------------------------------------------------------

Span MakeSpan(std::int64_t id, std::int64_t parent, std::int32_t thread,
              std::int64_t start, std::int64_t end, const char* name) {
  Span span;
  span.id = id;
  span.parent = parent;
  span.thread = thread;
  span.start_ns = start;
  span.end_ns = end;
  span.name = name;
  return span;
}

TEST(SelfTime, UnionLengthMergesOverlapsAndClips) {
  EXPECT_EQ(UnionLength({{10, 40}, {30, 60}, {90, 120}}, 0, 100), 60);
  EXPECT_EQ(UnionLength({{10, 20}, {10, 20}}, 0, 100), 10);
  EXPECT_EQ(UnionLength({{-50, 10}, {200, 300}}, 0, 100), 10);
  EXPECT_EQ(UnionLength({}, 0, 100), 0);
}

TEST(SelfTime, NestedAndCrossThreadChildren) {
  // Parent [0, 100) on thread 0; child a [10, 40) on thread 0 with a
  // grandchild [15, 25); child b [30, 60) on thread 1 overlapping a; child c
  // [90, 120) on thread 1 running past the parent's end.
  std::vector<Span> spans = {
      MakeSpan(0, -1, 0, 0, 100, "parent"),
      MakeSpan(1, 0, 0, 10, 40, "a"),
      MakeSpan(2, 1, 0, 15, 25, "grandchild"),
      MakeSpan(3, 0, 1, 30, 60, "b"),
      MakeSpan(4, 0, 1, 90, 120, "c"),
  };
  spans[1].untraced_child_ns = 5;
  std::map<std::int64_t, std::int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 60);       // Covered: [10, 60) and [90, 100).
  EXPECT_EQ(self[1], 30 - 10 - 5);    // Minus the grandchild and untraced.
  EXPECT_EQ(self[2], 10);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 30);
  std::map<std::string, double> by_name = SelfSecondsByName(spans);
  EXPECT_DOUBLE_EQ(by_name["parent"], 40e-9);
}

TEST(SelfTime, UncoveredShareUnionsLayersAcrossThreads) {
  std::vector<Span> spans = {
      MakeSpan(0, -1, 0, 0, 100, "job"),
      MakeSpan(1, 0, 1, 0, 30, "select"),
      MakeSpan(2, 0, 2, 20, 50, "select"),
      MakeSpan(3, 0, 1, 60, 70, "merge"),
  };
  EXPECT_DOUBLE_EQ(UncoveredShare(spans, {"select"}, 0, 100), 0.5);
  EXPECT_DOUBLE_EQ(UncoveredShare(spans, {"select", "merge"}, 0, 100), 0.4);
}

TEST(SelfTime, RecorderLinksParentsAcrossThreads) {
  SpanRecorder recorder;
  SpanRecorder::SetActive(&recorder);
  std::int64_t parent_id = -1;
  {
    ScopedSpan parent("parent");
    parent_id = parent.id();
    {
      ScopedSpan nested("nested");
      AddUntracedChildTime(7);
    }
    std::int64_t handoff = CurrentSpanId();
    std::thread worker([handoff] {
      TaskContext context(handoff, 3);
      ScopedSpan child("child");
    });
    worker.join();
  }
  SpanRecorder::SetActive(nullptr);
  { ScopedSpan ignored("ignored"); }

  std::vector<Span> spans = recorder.Spans();
  ASSERT_EQ(spans.size(), 3u);
  for (const Span& span : spans) {
    std::string name = span.name;
    if (name == "parent") {
      EXPECT_EQ(span.parent, -1);
    } else if (name == "nested") {
      EXPECT_EQ(span.parent, parent_id);
      EXPECT_EQ(span.untraced_child_ns, 7);
    } else {
      EXPECT_EQ(name, "child");
      EXPECT_EQ(span.parent, parent_id);
      EXPECT_EQ(span.request, 3);
      EXPECT_NE(span.thread, spans.front().thread);
    }
  }
  std::string json = ChromeTraceJson(spans);
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  std::size_t begins = 0, ends = 0;
  for (std::size_t at = json.find("\"ph\":\"B\""); at != std::string::npos;
       at = json.find("\"ph\":\"B\"", at + 1)) {
    ++begins;
  }
  for (std::size_t at = json.find("\"ph\":\"E\""); at != std::string::npos;
       at = json.find("\"ph\":\"E\"", at + 1)) {
    ++ends;
  }
  EXPECT_EQ(begins, 3u);
  EXPECT_EQ(ends, 3u);
}

// --- Sustained-rate decision -----------------------------------------------

LadderStep Step(double fps, double p99_ms,
                std::vector<std::int64_t> backlog = {}) {
  LadderStep step;
  step.offered_fps = fps;
  step.achieved_fps = fps;
  step.p99_ms = p99_ms;
  step.samples = 10000;
  step.backlog = std::move(backlog);
  return step;
}

TEST(SustainedRate, BacklogGrowth) {
  EXPECT_FALSE(BacklogGrows({}));
  EXPECT_FALSE(BacklogGrows({0, 0, 100, 200, 300, 400, 500}));  // < 8.
  EXPECT_FALSE(BacklogGrows(std::vector<std::int64_t>(40, 12)));
  EXPECT_FALSE(BacklogGrows({3, 9, 2, 14, 5, 11, 0, 16, 7, 4, 12, 8}));
  std::vector<std::int64_t> rising;
  for (int i = 0; i < 40; ++i) rising.push_back(4 * i);
  EXPECT_TRUE(BacklogGrows(rising));
  // A one-off burst early in the rung that drains is not growth.
  std::vector<std::int64_t> burst(40, 2);
  burst[5] = 200;
  EXPECT_FALSE(BacklogGrows(burst));
}

TEST(SustainedRate, RungMeetsLimitBacklogAndVerdicts) {
  std::vector<std::int64_t> rising;
  for (int i = 0; i < 40; ++i) rising.push_back(8 * i);
  const double limit_ms = 10.0;

  // Latency decides: p99 must be at or below the limit.
  EXPECT_TRUE(StepSustained(Step(2000, 9.9), limit_ms));
  EXPECT_TRUE(StepSustained(Step(2000, 10.0), limit_ms));
  EXPECT_FALSE(StepSustained(Step(4000, 25.0), limit_ms));

  // A growing backlog fails a rung whose latency is still in bounds.
  EXPECT_FALSE(StepSustained(Step(2000, 1.0, rising), limit_ms));

  // A rejected or dropped frame fails the rung.
  LadderStep failed = Step(1000, 1.0);
  failed.failed = 1;
  EXPECT_FALSE(StepSustained(failed, limit_ms));
}

TEST(SustainedRate, StaircaseSettlesAroundTheRateThatHoldsHalfTheTime) {
  // Nothing recorded, or nothing held: no sustained rate.
  EXPECT_EQ(RateStaircase(1000, 2.0).Estimate(), 0.0);
  RateStaircase missed(1000, 2.0);
  missed.Record(false);
  missed.Record(false);
  EXPECT_EQ(missed.Estimate(), 0.0);

  // Before the outcome first changes, the highest rate that held.
  RateStaircase rising(1000, 2.0);
  rising.Record(true);
  rising.Record(true);
  EXPECT_EQ(rising.rate(), 4000.0);
  EXPECT_EQ(rising.Estimate(), 2000.0);
  EXPECT_EQ(rising.runs(), 2u);

  // A service that holds below 5000 frames/s: the rates climb from 1000,
  // then alternate between 4000 (held) and 8000 (missed); the estimate is
  // their geometric mean from the first miss on.
  RateStaircase stair(1000, 2.0);
  for (int run = 0; run < 8; ++run) stair.Record(stair.rate() < 5000.0);
  // 1000, 2000, 4000 held; 8000, 4000, 8000, 4000, 8000 alternate.
  EXPECT_DOUBLE_EQ(stair.Estimate(), std::sqrt(4000.0 * 8000.0) *
                                         std::pow(2.0, 1.0 / 10.0));

  // One failed run (a host stall) moves the estimate by one step over the
  // runs it averages, not to the bottom of the staircase.
  RateStaircase stalled(4000, 2.0);
  stalled.Record(true);   // 4000
  stalled.Record(false);  // 8000
  stalled.Record(false);  // 4000: a stall
  stalled.Record(true);   // 2000
  stalled.Record(true);   // 4000
  stalled.Record(false);  // 8000
  EXPECT_DOUBLE_EQ(stalled.Estimate(),
                   std::pow(8000.0 * 4000.0 * 2000.0 * 4000.0 * 8000.0, 0.2));
}

// --- Decorator transparency ----------------------------------------------

class DecoratorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::VideoConfig config =
        sim::ProfileConfig(sim::DatasetProfile::kMot17Like);
    config.num_frames = 300;
    video_ = sim::GenerateVideo(config, 17);
    pipeline_.window.single_window = true;
    pipeline_.seed = 99;
    options_.seed = 5;
  }

  sim::SyntheticVideo video_;
  merge::PipelineConfig pipeline_;
  merge::SelectorOptions options_;
};

TEST_F(DecoratorTest, TrackerSelectorAndModelAreTransparent) {
  track::SortTracker sort;
  TimedTracker timed_tracker(sort);
  merge::PreparedVideo bare = merge::PrepareVideo(video_, sort, pipeline_);
  SpanRecorder recorder;
  SpanRecorder::SetActive(&recorder);
  merge::PreparedVideo timed =
      merge::PrepareVideo(video_, timed_tracker, pipeline_);
  SpanRecorder::SetActive(nullptr);
  ASSERT_EQ(recorder.Spans().size(), 1u);
  EXPECT_STREQ(recorder.Spans()[0].name, "track");
  EXPECT_EQ(timed_tracker.name(), sort.name());
  ASSERT_EQ(bare.tracking.tracks.size(), timed.tracking.tracks.size());
  for (std::size_t t = 0; t < bare.tracking.tracks.size(); ++t) {
    const track::Track& a = bare.tracking.tracks[t];
    const track::Track& b = timed.tracking.tracks[t];
    ASSERT_EQ(a.id, b.id);
    ASSERT_EQ(a.boxes.size(), b.boxes.size());
    for (std::size_t i = 0; i < a.boxes.size(); ++i) {
      EXPECT_EQ(a.boxes[i].detection_id, b.boxes[i].detection_id);
      EXPECT_EQ(a.boxes[i].box.x, b.boxes[i].box.x);
    }
  }
  ASSERT_GT(bare.TotalPairs(), 0);

  merge::TMergeOptions tmerge_options;
  tmerge_options.tau_max = 800;
  merge::TMergeSelector tmerge(tmerge_options);
  TimedSelector timed_selector(tmerge);
  auto timed_model = std::make_shared<const TimedReidModel>(timed.model);
  timed.model = timed_model;
  for (std::int32_t batch_size : {1, 8}) {
    merge::SelectorOptions options = options_;
    options.batch_size = batch_size;
    merge::EvalResult want = merge::EvaluateSelector(bare, tmerge, options);
    merge::EvalResult got =
        merge::EvaluateSelector(timed, timed_selector, options);
    EXPECT_EQ(got.candidates, want.candidates);
    EXPECT_EQ(got.simulated_seconds, want.simulated_seconds);
    EXPECT_EQ(got.box_pairs_evaluated, want.box_pairs_evaluated);
    EXPECT_EQ(got.usage.TotalInferences(), want.usage.TotalInferences());
    EXPECT_EQ(got.usage.cache_hits, want.usage.cache_hits);
    EXPECT_EQ(got.usage.distance_evals, want.usage.distance_evals);
  }
  EXPECT_EQ(timed_selector.name(), tmerge.name());
  EXPECT_EQ(timed_selector.stats().calls.load(),
            2 * static_cast<std::int64_t>(bare.windows.size()));
  EXPECT_GT(timed_selector.stats().box_pairs.load(), 0);
  EXPECT_GT(timed_model->stats().calls.load(), 0);
  EXPECT_EQ(timed_model->feature_dim(), bare.model->feature_dim());
  EXPECT_EQ(timed_model->normalization_scale(),
            bare.model->normalization_scale());
}

}  // namespace
}  // namespace tmerge::e2ebench
