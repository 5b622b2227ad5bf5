// The θ stream's determinism contract (DESIGN.md §4.1): TMerge and
// TMerge-B draw the same Thompson samples — observed as identical
// per-window pull sequences (testing::WindowFingerprint) — at 1 and 8
// threads, with obs and tracing on or off, and with failpoints armed or
// firing. Batch vs stream is pinned in stream_service_test.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "testing/recording_selector.h"
#include "tmerge/fault/registry.h"
#include "tmerge/merge/pipeline.h"
#include "tmerge/merge/tmerge.h"
#include "tmerge/obs/metrics.h"
#include "tmerge/obs/trace.h"
#include "tmerge/sim/dataset.h"
#include "tmerge/track/sort_tracker.h"

namespace tmerge {
namespace {

using testing::RecordingSelector;
using testing::WindowFingerprint;

class ThetaStreamTest : public ::testing::TestWithParam<std::int32_t> {
 protected:
  void SetUp() override {
    fault::GlobalRegistry().Reset();
    dataset_ = sim::MakeDataset(sim::DatasetProfile::kMot17Like,
                                /*num_videos=*/3, /*seed=*/19);
    track::SortTracker tracker;
    merge::PipelineConfig config;
    config.window.length = 300;
    config.num_threads = 1;
    prepared_ = merge::PrepareDataset(dataset_, tracker, config);
  }
  void TearDown() override {
    fault::GlobalRegistry().Reset();
    fault::GlobalRegistry().SetSeed(0);
  }

  /// Runs TMerge (batch size = the test parameter) over the dataset and
  /// returns the sorted per-window fingerprints.
  std::vector<WindowFingerprint> Run(int threads) {
    merge::TMergeOptions tmerge_options;
    tmerge_options.tau_max = 2000;
    merge::TMergeSelector tmerge(tmerge_options);
    RecordingSelector recorder(tmerge);
    merge::SelectorOptions options;
    options.seed = 11;
    options.batch_size = GetParam();
    merge::EvaluateDataset(prepared_, recorder, options, threads);
    return recorder.Take();
  }

  sim::Dataset dataset_;
  std::vector<merge::PreparedVideo> prepared_;
};

TEST_P(ThetaStreamTest, IdenticalAcrossThreadCounts) {
  const std::vector<WindowFingerprint> serial = Run(1);
  ASSERT_GT(serial.size(), 3u);
  std::int64_t pulls = 0;
  for (const WindowFingerprint& print : serial) {
    pulls += print.box_pairs_evaluated;
  }
  ASSERT_GT(pulls, 0);
  EXPECT_EQ(Run(8), serial);
}

TEST_P(ThetaStreamTest, IdenticalWithObsAndTraceOnOrOff) {
  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(false);
  const std::vector<WindowFingerprint> quiet = Run(2);
  obs::SetEnabled(true);
  obs::TraceRecorder::Default().Start();
  const std::vector<WindowFingerprint> traced = Run(2);
  obs::TraceRecorder::Default().Stop();
  obs::SetEnabled(was_enabled);
  EXPECT_EQ(traced, quiet);
}

TEST_P(ThetaStreamTest, FailpointsNeverPerturbTheta) {
  const std::vector<WindowFingerprint> clean = Run(2);
  // Armed but never firing.
  fault::GlobalRegistry().SetSeed(5);
  for (const char* point : {"reid.embed", "reid.latency", "reid.cache.evict",
                            "reid.cache.miss", "core.pool.submit"}) {
    fault::GlobalRegistry().Arm(point, {0.0, 0.0});
  }
  EXPECT_EQ(Run(2), clean);
#ifndef TMERGE_FAULT_DISABLED
  // Firing on every pull, but with no effect on what a pull observes:
  // latency spikes are charged to the cost model and forced cache misses
  // re-embed the same features. The registry's own stream decides them,
  // so the θ draws — and hence the pull sequence — are unchanged.
  fault::GlobalRegistry().Reset();
  fault::GlobalRegistry().Arm("reid.latency", {1.0, 0.01});
  fault::GlobalRegistry().Arm("reid.cache.miss", {1.0, 0.0});
  fault::GlobalRegistry().Arm("core.pool.submit", {1.0, 0.0});
  EXPECT_EQ(Run(2), clean);
  EXPECT_GT(fault::GlobalRegistry().fires("reid.latency"), 0);
  EXPECT_GT(fault::GlobalRegistry().fires("reid.cache.miss"), 0);
#endif
}

INSTANTIATE_TEST_SUITE_P(BatchSizes, ThetaStreamTest,
                         ::testing::Values(1, 8),
                         [](const ::testing::TestParamInfo<std::int32_t>& p) {
                           return p.param == 1 ? std::string("TMerge")
                                               : std::string("TMergeB");
                         });

}  // namespace
}  // namespace tmerge
