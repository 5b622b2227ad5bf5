// Golden digests of every shipped selector's output. Each digest hashes,
// per window, the candidates, the UsageStats counters, the bits of
// simulated_seconds and sum_sampled_distance, box_pairs_evaluated, the ULB
// counts and failed_pulls, plus the dataset-level EvalResult — so any
// change to a selector's sampling order, RNG consumption, cost charging or
// pruning decisions changes the digest. The pinned values were recorded on
// the sort-based ULB / unordered_map BoxPairSampler / per-arm-log LCB
// implementation; the linear-time bookkeeping that replaced it must
// reproduce them bit for bit, at 1 and at 8 threads. The TMerge, TMerge-B
// and gated TMerge digests were re-recorded once when θ moved to the
// 8-lane block sampler (DESIGN.md §4.1); BL, PS and LCB never draw θ and
// kept theirs, which pins the core::Rng cell/Bernoulli streams unchanged.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "tmerge/core/mutex.h"
#include "tmerge/gate/gated_selector.h"
#include "tmerge/merge/baseline.h"
#include "tmerge/merge/lcb.h"
#include "tmerge/merge/pipeline.h"
#include "tmerge/merge/proportional.h"
#include "tmerge/merge/tmerge.h"
#include "tmerge/sim/dataset.h"
#include "tmerge/sim/video_generator.h"
#include "tmerge/track/sort_tracker.h"

namespace tmerge {
namespace {

/// FNV-1a over 64-bit words.
class Digest {
 public:
  void Add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (word >> (8 * i)) & 0xFFu;
      hash_ *= 0x100000001B3ULL;
    }
  }
  void Add(std::int64_t value) { Add(static_cast<std::uint64_t>(value)); }
  void Add(double value) { Add(std::bit_cast<std::uint64_t>(value)); }
  void Add(const reid::UsageStats& usage) {
    for (std::int64_t field :
         {usage.single_inferences, usage.batched_crops, usage.batch_calls,
          usage.distance_evals, usage.cache_hits, usage.failed_embeds,
          usage.gate_accepted, usage.gate_rejected, usage.gate_ambiguous}) {
      Add(field);
    }
  }
  void Add(const std::vector<metrics::TrackPairKey>& pairs) {
    Add(static_cast<std::uint64_t>(pairs.size()));
    for (const auto& [a, b] : pairs) {
      Add(static_cast<std::int64_t>(a));
      Add(static_cast<std::int64_t>(b));
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

/// Transparent decorator hashing each window's SelectionResult. Thread
/// safe; the per-window hashes are sorted before they are combined, so the
/// digest does not depend on the order worker threads finish windows.
class DigestingSelector : public merge::CandidateSelector {
 public:
  explicit DigestingSelector(merge::CandidateSelector& inner)
      : inner_(inner) {}

  merge::SelectionResult Select(const merge::PairContext& context,
                                const reid::ReidModel& model,
                                reid::FeatureCache& cache,
                                const merge::SelectorOptions& options) override {
    merge::SelectionResult result =
        inner_.Select(context, model, cache, options);
    Digest digest;
    digest.Add(options.seed);
    digest.Add(static_cast<std::uint64_t>(context.num_pairs()));
    digest.Add(result.candidates);
    digest.Add(result.usage);
    digest.Add(result.simulated_seconds);
    digest.Add(result.sum_sampled_distance);
    digest.Add(result.box_pairs_evaluated);
    digest.Add(result.ulb_pruned_in);
    digest.Add(result.ulb_pruned_out);
    digest.Add(result.failed_pulls);
    core::MutexLock lock(mu_);
    windows_.push_back(digest.value());
    pruned_in_ += result.ulb_pruned_in;
    pruned_out_ += result.ulb_pruned_out;
    return result;
  }

  std::string name() const override { return inner_.name(); }

  /// ULB prunes summed over the windows seen so far.
  std::int64_t pruned_in() {
    core::MutexLock lock(mu_);
    return pruned_in_;
  }
  std::int64_t pruned_out() {
    core::MutexLock lock(mu_);
    return pruned_out_;
  }

  /// Combines the windows seen so far (sorted) and clears them.
  std::uint64_t TakeDigest() {
    core::MutexLock lock(mu_);
    std::sort(windows_.begin(), windows_.end());
    Digest digest;
    digest.Add(static_cast<std::uint64_t>(windows_.size()));
    for (std::uint64_t window : windows_) digest.Add(window);
    windows_.clear();
    return digest.value();
  }

 private:
  merge::CandidateSelector& inner_;
  core::Mutex mu_;
  std::vector<std::uint64_t> windows_ TMERGE_GUARDED_BY(mu_);
  std::int64_t pruned_in_ TMERGE_GUARDED_BY(mu_) = 0;
  std::int64_t pruned_out_ TMERGE_GUARDED_BY(mu_) = 0;
};

/// A dataset run's digest and the ULB activity behind it.
struct GoldenRun {
  std::uint64_t digest = 0;
  std::int64_t pruned_in = 0;
  std::int64_t pruned_out = 0;
};

/// One PathTrack-like and one KITTI-like video, shortened so the suite
/// runs in seconds while the bandits still exhaust, prune and go dense.
class SelectorGoldenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::VideoConfig pathtrack =
        sim::ProfileConfig(sim::DatasetProfile::kPathTrackLike);
    pathtrack.num_frames = 1500;
    sim::VideoConfig kitti = sim::ProfileConfig(sim::DatasetProfile::kKittiLike);
    videos_ = new std::vector<sim::SyntheticVideo>{
        sim::GenerateVideo(pathtrack, 2023), sim::GenerateVideo(kitti, 2024)};
    track::SortTracker tracker;
    prepared_ = new std::vector<merge::PreparedVideo>;
    const std::int32_t window_lengths[] = {600, 120};
    for (std::size_t v = 0; v < videos_->size(); ++v) {
      merge::PipelineConfig config;
      config.window.length = window_lengths[v];
      config.seed = 77 + v;
      prepared_->push_back(
          merge::PrepareVideo((*videos_)[v], tracker, config));
    }
  }
  static void TearDownTestSuite() {
    delete prepared_;
    delete videos_;
  }

  /// Evaluates `selector` over both videos at `threads` workers and
  /// returns the digest of every window plus the dataset aggregate.
  static GoldenRun Run(merge::CandidateSelector& selector,
                       std::int32_t batch_size, int threads) {
    DigestingSelector digesting(selector);
    merge::SelectorOptions options;
    options.seed = 5;
    options.batch_size = batch_size;
    merge::EvalResult eval =
        merge::EvaluateDataset(*prepared_, digesting, options, threads);
    Digest digest;
    digest.Add(digesting.TakeDigest());
    digest.Add(eval.rec);
    digest.Add(eval.simulated_seconds);
    digest.Add(eval.usage);
    digest.Add(eval.box_pairs_evaluated);
    digest.Add(eval.failed_pulls);
    digest.Add(eval.candidates);
    return {digest.value(), digesting.pruned_in(), digesting.pruned_out()};
  }

  /// Asserts the digest at 1 and 8 threads equals `expected`; returns
  /// the 8-thread run.
  static GoldenRun ExpectGolden(const char* label,
                                merge::CandidateSelector& selector,
                                std::int32_t batch_size,
                                std::uint64_t expected) {
    GoldenRun run;
    for (int threads : {1, 8}) {
      run = Run(selector, batch_size, threads);
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%016" PRIX64 "ULL", run.digest);
      EXPECT_EQ(run.digest, expected)
          << label << " at " << threads << " threads: digest " << hex;
    }
    return run;
  }

  static std::vector<sim::SyntheticVideo>* videos_;
  static std::vector<merge::PreparedVideo>* prepared_;
};

std::vector<sim::SyntheticVideo>* SelectorGoldenTest::videos_ = nullptr;
std::vector<merge::PreparedVideo>* SelectorGoldenTest::prepared_ = nullptr;

TEST_F(SelectorGoldenTest, Baseline) {
  merge::BaselineSelector baseline;
  ExpectGolden("BL", baseline, 1, 0x248D8B36F645F5B9ULL);
}

TEST_F(SelectorGoldenTest, ProportionalSparse) {
  // η = 0.03, the e2ebench setting: every pair stays in the sampler's
  // sparse (rejection) phase.
  merge::ProportionalSelector ps(0.03);
  ExpectGolden("PS(0.03)", ps, 1, 0x61FBF0732182917BULL);
}

TEST_F(SelectorGoldenTest, ProportionalDense) {
  // η = 0.8: every pair crosses the sampler's switch to its dense phase.
  merge::ProportionalSelector ps(0.8);
  ExpectGolden("PS(0.8)", ps, 1, 0x01D40E3AC85CD5DEULL);
}

TEST_F(SelectorGoldenTest, Lcb) {
  merge::LcbSelector lcb(10000);
  ExpectGolden("LCB", lcb, 1, 0xF4E295DA3A18F64AULL);
}

TEST_F(SelectorGoldenTest, TMerge) {
  merge::TMergeSelector tmerge;
  const GoldenRun run =
      ExpectGolden("TMerge", tmerge, 1, 0x62FE833DBC4EB6CFULL);
  // ULB fires here. It prunes out only: pruning in needs an upper bound
  // below all but K-1 lower bounds, which these budgets never reach (the
  // ULB oracle test in tmerge_test covers that transition).
  EXPECT_GT(run.pruned_out, 0);
}

TEST_F(SelectorGoldenTest, TMergeBatched) {
  merge::TMergeSelector tmerge;
  const GoldenRun run =
      ExpectGolden("TMerge-B", tmerge, 8, 0xB11C5283245AC4FEULL);
  EXPECT_GT(run.pruned_out, 0);
}

TEST_F(SelectorGoldenTest, GatedTMerge) {
  merge::TMergeSelector tmerge;
  gate::GateConfig config;
  config.enabled = true;
  gate::GatedSelector gated(tmerge, config);
  ExpectGolden("Gated TMerge", gated, 1, 0x6734BB85889ABE37ULL);
}

}  // namespace
}  // namespace tmerge
