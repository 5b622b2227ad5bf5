#include "tmerge/merge/pair_store.h"

#include <set>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "testing/test_util.h"

namespace tmerge::merge {
namespace {

using testing::MakeResult;
using testing::MakeTrack;

TEST(MakeCropRefTest, ForwardsHiddenFields) {
  track::TrackedBox box;
  box.detection_id = 44;
  box.gt_id = 3;
  box.visibility = 0.7;
  box.glared = true;
  box.noise_seed = 555;
  reid::CropRef crop = MakeCropRef(box);
  EXPECT_EQ(crop.detection_id, 44u);
  EXPECT_EQ(crop.gt_id, 3);
  EXPECT_DOUBLE_EQ(crop.visibility, 0.7);
  EXPECT_TRUE(crop.glared);
  EXPECT_EQ(crop.noise_seed, 555u);
}

class PairContextTest : public ::testing::Test {
 protected:
  PairContextTest()
      : result_(MakeResult({MakeTrack(1, 0, 10, 0, 100.0, 100.0),
                            MakeTrack(2, 50, 20, 0, 400.0, 100.0),
                            MakeTrack(3, 100, 5, 1, 100.0, 500.0)})),
        context_(result_, {{1, 2}, {1, 3}, {2, 3}}) {}

  track::TrackingResult result_;
  PairContext context_;
};

TEST_F(PairContextTest, BasicAccessors) {
  EXPECT_EQ(context_.num_pairs(), 3u);
  EXPECT_EQ(context_.TrackA(0).id, 1);
  EXPECT_EQ(context_.TrackB(0).id, 2);
  EXPECT_EQ(context_.TrackB(2).id, 3);
}

TEST_F(PairContextTest, BoxPairCount) {
  EXPECT_EQ(context_.BoxPairCount(0), 200);  // 10 * 20.
  EXPECT_EQ(context_.BoxPairCount(1), 50);   // 10 * 5.
  EXPECT_EQ(context_.TotalBoxPairs(), 200 + 50 + 100);
}

TEST_F(PairContextTest, SpatialDistanceUsesTemporalOrder) {
  // Track 1 ends at x = 100 + 2*9 = 118 (center 118+25=143, y 160); track 2
  // starts at x = 400 (center 425, y 160). DisS = 282.
  EXPECT_NEAR(context_.SpatialDistance(0), 282.0, 1e-9);
}

TEST_F(PairContextTest, SpatialDistanceSymmetricInConstruction) {
  // Pair (2,3) given in either order refers to the same geometry.
  PairContext other(result_, {{2, 3}});
  EXPECT_DOUBLE_EQ(other.SpatialDistance(0), context_.SpatialDistance(2));
}

TEST_F(PairContextTest, TemporalGap) {
  EXPECT_EQ(context_.TemporalGap(0), 50 - 9 - 0);  // 41? gap = 50 - 9.
  // Track 1 ends at frame 9; track 2 starts at 50: gap = 41.
  EXPECT_EQ(context_.TemporalGap(0), 41);
  // Track 2 ends at 69; track 3 starts at 100: gap = 31.
  EXPECT_EQ(context_.TemporalGap(2), 31);
}

TEST(PairContextDeathTest, UnknownTidAborts) {
  track::TrackingResult result = MakeResult({MakeTrack(1, 0, 10, 0)});
  EXPECT_DEATH(PairContext(result, {{1, 99}}), "TMERGE_CHECK");
}

TEST(BoxPairSamplerTest, CoversGridWithoutReplacement) {
  core::Rng rng(5);
  BoxPairSampler sampler(4, 5);
  std::set<std::pair<std::int32_t, std::int32_t>> seen;
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(sampler.Exhausted());
    auto cell = sampler.Sample(rng);
    EXPECT_GE(cell.first, 0);
    EXPECT_LT(cell.first, 4);
    EXPECT_GE(cell.second, 0);
    EXPECT_LT(cell.second, 5);
    EXPECT_TRUE(seen.insert(cell).second) << "duplicate sample";
  }
  EXPECT_TRUE(sampler.Exhausted());
  EXPECT_EQ(sampler.sampled_count(), 20);
}

TEST(BoxPairSamplerTest, SingleCellGrid) {
  core::Rng rng(6);
  BoxPairSampler sampler(1, 1);
  auto cell = sampler.Sample(rng);
  EXPECT_EQ(cell, (std::pair<std::int32_t, std::int32_t>{0, 0}));
  EXPECT_TRUE(sampler.Exhausted());
}

TEST(BoxPairSamplerTest, LargeGridUniformish) {
  core::Rng rng(7);
  BoxPairSampler sampler(100, 100);
  std::set<std::int64_t> rows;
  for (int i = 0; i < 500; ++i) {
    auto [r, c] = sampler.Sample(rng);
    rows.insert(r);
  }
  // 500 draws over 100 rows: expect wide row coverage.
  EXPECT_GT(rows.size(), 80u);
}

/// Reference sampler: the original unordered-set formulation of
/// BoxPairSampler (rejection sampling while at most half the grid is
/// drawn, then swap-remove from the ascending list of undrawn cells).
/// BoxPairSampler must reproduce its cell sequence and consume exactly the
/// same core::Rng draws.
class ReferenceSampler {
 public:
  ReferenceSampler(std::int64_t rows, std::int64_t cols)
      : rows_(rows), cols_(cols) {}

  bool Exhausted() const { return sampled_count_ >= rows_ * cols_; }

  std::pair<std::int32_t, std::int32_t> Sample(core::Rng& rng) {
    std::int64_t total = rows_ * cols_;
    if (!dense_mode_ && sampled_count_ * 2 < total) {
      for (;;) {
        std::int64_t cell = rng.UniformInt(0, total - 1);
        if (sampled_.insert(cell).second) {
          ++sampled_count_;
          return {static_cast<std::int32_t>(cell / cols_),
                  static_cast<std::int32_t>(cell % cols_)};
        }
      }
    }
    if (!dense_mode_) {
      dense_mode_ = true;
      for (std::int64_t cell = 0; cell < total; ++cell) {
        if (!sampled_.contains(cell)) remaining_.push_back(cell);
      }
      sampled_.clear();
    }
    std::size_t pick = rng.Index(remaining_.size());
    std::int64_t cell = remaining_[pick];
    remaining_[pick] = remaining_.back();
    remaining_.pop_back();
    ++sampled_count_;
    return {static_cast<std::int32_t>(cell / cols_),
            static_cast<std::int32_t>(cell % cols_)};
  }

 private:
  std::int64_t rows_;
  std::int64_t cols_;
  std::int64_t sampled_count_ = 0;
  std::unordered_set<std::int64_t> sampled_;
  std::vector<std::int64_t> remaining_;
  bool dense_mode_ = false;
};

TEST(BoxPairSamplerTest, MatchesReferenceThroughDenseSwitchToExhaustion) {
  const std::pair<std::int64_t, std::int64_t> grids[] = {
      {1, 1}, {1, 37}, {8, 8}, {9, 7}, {64, 65}, {100, 100}};
  for (const auto& [rows, cols] : grids) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      core::Rng rng(seed), reference_rng(seed);
      BoxPairSampler sampler(rows, cols);
      ReferenceSampler reference(rows, cols);
      std::int64_t draws = 0;
      while (!reference.Exhausted()) {
        ASSERT_FALSE(sampler.Exhausted());
        ASSERT_EQ(sampler.Sample(rng), reference.Sample(reference_rng))
            << rows << "x" << cols << " seed " << seed << " draw " << draws;
        ++draws;
      }
      EXPECT_TRUE(sampler.Exhausted());
      EXPECT_EQ(draws, rows * cols);
      EXPECT_EQ(sampler.sampled_count(), rows * cols);
      // Both consumed exactly the same engine draws.
      EXPECT_EQ(rng.engine()(), reference_rng.engine()())
          << rows << "x" << cols << " seed " << seed;
    }
  }
}

TEST(BoxPairSamplerTest, MatchesReferenceWhenInterleaved) {
  // TMerge and LCB interleave many samplers on one core::Rng; the shared
  // stream must advance identically.
  core::Rng rng(9), reference_rng(9);
  std::vector<BoxPairSampler> samplers;
  std::vector<ReferenceSampler> references;
  for (std::int64_t size = 1; size <= 12; ++size) {
    samplers.emplace_back(size, size + 3);
    references.emplace_back(size, size + 3);
  }
  for (int step = 0; step < 2000; ++step) {
    std::size_t p = rng.Index(samplers.size());
    ASSERT_EQ(p, reference_rng.Index(references.size()));
    if (references[p].Exhausted()) {
      ASSERT_TRUE(samplers[p].Exhausted());
      continue;
    }
    ASSERT_EQ(samplers[p].Sample(rng), references[p].Sample(reference_rng))
        << "step " << step;
  }
  EXPECT_EQ(rng.engine()(), reference_rng.engine()());
}

TEST(BoxPairSamplerDeathTest, SamplingExhaustedAborts) {
  core::Rng rng(8);
  BoxPairSampler sampler(1, 2);
  sampler.Sample(rng);
  sampler.Sample(rng);
  EXPECT_DEATH(sampler.Sample(rng), "TMERGE_CHECK");
}

}  // namespace
}  // namespace tmerge::merge
