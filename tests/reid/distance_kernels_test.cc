#include "tmerge/reid/distance_kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "tmerge/core/rng.h"
#include "tmerge/core/status.h"
#include "tmerge/reid/feature.h"

namespace tmerge::reid::kernels {
namespace {

/// ULP distance between two non-negative finite doubles (bit-pattern
/// difference; for same-sign finite values consecutive representable
/// doubles differ by exactly 1).
std::int64_t UlpDiff(double a, double b) {
  std::int64_t ia = 0, ib = 0;
  std::memcpy(&ia, &a, sizeof(a));
  std::memcpy(&ib, &b, sizeof(b));
  return ia >= ib ? ia - ib : ib - ia;
}

std::vector<double> RandomFeature(core::Rng& rng, std::size_t dim) {
  std::vector<double> v(dim);
  for (double& x : v) x = rng.Normal(0.0, 1.0);
  return v;
}

/// Restores the dispatch level on scope exit so a failing assertion cannot
/// leak a pinned level into later tests. `saved()` is the level in force
/// when the scope opened — the session default unless a test leaked one.
class ScopedKernelLevel {
 public:
  ScopedKernelLevel() : saved_(CurrentKernelLevel()) {}
  ~ScopedKernelLevel() { SetKernelLevel(saved_); }

  KernelLevel saved() const { return saved_; }

 private:
  KernelLevel saved_;
};

TEST(DistanceKernelsTest, KnownEuclideanValues) {
  const double a[] = {0.0, 3.0};
  const double b[] = {4.0, 0.0};
  EXPECT_DOUBLE_EQ(ScalarSquaredDistance(a, b, 2), 25.0);
  EXPECT_DOUBLE_EQ(SquaredDistance(a, b, 2), 25.0);
  EXPECT_DOUBLE_EQ(Distance(a, b, 2), 5.0);
}

// The bit-compatibility contract from the header: the unrolled kernel
// accumulates in the same order as the scalar reference, so outputs are
// identical to the last bit — not merely close. Odd dims exercise the
// remainder loop.
TEST(DistanceKernelsTest, UnrolledBitIdenticalToScalar) {
  ScopedKernelLevel restore;
  core::Rng rng(2024);
  for (std::size_t dim = 1; dim <= 67; ++dim) {
    std::vector<double> a = RandomFeature(rng, dim);
    std::vector<double> b = RandomFeature(rng, dim);
    ASSERT_TRUE(SetKernelLevel(restore.saved()));
    double unrolled = SquaredDistance(a.data(), b.data(), dim);
    double scalar = ScalarSquaredDistance(a.data(), b.data(), dim);
    EXPECT_EQ(UlpDiff(unrolled, scalar), 0) << "dim=" << dim;
    ASSERT_TRUE(SetKernelLevel(KernelLevel::kScalar));
    EXPECT_EQ(UlpDiff(SquaredDistance(a.data(), b.data(), dim), scalar), 0)
        << "dim=" << dim;
  }
}

TEST(DistanceKernelsTest, DistanceIsSqrtOfSquared) {
  core::Rng rng(7);
  for (std::size_t dim : {1u, 4u, 16u, 33u}) {
    std::vector<double> a = RandomFeature(rng, dim);
    std::vector<double> b = RandomFeature(rng, dim);
    EXPECT_EQ(UlpDiff(Distance(a.data(), b.data(), dim),
                      std::sqrt(SquaredDistance(a.data(), b.data(), dim))),
              0);
  }
}

TEST(DistanceKernelsTest, OneVsManyMatchesSingleCalls) {
  ScopedKernelLevel restore;
  core::Rng rng(99);
  constexpr std::size_t kDim = 16, kCount = 37;
  std::vector<double> query = RandomFeature(rng, kDim);
  std::vector<std::vector<double>> features;
  std::vector<const double*> many;
  for (std::size_t i = 0; i < kCount; ++i) {
    features.push_back(RandomFeature(rng, kDim));
    many.push_back(features.back().data());
  }
  for (bool scalar : {false, true}) {
    ASSERT_TRUE(
        SetKernelLevel(scalar ? KernelLevel::kScalar : restore.saved()));
    std::vector<double> out(kCount);
    OneVsManySquared(query.data(), many.data(), kCount, kDim, out.data());
    for (std::size_t i = 0; i < kCount; ++i) {
      EXPECT_EQ(
          UlpDiff(out[i], SquaredDistance(query.data(), many[i], kDim)), 0)
          << "scalar=" << scalar << " i=" << i;
      // Cross-mode too: both dispatch modes are bit-identical by design.
      EXPECT_EQ(
          UlpDiff(out[i], ScalarSquaredDistance(query.data(), many[i], kDim)),
          0)
          << i;
    }
  }
}

// Both kernels must stay within a couple ULP of an extended-precision
// reference — guards against an accidental rewrite into a numerically
// sloppy form (the bitwise test above alone would not catch the two paths
// drifting together).
TEST(DistanceKernelsTest, WithinTwoUlpOfLongDoubleReference) {
  core::Rng rng(5);
  for (std::size_t dim : {3u, 16u, 64u, 129u}) {
    std::vector<double> a = RandomFeature(rng, dim);
    std::vector<double> b = RandomFeature(rng, dim);
    long double reference = 0.0L;
    for (std::size_t i = 0; i < dim; ++i) {
      long double d = static_cast<long double>(a[i]) - b[i];
      reference += d * d;
    }
    double expected = static_cast<double>(reference);
    // Sequential-summation rounding grows with the term count, so the
    // tolerance scales with dim; at the shipped feature dim (16) the bound
    // is the tight 2 ULP.
    const auto ulp_bound =
        std::max<std::int64_t>(2, static_cast<std::int64_t>(dim) / 16);
    EXPECT_LE(UlpDiff(ScalarSquaredDistance(a.data(), b.data(), dim),
                      expected),
              ulp_bound)
        << dim;
    EXPECT_LE(UlpDiff(SquaredDistance(a.data(), b.data(), dim), expected),
              ulp_bound)
        << dim;
  }
}

// The batched normalize epilogue must match the scalar
// sqrt-divide-clamp element for element, bit for bit, in both dispatch
// modes. Odd counts exercise the SSE2 remainder lane; in-place operation
// is part of the contract.
TEST(DistanceKernelsTest, NormalizedFromSquaredManyBitIdentical) {
  ScopedKernelLevel restore;
  core::Rng rng(33);
  constexpr double kScale = 4.0;
  for (std::size_t count : {1u, 2u, 7u, 16u, 33u}) {
    std::vector<double> squared(count);
    for (double& s : squared) {
      const double x = rng.Normal(0.0, 3.0);
      s = x * x;  // Non-negative, spanning [0, 1] and clamped territory.
    }
    std::vector<double> expected(count);
    for (std::size_t i = 0; i < count; ++i) {
      expected[i] = std::clamp(std::sqrt(squared[i]) / kScale, 0.0, 1.0);
    }
    for (bool scalar : {false, true}) {
      ASSERT_TRUE(
          SetKernelLevel(scalar ? KernelLevel::kScalar : restore.saved()));
      std::vector<double> out(count);
      NormalizedFromSquaredMany(squared.data(), count, kScale, out.data());
      std::vector<double> in_place = squared;
      NormalizedFromSquaredMany(in_place.data(), count, kScale,
                                in_place.data());
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(UlpDiff(out[i], expected[i]), 0)
            << "scalar=" << scalar << " count=" << count << " i=" << i;
        EXPECT_EQ(UlpDiff(in_place[i], expected[i]), 0)
            << "scalar=" << scalar << " count=" << count << " i=" << i;
      }
    }
  }
}

TEST(DistanceKernelsTest, ViewOverloadsMatchPointerOverloads) {
  core::Rng rng(11);
  FeatureVector a = RandomFeature(rng, 16);
  FeatureVector b = RandomFeature(rng, 16);
  FeatureView va(a), vb(b);
  EXPECT_EQ(UlpDiff(SquaredDistance(va, vb),
                    SquaredDistance(a.data(), b.data(), 16)),
            0);
  EXPECT_EQ(UlpDiff(Distance(va, vb), Distance(a.data(), b.data(), 16)), 0);
}

// --- Dispatch-level differential suite (DESIGN.md §10.2) -----------------

/// One test instance per KernelLevel; unsupported levels skip with a
/// message, so a CI log shows exactly which tiers each runner exercised.
class KernelLevelTest : public ::testing::TestWithParam<KernelLevel> {
 protected:
  void SetUp() override {
    if (!KernelLevelSupported(GetParam())) {
      GTEST_SKIP() << "kernel level " << KernelLevelName(GetParam())
                   << " is not supported on this host";
    }
  }
};

INSTANTIATE_TEST_SUITE_P(
    AllLevels, KernelLevelTest,
    ::testing::Values(KernelLevel::kScalar, KernelLevel::kSse2,
                      KernelLevel::kAvx2),
    [](const ::testing::TestParamInfo<KernelLevel>& p) {
      return KernelLevelName(p.param);
    });

// The §10.2 contract at every dispatch level: OneVsManySquared returns the
// scalar reference bits. Dims cross every vector width and remainder lane;
// counts cross the across-row blocking (2/4/8 rows per vector op).
TEST_P(KernelLevelTest, OneVsManyBitIdenticalToScalar) {
  ScopedKernelLevel restore;
  core::Rng rng(401);
  for (std::size_t dim : {1u, 3u, 8u, 16u, 17u, 33u, 64u}) {
    for (std::size_t count : {1u, 2u, 7u, 9u, 37u}) {
      std::vector<double> query = RandomFeature(rng, dim);
      std::vector<std::vector<double>> rows;
      std::vector<const double*> many;
      for (std::size_t i = 0; i < count; ++i) {
        rows.push_back(RandomFeature(rng, dim));
        many.push_back(rows.back().data());
      }
      ASSERT_TRUE(SetKernelLevel(KernelLevel::kScalar));
      std::vector<double> reference(count);
      OneVsManySquared(query.data(), many.data(), count, dim,
                       reference.data());
      ASSERT_TRUE(SetKernelLevel(GetParam()));
      std::vector<double> out(count);
      OneVsManySquared(query.data(), many.data(), count, dim, out.data());
      EXPECT_EQ(std::memcmp(out.data(), reference.data(),
                            count * sizeof(double)),
                0)
          << "dim=" << dim << " count=" << count;
    }
  }
}

TEST_P(KernelLevelTest, NormalizedEpilogueBitIdenticalToScalar) {
  ScopedKernelLevel restore;
  core::Rng rng(402);
  constexpr double kScale = 4.0;
  for (std::size_t count : {1u, 2u, 7u, 16u, 33u}) {
    std::vector<double> squared(count);
    for (double& s : squared) {
      const double x = rng.Normal(0.0, 3.0);
      s = x * x;
    }
    ASSERT_TRUE(SetKernelLevel(KernelLevel::kScalar));
    std::vector<double> reference(count);
    NormalizedFromSquaredMany(squared.data(), count, kScale,
                              reference.data());
    ASSERT_TRUE(SetKernelLevel(GetParam()));
    std::vector<double> out(count);
    NormalizedFromSquaredMany(squared.data(), count, kScale, out.data());
    EXPECT_EQ(
        std::memcmp(out.data(), reference.data(), count * sizeof(double)), 0)
        << "count=" << count;
  }
}

// --- Dispatch API ---------------------------------------------------------

TEST(KernelDispatchTest, SupportedLevelsAscendFromScalarToDetected) {
  const std::vector<KernelLevel> levels = SupportedKernelLevels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), KernelLevel::kScalar);
  EXPECT_EQ(levels.back(), DetectedKernelLevel());
  for (std::size_t i = 1; i < levels.size(); ++i) {
    EXPECT_LT(static_cast<int>(levels[i - 1]), static_cast<int>(levels[i]));
  }
  for (KernelLevel level : levels) {
    EXPECT_TRUE(KernelLevelSupported(level)) << KernelLevelName(level);
  }
}

TEST(KernelDispatchTest, SetKernelLevelRejectsUnsupportedLevels) {
  ScopedKernelLevel restore;
  for (KernelLevel level : {KernelLevel::kScalar, KernelLevel::kSse2,
                            KernelLevel::kAvx2}) {
    if (KernelLevelSupported(level)) {
      EXPECT_TRUE(SetKernelLevel(level)) << KernelLevelName(level);
      EXPECT_EQ(CurrentKernelLevel(), level);
    } else {
      const KernelLevel before = CurrentKernelLevel();
      EXPECT_FALSE(SetKernelLevel(level)) << KernelLevelName(level);
      EXPECT_EQ(CurrentKernelLevel(), before);  // Unchanged on rejection.
    }
  }
}

TEST(KernelDispatchTest, ParseKernelLevelAcceptsExactNamesOnly) {
  KernelLevel level = KernelLevel::kAvx2;
  EXPECT_TRUE(ParseKernelLevel("scalar", &level));
  EXPECT_EQ(level, KernelLevel::kScalar);
  EXPECT_TRUE(ParseKernelLevel("sse2", &level));
  EXPECT_EQ(level, KernelLevel::kSse2);
  EXPECT_TRUE(ParseKernelLevel("avx2", &level));
  EXPECT_EQ(level, KernelLevel::kAvx2);
  // "avx512" names a retired level: no faster than AVX2 at dim 16.
  for (const char* junk : {"", "AVX2", "avx", "avx2 ", " sse2", "3",
                           "scalar,avx2", "best", "avx512"}) {
    level = KernelLevel::kSse2;
    EXPECT_FALSE(ParseKernelLevel(junk, &level)) << '"' << junk << '"';
    EXPECT_EQ(level, KernelLevel::kSse2) << "junk must not write through";
  }
}

TEST(KernelDispatchTest, LevelNamesRoundTripThroughParser) {
  for (KernelLevel level : {KernelLevel::kScalar, KernelLevel::kSse2,
                            KernelLevel::kAvx2}) {
    KernelLevel parsed = KernelLevel::kScalar;
    EXPECT_TRUE(ParseKernelLevel(KernelLevelName(level), &parsed));
    EXPECT_EQ(parsed, level);
  }
}

// A session pinned to the retired AVX-512 level keeps running: the value
// takes the strict parser's warn-and-keep-detected path. The threadsafe
// death-test style re-executes the binary, so the child resolves its
// default level from scratch, with the variable set.
TEST(KernelDispatchDeathTest, RetiredAvx512LevelWarnsAndKeepsDetected) {
  const std::string style = ::testing::GTEST_FLAG(death_test_style);
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        setenv("TMERGE_KERNEL_LEVEL", "avx512", /*overwrite=*/1);
        std::exit(CurrentKernelLevel() == DetectedKernelLevel() ? 0 : 1);
      },
      ::testing::ExitedWithCode(0),
      "ignoring invalid TMERGE_KERNEL_LEVEL=\"avx512\"");
  ::testing::GTEST_FLAG(death_test_style) = style;
}

#if TMERGE_DCHECK_ENABLED
// The per-call dimension check is debug-only: dimensions are validated at
// FeatureStore registration, so release builds run the kernels unchecked.
TEST(DistanceKernelsDeathTest, MismatchedViewDimsAbortInDebug) {
  FeatureVector a{1.0}, b{1.0, 2.0};
  EXPECT_DEATH(SquaredDistance(FeatureView(a), FeatureView(b)),
               "TMERGE_CHECK");
  EXPECT_DEATH(Distance(FeatureView(a), FeatureView(b)), "TMERGE_CHECK");
}
#endif

}  // namespace
}  // namespace tmerge::reid::kernels
