#include "tmerge/core/beta_sampler.h"

#include <cmath>
#include <numbers>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "tmerge/core/beta.h"

namespace tmerge::core {
namespace {

using internal::ZigguratTable;

/// `arms` copies of Beta(s, f).
BetaShapes SameShapes(double s, double f, std::size_t arms) {
  BetaShapes shapes;
  for (std::size_t i = 0; i < arms; ++i) shapes.PushBack(BetaPosterior(s, f));
  return shapes;
}

TEST(BetaSamplerTest, DeterministicForSameSeed) {
  BetaSampler a(123), b(123);
  const BetaShapes shapes = SameShapes(3.0, 7.0, 11);
  for (int round = 0; round < 100; ++round) {
    const std::span<const double> ta = a.Draw(shapes);
    const std::span<const double> tb = b.Draw(shapes);
    ASSERT_EQ(ta.size(), tb.size());
    for (std::size_t i = 0; i < ta.size(); ++i) EXPECT_EQ(ta[i], tb[i]);
  }
}

TEST(BetaSamplerTest, DifferentSeedsDiffer) {
  ThetaLane a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Uniform01() == b.Uniform01()) ++same;
  }
  EXPECT_LT(same, 5);
  // The block sampler's eight lanes are distinct engines too.
  const BetaSampler sampler(1);
  for (std::size_t l = 1; l < BetaSampler::kLanes; ++l) {
    EXPECT_NE(sampler.Lane(l).Next(), sampler.Lane(0).Next()) << l;
  }
}

TEST(BetaSamplerTest, Uniform01InRange) {
  ThetaLane lane(7);
  for (int i = 0; i < 10000; ++i) {
    double u = lane.Uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  EXPECT_EQ(internal::Unit(0), 0.0);
  EXPECT_EQ(internal::Unit(~0ULL), 1.0 - 0x1.0p-52);
  EXPECT_EQ(internal::SignedUnit(0), -1.0);
  EXPECT_EQ(internal::SignedUnit(~0ULL), 1.0 - 0x1.0p-51);
}

// Moved from rng_test (RngTest.BetaMeanMatchesTheory) with Rng::Beta.
TEST(BetaSamplerTest, BetaMeanMatchesTheory) {
  BetaSampler sampler(23);
  const BetaShapes shapes = SameShapes(2.0, 6.0, 20);
  double sum = 0.0;
  constexpr int kRounds = 1000;
  for (int r = 0; r < kRounds; ++r) {
    for (double theta : sampler.Draw(shapes)) sum += theta;
  }
  EXPECT_NEAR(sum / (kRounds * 20), 2.0 / 8.0, 0.01);
}

// Moved from rng_test (RngTest.BetaStaysInUnitInterval) with Rng::Beta.
TEST(BetaSamplerTest, BetaStaysInUnitInterval) {
  BetaSampler sampler(29);
  const BetaShapes shapes = SameShapes(0.5, 0.5, 20);
  for (int r = 0; r < 100; ++r) {
    for (double b : sampler.Draw(shapes)) {
      EXPECT_GE(b, 0.0);
      EXPECT_LE(b, 1.0);
    }
  }
}

TEST(BetaSamplerTest, GammaShapeConstants) {
  const GammaShape three(3.0);
  EXPECT_DOUBLE_EQ(three.d, 3.0 - 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(three.c, 1.0 / std::sqrt(9.0 * three.d));
  EXPECT_EQ(three.inv_shape, 0.0);
  // Shapes below 1 are boosted to shape + 1 and scaled back by U^(1/a).
  const GammaShape quarter(0.25);
  EXPECT_DOUBLE_EQ(quarter.d, 1.25 - 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(quarter.inv_shape, 4.0);
  const GammaShape prior;
  EXPECT_DOUBLE_EQ(prior.d, 1.0 - 1.0 / 3.0);
  EXPECT_EQ(prior.inv_shape, 0.0);
}

// BetaShapes tracks every count change, push, move and truncation: its
// draws equal draws from shapes freshly built from the current
// posteriors, bit for bit.
TEST(BetaSamplerTest, PosteriorRefreshesCachedShapes) {
  std::vector<BetaPosterior> posteriors(10);
  BetaShapes cached;
  for (const BetaPosterior& posterior : posteriors) cached.PushBack(posterior);
  BetaSampler a(41), b(41);
  for (int round = 0; round < 200; ++round) {
    const std::size_t i = static_cast<std::size_t>(round) % cached.size();
    posteriors[i].Observe(round % 3 == 0);
    cached.Set(i, posteriors[i]);
    if (round == 100) {
      // Drop arm 2, as the selector compacts a pruned arm away.
      for (std::size_t j = 2; j + 1 < posteriors.size(); ++j) {
        cached.Move(j + 1, j);
      }
      posteriors.erase(posteriors.begin() + 2);
      cached.Truncate(posteriors.size());
    }
    BetaShapes fresh;
    for (const BetaPosterior& posterior : posteriors) fresh.PushBack(posterior);
    const std::span<const double> ta = a.Draw(cached);
    const std::span<const double> tb = b.Draw(fresh);
    ASSERT_EQ(ta.size(), tb.size());
    for (std::size_t j = 0; j < ta.size(); ++j) EXPECT_EQ(ta[j], tb[j]);
  }
}

// Moved from rng_test (RngDeathTest.InvalidArgumentsAbort's Gamma/Beta
// lines) with Rng::Gamma / Rng::Beta.
TEST(BetaSamplerDeathTest, NonPositiveShapesAbort) {
  EXPECT_DEATH(GammaShape(0.0), "TMERGE_CHECK");
  EXPECT_DEATH(GammaShape(-1.0), "TMERGE_CHECK");
  EXPECT_DEATH(BetaPosterior(0.0, 1.0), "TMERGE_CHECK");
}

TEST(ZigguratTest, LayersDecreaseToZero) {
  const ZigguratTable& table = internal::Ziggurat();
  EXPECT_EQ(table.x[1], ZigguratTable::kR);
  EXPECT_EQ(table.x[ZigguratTable::kLayers], 0.0);
  EXPECT_EQ(table.f[ZigguratTable::kLayers], 1.0);
  for (int i = 0; i < ZigguratTable::kLayers; ++i) {
    EXPECT_GT(table.x[i], table.x[i + 1]) << i;
    EXPECT_LT(table.f[i], table.f[i + 1]) << i;
  }
}

// Every layer has area v: the base strip (rectangle to r plus the tail),
// each middle layer by construction, and — the published constants' real
// test — the top layer the recursion never fits to.
TEST(ZigguratTest, EveryLayerHasEqualArea) {
  const ZigguratTable& table = internal::Ziggurat();
  const double r = ZigguratTable::kR;
  const double v = ZigguratTable::kV;
  const double tail =
      std::sqrt(std::numbers::pi / 2.0) * std::erfc(r / std::sqrt(2.0));
  EXPECT_NEAR(r * table.f[1] + tail, v, 1e-12);
  EXPECT_NEAR(table.x[0] * table.f[1], v, 1e-15);
  for (int i = 1; i < ZigguratTable::kLayers; ++i) {
    EXPECT_NEAR(table.x[i] * (table.f[i + 1] - table.f[i]), v, 1e-11) << i;
  }
}

}  // namespace
}  // namespace tmerge::core
