#include "tmerge/core/beta_sampler.h"

#include <cmath>
#include <numbers>

#include <gtest/gtest.h>

#include "tmerge/core/beta.h"

namespace tmerge::core {
namespace {

using internal::ZigguratTable;

TEST(BetaSamplerTest, DeterministicForSameSeed) {
  BetaSampler a(123), b(123);
  const GammaShape s(3.0), f(7.0);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.Beta(s, f), b.Beta(s, f));
  }
}

TEST(BetaSamplerTest, DifferentSeedsDiffer) {
  BetaSampler a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Uniform01() == b.Uniform01()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(BetaSamplerTest, Uniform01InRange) {
  BetaSampler sampler(7);
  for (int i = 0; i < 10000; ++i) {
    double u = sampler.Uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

// Moved from rng_test (RngTest.BetaMeanMatchesTheory) with Rng::Beta.
TEST(BetaSamplerTest, BetaMeanMatchesTheory) {
  BetaSampler sampler(23);
  const GammaShape alpha(2.0), beta(6.0);
  double sum = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) sum += sampler.Beta(alpha, beta);
  EXPECT_NEAR(sum / kN, 2.0 / 8.0, 0.01);
}

// Moved from rng_test (RngTest.BetaStaysInUnitInterval) with Rng::Beta.
TEST(BetaSamplerTest, BetaStaysInUnitInterval) {
  BetaSampler sampler(29);
  const GammaShape half(0.5);
  for (int i = 0; i < 2000; ++i) {
    double b = sampler.Beta(half, half);
    EXPECT_GE(b, 0.0);
    EXPECT_LE(b, 1.0);
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

// The posterior's cached shapes track every count change: its draws equal
// draws from freshly built shapes of the current (S, F), bit for bit.
TEST(BetaSamplerTest, PosteriorRefreshesCachedShapes) {
  BetaPosterior posterior;
  posterior.AddPseudoCounts(0.0, 1.0);
  BetaSampler cached(41), fresh(41);
  for (int i = 0; i < 200; ++i) {
    posterior.Observe(i % 3 == 0);
    const double theta = posterior.Sample(cached);
    EXPECT_EQ(theta, fresh.Beta(GammaShape(posterior.s()),
                                GammaShape(posterior.f())));
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
