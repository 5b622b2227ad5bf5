#include "tmerge/core/beta.h"

#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "tmerge/core/beta_sampler.h"
#include "tmerge/core/rng.h"

namespace tmerge::core {
namespace {

TEST(BetaPosteriorTest, DefaultIsUniformPrior) {
  BetaPosterior beta;
  EXPECT_DOUBLE_EQ(beta.s(), 1.0);
  EXPECT_DOUBLE_EQ(beta.f(), 1.0);
  EXPECT_DOUBLE_EQ(beta.Mean(), 0.5);
  EXPECT_DOUBLE_EQ(beta.observation_count(), 0.0);
}

TEST(BetaPosteriorTest, ObserveUpdatesCounts) {
  BetaPosterior beta;
  beta.Observe(true);
  EXPECT_DOUBLE_EQ(beta.s(), 2.0);
  EXPECT_DOUBLE_EQ(beta.f(), 1.0);
  beta.Observe(false);
  beta.Observe(false);
  EXPECT_DOUBLE_EQ(beta.s(), 2.0);
  EXPECT_DOUBLE_EQ(beta.f(), 3.0);
  EXPECT_DOUBLE_EQ(beta.Mean(), 2.0 / 5.0);
  EXPECT_DOUBLE_EQ(beta.observation_count(), 3.0);
}

TEST(BetaPosteriorTest, PseudoCountsLowerMean) {
  // BetaInit (Algorithm 3): F += 1 lowers the mean below 0.5.
  BetaPosterior beta;
  beta.AddPseudoCounts(0.0, 1.0);
  EXPECT_LT(beta.Mean(), 0.5);
  EXPECT_DOUBLE_EQ(beta.Mean(), 1.0 / 3.0);
}

TEST(BetaPosteriorTest, VarianceShrinksWithObservations) {
  BetaPosterior beta;
  double v0 = beta.Variance();
  for (int i = 0; i < 50; ++i) beta.Observe(i % 2 == 0);
  EXPECT_LT(beta.Variance(), v0);
}

TEST(BetaPosteriorTest, VarianceFormula) {
  BetaPosterior beta(2.0, 3.0);
  // Var = SF / ((S+F)^2 (S+F+1)) = 6 / (25 * 6) = 0.04.
  EXPECT_DOUBLE_EQ(beta.Variance(), 0.04);
}

TEST(BetaPosteriorTest, PosteriorConcentratesOnTrueRate) {
  // Feed Bernoulli(0.2) observations; the posterior mean must converge.
  Rng rng(99);
  BetaPosterior beta;
  for (int i = 0; i < 5000; ++i) beta.Observe(rng.Bernoulli(0.2));
  EXPECT_NEAR(beta.Mean(), 0.2, 0.02);
}

// `beta`'s Thompson samples, drawn `kArms` at a time as one block.
std::vector<double> Samples(const BetaPosterior& beta, BetaSampler& sampler,
                            int rounds) {
  constexpr int kArms = 10;
  BetaShapes shapes;
  for (int i = 0; i < kArms; ++i) shapes.PushBack(beta);
  std::vector<double> samples;
  for (int r = 0; r < rounds; ++r) {
    for (double theta : sampler.Draw(shapes)) samples.push_back(theta);
  }
  return samples;
}

TEST(BetaPosteriorTest, SampleWithinUnitInterval) {
  BetaSampler sampler(5);
  BetaPosterior beta(3.0, 7.0);
  for (double theta : Samples(beta, sampler, 50)) {
    EXPECT_GE(theta, 0.0);
    EXPECT_LE(theta, 1.0);
  }
}

TEST(BetaPosteriorTest, SampleMeanMatchesPosteriorMean) {
  BetaSampler sampler(6);
  BetaPosterior beta(30.0, 70.0);
  const std::vector<double> samples = Samples(beta, sampler, 2000);
  double sum = 0.0;
  for (double theta : samples) sum += theta;
  EXPECT_NEAR(sum / static_cast<double>(samples.size()), beta.Mean(), 0.01);
}

TEST(BetaPosteriorDeathTest, RejectsNonPositiveShapes) {
  EXPECT_DEATH(BetaPosterior(0.0, 1.0), "TMERGE_CHECK");
  EXPECT_DEATH(BetaPosterior(1.0, -1.0), "TMERGE_CHECK");
  BetaPosterior beta;
  EXPECT_DEATH(beta.AddPseudoCounts(-1.0, 0.0), "TMERGE_CHECK");
}

// Property sweep: for any (S, F), the Thompson sampling ordering favors the
// distribution with the lower mean most of the time.
class BetaOrderingTest
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(BetaOrderingTest, LowerMeanSampledLowerOnAverage) {
  auto [s, f] = GetParam();
  BetaSampler sampler(777);
  BetaShapes shapes;
  shapes.PushBack(BetaPosterior(s, f + 5.0));  // Lower mean.
  shapes.PushBack(BetaPosterior(s + 5.0, f));  // Higher mean.
  int low_wins = 0;
  constexpr int kTrials = 3000;
  for (int i = 0; i < kTrials; ++i) {
    const std::span<const double> theta = sampler.Draw(shapes);
    if (theta[0] < theta[1]) ++low_wins;
  }
  EXPECT_GT(low_wins, kTrials / 2);
}

INSTANTIATE_TEST_SUITE_P(Shapes, BetaOrderingTest,
                         ::testing::Values(std::make_pair(1.0, 1.0),
                                           std::make_pair(2.0, 5.0),
                                           std::make_pair(10.0, 10.0),
                                           std::make_pair(0.5, 3.0)));

}  // namespace
}  // namespace tmerge::core
