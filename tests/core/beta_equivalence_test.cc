// Statistical equivalence of the θ stream with the reference sampler it
// replaced in TMerge (Marsaglia–Tsang on core::Rng with a polar normal):
// the block sampler core::BetaSampler (eight xoshiro256++ lanes, vector
// fast path, exact scalar resume) for Beta draws and Thompson arg-mins,
// the lanes' exact scalar Gamma (ThetaLane::Gamma, what a miss resumes
// on), and the ziggurat normal against the analytic N(0, 1).
//
// The streams differ, so the check is distributional. Thresholds were
// fixed before any measurement and are never tuned: the file computes
// fewer than 100 statistics, each tested two-sided at alpha = 1e-5, so
// under the null (same distribution) the family-wise false-alarm rate is
// below 1e-3. That gives |z| < 4.42 for every z-score and
// sqrt(n m / (n + m)) * D < sqrt(-ln(alpha / 2) / 2) = 2.47 for every
// Kolmogorov–Smirnov distance D. All seeds are fixed, so the suite is
// deterministic: a failure is a real distributional difference or a seed
// that drew a 1-in-1000 family outcome, never flakiness.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "tmerge/core/beta_sampler.h"
#include "tmerge/core/rng.h"

namespace tmerge::core {
namespace {

constexpr double kMaxZ = 4.42;
constexpr double kMaxKs = 2.47;
// Two-sample runs draw kPairN from each sampler; one-sample checks
// against theory draw kTheoryN from the new sampler alone.
constexpr int kPairN = 40000;
constexpr int kTheoryN = 400000;

// --- Reference oracle: the pre-BetaSampler Rng::Gamma / Rng::Beta -------

double ReferenceGamma(Rng& rng, double shape) {
  if (shape < 1.0) {
    double u = rng.Uniform01();
    while (u <= 0.0) u = rng.Uniform01();
    return ReferenceGamma(rng, shape + 1.0) * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x = rng.Normal(0.0, 1.0);
    double t = 1.0 + c * x;
    if (t <= 0.0) continue;
    double v = t * t * t;
    double u = rng.Uniform01();
    double x2 = x * x;
    if (u < 1.0 - 0.0331 * x2 * x2) return d * v;
    if (u > 0.0 && std::log(u) < 0.5 * x2 + d * (1.0 - v + std::log(v))) {
      return d * v;
    }
  }
}

double ReferenceBeta(Rng& rng, double alpha, double beta) {
  double x = ReferenceGamma(rng, alpha);
  double y = ReferenceGamma(rng, beta);
  double sum = x + y;
  if (sum <= 0.0) return 0.5;
  return x / sum;
}

// --- Statistics ----------------------------------------------------------

struct Moments {
  double mean = 0.0;
  double var = 0.0;  // Sample variance.
  double m4 = 0.0;   // Fourth central moment.
  double n = 0.0;
};

Moments MomentsOf(const std::vector<double>& xs) {
  Moments m;
  m.n = static_cast<double>(xs.size());
  for (double x : xs) m.mean += x;
  m.mean /= m.n;
  for (double x : xs) {
    const double d2 = (x - m.mean) * (x - m.mean);
    m.var += d2;
    m.m4 += d2 * d2;
  }
  m.var /= m.n - 1.0;
  m.m4 /= m.n;
  return m;
}

// Large-sample variance of the sample variance: (mu4 - sigma^4) / n.
double VarOfVar(const Moments& m) {
  return std::max(m.m4 - m.var * m.var, 0.0) / m.n;
}

double TwoSampleMeanZ(const Moments& a, const Moments& b) {
  return (a.mean - b.mean) / std::sqrt(a.var / a.n + b.var / b.n);
}

double TwoSampleVarZ(const Moments& a, const Moments& b) {
  return (a.var - b.var) / std::sqrt(VarOfVar(a) + VarOfVar(b));
}

// sqrt(n m / (n + m)) * sup |F_a - F_b|.
double ScaledKs(std::vector<double> a, std::vector<double> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  std::size_t i = 0, j = 0;
  double d = 0.0;
  while (i < a.size() && j < b.size()) {
    const double x = std::min(a[i], b[j]);
    while (i < a.size() && a[i] == x) ++i;
    while (j < b.size() && b[j] == x) ++j;
    d = std::max(d, std::fabs(static_cast<double>(i) / na -
                              static_cast<double>(j) / nb));
  }
  return std::sqrt(na * nb / (na + nb)) * d;
}

double NormalCdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

// Wilson–Hilferty: (chi2 / df)^(1/3) is normal with mean 1 - 2/(9 df) and
// variance 2/(9 df).
double ChiSquareZ(double chi2, double df) {
  return (std::cbrt(chi2 / df) - (1.0 - 2.0 / (9.0 * df))) /
         std::sqrt(2.0 / (9.0 * df));
}

// --- The θ stream under test ---------------------------------------------

// One exact Gamma on a lane: a fresh first attempt, as a resume continues.
double LaneGamma(ThetaLane& lane, const GammaShape& shape) {
  const std::uint64_t normal_word = lane.Next();
  const std::uint64_t uniform_word = lane.Next();
  return lane.Gamma(shape, normal_word, uniform_word);
}

double LaneNormal(ThetaLane& lane) { return lane.Normal(lane.Next()); }

// `n` Beta(alpha, beta) draws from the block sampler, 13 arms a round: a
// full block and a partial one, so every lane and the padded path serve.
std::vector<double> BlockBetas(BetaSampler& sampler, double alpha,
                               double beta, int n) {
  BetaShapes shapes;
  for (int i = 0; i < 13; ++i) shapes.PushBack(BetaPosterior(alpha, beta));
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(n) + 13);
  while (static_cast<int>(out.size()) < n) {
    for (double theta : sampler.Draw(shapes)) out.push_back(theta);
  }
  out.resize(static_cast<std::size_t>(n));
  return out;
}

// --- Gamma ---------------------------------------------------------------

// Shape grid: below 1 (boosted path), the Beta(1, 1) prior's 1, BetaInit's
// 2, small and mid counts, and a count at tau_max = 10k.
class GammaEquivalenceTest : public ::testing::TestWithParam<double> {};

TEST_P(GammaEquivalenceTest, MatchesReference) {
  const double shape = GetParam();
  const auto salt = static_cast<std::uint64_t>(shape * 1000.0);
  ThetaLane lane(101 + salt);
  Rng rng(202 + salt);
  const GammaShape cached(shape);
  std::vector<double> fresh(kPairN), reference(kPairN);
  for (int i = 0; i < kPairN; ++i) {
    fresh[i] = LaneGamma(lane, cached);
    reference[i] = ReferenceGamma(rng, shape);
  }
  const Moments a = MomentsOf(fresh), b = MomentsOf(reference);
  EXPECT_LT(std::fabs(TwoSampleMeanZ(a, b)), kMaxZ);
  EXPECT_LT(std::fabs(TwoSampleVarZ(a, b)), kMaxZ);
  EXPECT_LT(ScaledKs(fresh, reference), kMaxKs);
}

TEST_P(GammaEquivalenceTest, MomentsMatchTheory) {
  // Gamma(a, 1): mean a, variance a, mu4 - sigma^4 = 2a^2 + 6a.
  const double a = GetParam();
  ThetaLane lane(303 + static_cast<std::uint64_t>(a * 1000.0));
  const GammaShape cached(a);
  std::vector<double> xs(kTheoryN);
  for (double& x : xs) x = LaneGamma(lane, cached);
  const Moments m = MomentsOf(xs);
  EXPECT_LT(std::fabs((m.mean - a) / std::sqrt(a / m.n)), kMaxZ);
  EXPECT_LT(std::fabs((m.var - a) / std::sqrt((2.0 * a * a + 6.0 * a) / m.n)),
            kMaxZ);
}

INSTANTIATE_TEST_SUITE_P(Shapes, GammaEquivalenceTest,
                         ::testing::Values(0.5, 1.0, 2.0, 3.0, 40.0,
                                           10000.0));

// --- Beta ----------------------------------------------------------------

// (alpha, beta) grid: the Beta(1, 1) prior, BetaInit's Beta(1, 2), the
// U-shaped Beta(0.5, 0.5), skewed posteriors both ways, a mid posterior,
// and counts at tau_max = 10k.
class BetaEquivalenceTest
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(BetaEquivalenceTest, MatchesReference) {
  const auto [alpha, beta] = GetParam();
  const auto salt = static_cast<std::uint64_t>(alpha * 7.0 + beta * 13.0);
  BetaSampler sampler(404 + salt);
  Rng rng(505 + salt);
  const std::vector<double> fresh = BlockBetas(sampler, alpha, beta, kPairN);
  std::vector<double> reference(kPairN);
  for (double& x : reference) x = ReferenceBeta(rng, alpha, beta);
  const Moments a = MomentsOf(fresh), b = MomentsOf(reference);
  EXPECT_LT(std::fabs(TwoSampleMeanZ(a, b)), kMaxZ);
  EXPECT_LT(std::fabs(TwoSampleVarZ(a, b)), kMaxZ);
  EXPECT_LT(ScaledKs(fresh, reference), kMaxKs);
}

TEST_P(BetaEquivalenceTest, MomentsMatchTheory) {
  const auto [alpha, beta] = GetParam();
  BetaSampler sampler(606 +
                      static_cast<std::uint64_t>(alpha * 7.0 + beta * 13.0));
  const std::vector<double> xs = BlockBetas(sampler, alpha, beta, kTheoryN);
  const Moments m = MomentsOf(xs);
  const double s = alpha + beta;
  const double mean = alpha / s;
  const double var = alpha * beta / (s * s * (s + 1.0));
  // The mean's z uses the analytic variance; the variance's z uses the
  // sample's own fourth moment.
  EXPECT_LT(std::fabs((m.mean - mean) / std::sqrt(var / m.n)), kMaxZ);
  EXPECT_LT(std::fabs((m.var - var) / std::sqrt(VarOfVar(m))), kMaxZ);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BetaEquivalenceTest,
    ::testing::Values(std::make_pair(1.0, 1.0), std::make_pair(1.0, 2.0),
                      std::make_pair(0.5, 0.5), std::make_pair(3.0, 40.0),
                      std::make_pair(40.0, 3.0), std::make_pair(30.0, 70.0),
                      std::make_pair(2.0, 10000.0),
                      std::make_pair(10000.0, 2.0),
                      std::make_pair(5000.0, 5001.0)));

// --- Ziggurat normal -----------------------------------------------------

TEST(ZigguratNormalTest, KsAgainstAnalyticCdf) {
  ThetaLane lane(707);
  std::vector<double> xs(kTheoryN);
  for (double& x : xs) x = LaneNormal(lane);
  std::sort(xs.begin(), xs.end());
  const double n = static_cast<double>(xs.size());
  double d = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double cdf = NormalCdf(xs[i]);
    d = std::max({d, static_cast<double>(i + 1) / n - cdf,
                  cdf - static_cast<double>(i) / n});
  }
  EXPECT_LT(std::sqrt(n) * d, kMaxKs);
  const Moments m = MomentsOf(xs);
  EXPECT_LT(std::fabs(m.mean / std::sqrt(1.0 / n)), kMaxZ);
  EXPECT_LT(std::fabs((m.var - 1.0) / std::sqrt(2.0 / n)), kMaxZ);
}

// 128 equiprobable bins: catches a wrong layer that a sup-distance over
// the whole line can average away.
TEST(ZigguratNormalTest, EquiprobableBinsChiSquare) {
  constexpr int kBins = 128;
  constexpr int kN = 1000000;
  ThetaLane lane(808);
  std::vector<int> counts(kBins, 0);
  for (int i = 0; i < kN; ++i) {
    const double u = NormalCdf(LaneNormal(lane));
    ++counts[std::min(kBins - 1, static_cast<int>(u * kBins))];
  }
  const double expected = static_cast<double>(kN) / kBins;
  double chi2 = 0.0;
  for (int c : counts) chi2 += (c - expected) * (c - expected) / expected;
  EXPECT_LT(std::fabs(ChiSquareZ(chi2, kBins - 1)), kMaxZ);
}

TEST(ZigguratNormalTest, Symmetric) {
  constexpr int kN = 1000000;
  ThetaLane lane(909);
  double positives = 0.0, cubes = 0.0;
  for (int i = 0; i < kN; ++i) {
    const double x = LaneNormal(lane);
    positives += x > 0.0 ? 1.0 : 0.0;
    cubes += x * x * x;
  }
  // Sign: Binomial(n, 1/2). Third moment: E[x^3] = 0, Var[x^3] = 15.
  EXPECT_LT(std::fabs((positives - kN / 2.0) / std::sqrt(kN / 4.0)), kMaxZ);
  EXPECT_LT(std::fabs(cubes / kN / std::sqrt(15.0 / kN)), kMaxZ);
}

// Mass beyond the base strip's edge r comes only from the tail sampler;
// mass between the second layer's edge and r only from the base strip's
// rectangle and layer-1 wedge. Both must match Φ, and so must the shape
// of the tail: the samples beyond r, against Φ conditioned on |x| > r.
TEST(ZigguratNormalTest, TailMassBeyondBaseStrip) {
  constexpr int kN = 4000000;
  const double r = internal::ZigguratTable::kR;
  const double inner = internal::Ziggurat().x[2];
  ThetaLane lane(1010);
  double beyond = 0.0, band = 0.0;
  std::vector<double> tail;
  for (int i = 0; i < kN; ++i) {
    const double x = std::fabs(LaneNormal(lane));
    beyond += x > r ? 1.0 : 0.0;
    band += x > inner && x <= r ? 1.0 : 0.0;
    if (x > r) tail.push_back(x);
  }
  std::sort(tail.begin(), tail.end());
  const double n_tail = static_cast<double>(tail.size());
  double d = 0.0;
  for (std::size_t i = 0; i < tail.size(); ++i) {
    // P(|X| <= t | |X| > r) = 1 - Q(t) / Q(r), Q the upper tail of Φ.
    const double cdf = 1.0 - std::erfc(tail[i] / std::sqrt(2.0)) /
                                 std::erfc(r / std::sqrt(2.0));
    d = std::max({d, static_cast<double>(i + 1) / n_tail - cdf,
                  cdf - static_cast<double>(i) / n_tail});
  }
  EXPECT_LT(std::sqrt(n_tail) * d, kMaxKs);
  auto binomial_z = [](double hits, double p) {
    return (hits - kN * p) / std::sqrt(kN * p * (1.0 - p));
  };
  const double p_beyond = 2.0 * (1.0 - NormalCdf(r));
  const double p_band = 2.0 * (NormalCdf(r) - NormalCdf(inner));
  EXPECT_LT(std::fabs(binomial_z(beyond, p_beyond)), kMaxZ);
  EXPECT_LT(std::fabs(binomial_z(band, p_band)), kMaxZ);
}

// --- Thompson arg-min -----------------------------------------------------

// How often each arm wins a Thompson round (lowest θ, ties to the lower
// arm) must match the oracle's: a two-sample χ² homogeneity test over the
// win counts of kArgMinRounds rounds per sampler. The posterior sets are
// near-ties (every arm wins often enough for χ²) at prior, mid and
// large counts, and spread over one and two blocks.
constexpr int kArgMinRounds = 40000;

class ThompsonArgMinTest
    : public ::testing::TestWithParam<std::vector<std::pair<double, double>>> {
};

TEST_P(ThompsonArgMinTest, WinFrequenciesMatchReference) {
  const std::vector<std::pair<double, double>>& arms = GetParam();
  const auto salt = static_cast<std::uint64_t>(arms.size() * 31 +
                                               arms.front().second * 17.0);
  BetaSampler sampler(1111 + salt);
  Rng rng(1212 + salt);
  BetaShapes shapes;
  for (const auto& [alpha, beta] : arms) {
    shapes.PushBack(BetaPosterior(alpha, beta));
  }
  auto arg_min = [](std::span<const double> theta) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < theta.size(); ++i) {
      if (theta[i] < theta[best]) best = i;
    }
    return best;
  };
  std::vector<double> block_wins(arms.size(), 0.0);
  std::vector<double> reference_wins(arms.size(), 0.0);
  std::vector<double> reference(arms.size());
  for (int r = 0; r < kArgMinRounds; ++r) {
    ++block_wins[arg_min(sampler.Draw(shapes))];
    for (std::size_t i = 0; i < arms.size(); ++i) {
      reference[i] = ReferenceBeta(rng, arms[i].first, arms[i].second);
    }
    ++reference_wins[arg_min(reference)];
  }
  // Equal sample sizes: chi2 = sum (a - b)^2 / (a + b) over arms that
  // won at least once, with one degree of freedom fewer than those arms.
  double chi2 = 0.0;
  int categories = 0;
  for (std::size_t i = 0; i < arms.size(); ++i) {
    const double total = block_wins[i] + reference_wins[i];
    if (total == 0.0) continue;
    const double diff = block_wins[i] - reference_wins[i];
    chi2 += diff * diff / total;
    ++categories;
  }
  ASSERT_GE(categories, 2);
  // Upper tail only: a small χ² is agreement, not a difference.
  EXPECT_LT(ChiSquareZ(chi2, categories - 1), kMaxZ);
}

INSTANTIATE_TEST_SUITE_P(
    PosteriorSets, ThompsonArgMinTest,
    ::testing::Values(
        // The Beta(1, 1) prior against BetaInit's Beta(1, 2) and a
        // promising Beta(2, 1) neighbour.
        std::vector<std::pair<double, double>>{{1, 1}, {1, 2}, {2, 1}},
        // Mid-window posteriors near the top-K boundary.
        std::vector<std::pair<double, double>>{
            {3, 40}, {4, 38}, {2, 30}, {5, 45}, {3, 35}},
        // Nine arms: a full block plus lane 0 again.
        std::vector<std::pair<double, double>>{{1, 1},
                                               {1, 2},
                                               {2, 3},
                                               {3, 5},
                                               {2, 2},
                                               {1, 3},
                                               {4, 6},
                                               {2, 5},
                                               {3, 4}},
        // Thirteen identical arms: every lane must win 1/13 of the time.
        std::vector<std::pair<double, double>>(13, {5, 5}),
        // Large counts late in a tau = 10k window.
        std::vector<std::pair<double, double>>{
            {500, 4500}, {480, 4520}, {510, 4490}, {495, 4505}}));

}  // namespace
}  // namespace tmerge::core
