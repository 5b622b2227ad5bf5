// Statistical equivalence of core::BetaSampler (xoshiro256++, ziggurat
// normal, cached Marsaglia–Tsang constants) with the reference sampler it
// replaced in TMerge (Marsaglia–Tsang on core::Rng with a polar normal),
// and of its ziggurat normal with the analytic N(0, 1).
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

// --- Gamma ---------------------------------------------------------------

// Shape grid: below 1 (boosted path), the Beta(1, 1) prior's 1, BetaInit's
// 2, small and mid counts, and a count at tau_max = 10k.
class GammaEquivalenceTest : public ::testing::TestWithParam<double> {};

TEST_P(GammaEquivalenceTest, MatchesReference) {
  const double shape = GetParam();
  const auto salt = static_cast<std::uint64_t>(shape * 1000.0);
  BetaSampler sampler(101 + salt);
  Rng rng(202 + salt);
  const GammaShape cached(shape);
  std::vector<double> fresh(kPairN), reference(kPairN);
  for (int i = 0; i < kPairN; ++i) {
    fresh[i] = sampler.Gamma(cached);
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
  BetaSampler sampler(303 + static_cast<std::uint64_t>(a * 1000.0));
  const GammaShape cached(a);
  std::vector<double> xs(kTheoryN);
  for (double& x : xs) x = sampler.Gamma(cached);
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
  const GammaShape ga(alpha), gb(beta);
  std::vector<double> fresh(kPairN), reference(kPairN);
  for (int i = 0; i < kPairN; ++i) {
    fresh[i] = sampler.Beta(ga, gb);
    reference[i] = ReferenceBeta(rng, alpha, beta);
  }
  const Moments a = MomentsOf(fresh), b = MomentsOf(reference);
  EXPECT_LT(std::fabs(TwoSampleMeanZ(a, b)), kMaxZ);
  EXPECT_LT(std::fabs(TwoSampleVarZ(a, b)), kMaxZ);
  EXPECT_LT(ScaledKs(fresh, reference), kMaxKs);
}

TEST_P(BetaEquivalenceTest, MomentsMatchTheory) {
  const auto [alpha, beta] = GetParam();
  BetaSampler sampler(606 +
                      static_cast<std::uint64_t>(alpha * 7.0 + beta * 13.0));
  const GammaShape ga(alpha), gb(beta);
  std::vector<double> xs(kTheoryN);
  for (double& x : xs) x = sampler.Beta(ga, gb);
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
  BetaSampler sampler(707);
  std::vector<double> xs(kTheoryN);
  for (double& x : xs) x = sampler.Normal();
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
  BetaSampler sampler(808);
  std::vector<int> counts(kBins, 0);
  for (int i = 0; i < kN; ++i) {
    const double u = NormalCdf(sampler.Normal());
    ++counts[std::min(kBins - 1, static_cast<int>(u * kBins))];
  }
  const double expected = static_cast<double>(kN) / kBins;
  double chi2 = 0.0;
  for (int c : counts) chi2 += (c - expected) * (c - expected) / expected;
  // Wilson–Hilferty: (chi2 / df)^(1/3) is normal with mean 1 - 2/(9 df)
  // and variance 2/(9 df).
  const double df = kBins - 1;
  const double z = (std::cbrt(chi2 / df) - (1.0 - 2.0 / (9.0 * df))) /
                   std::sqrt(2.0 / (9.0 * df));
  EXPECT_LT(std::fabs(z), kMaxZ);
}

TEST(ZigguratNormalTest, Symmetric) {
  constexpr int kN = 1000000;
  BetaSampler sampler(909);
  double positives = 0.0, cubes = 0.0;
  for (int i = 0; i < kN; ++i) {
    const double x = sampler.Normal();
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
  BetaSampler sampler(1010);
  double beyond = 0.0, band = 0.0;
  std::vector<double> tail;
  for (int i = 0; i < kN; ++i) {
    const double x = std::fabs(sampler.Normal());
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

}  // namespace
}  // namespace tmerge::core
