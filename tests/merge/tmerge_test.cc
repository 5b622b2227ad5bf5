#include "tmerge/merge/tmerge.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "testing/merge_fixture.h"
#include "tmerge/core/rng.h"

namespace tmerge::merge {
namespace {

TEST(TMergeTest, RespectsIterationBudget) {
  testing::MergeScenario scenario;
  TMergeOptions tmerge_options;
  tmerge_options.tau_max = 400;
  TMergeSelector selector(tmerge_options);
  reid::FeatureCache cache;
  SelectionResult result =
      selector.Select(scenario.context(), scenario.model(), cache, {});
  EXPECT_LE(result.box_pairs_evaluated, 400);
}

TEST(TMergeTest, FindsPolyPairQuickly) {
  testing::MergeScenario scenario;
  TMergeOptions tmerge_options;
  tmerge_options.tau_max = 600;
  TMergeSelector selector(tmerge_options);
  SelectorOptions options;
  options.k_fraction = 0.1;
  reid::FeatureCache cache;
  SelectionResult result =
      selector.Select(scenario.context(), scenario.model(), cache, options);
  bool found = false;
  for (const auto& pair : result.candidates) {
    if (pair == scenario.truth_pair()) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(TMergeTest, ConcentratesOnPromisingPairs) {
  // Thompson sampling must touch fewer crops than exist: the point of the
  // algorithm is sub-BL inference counts.
  testing::MergeScenario scenario;
  TMergeOptions tmerge_options;
  tmerge_options.tau_max = 2000;
  TMergeSelector selector(tmerge_options);
  reid::FeatureCache cache;
  SelectionResult result =
      selector.Select(scenario.context(), scenario.model(), cache, {});
  EXPECT_LT(result.usage.TotalInferences(), scenario.result().TotalBoxes());
}

TEST(TMergeTest, DeterministicForSeed) {
  testing::MergeScenario scenario;
  TMergeSelector selector;
  SelectorOptions options;
  options.seed = 4242;
  reid::FeatureCache cache1, cache2;
  SelectionResult a =
      selector.Select(scenario.context(), scenario.model(), cache1, options);
  SelectionResult b =
      selector.Select(scenario.context(), scenario.model(), cache2, options);
  EXPECT_EQ(a.candidates, b.candidates);
  EXPECT_EQ(a.box_pairs_evaluated, b.box_pairs_evaluated);
}

TEST(TMergeTest, SeedsChangeSamplingButNotTheWinner) {
  testing::MergeScenario scenario;
  TMergeOptions tmerge_options;
  tmerge_options.tau_max = 1500;
  TMergeSelector selector(tmerge_options);
  SelectorOptions options;
  options.k_fraction = 0.1;
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    options.seed = seed;
    reid::FeatureCache cache;
    SelectionResult result =
        selector.Select(scenario.context(), scenario.model(), cache, options);
    bool found = false;
    for (const auto& pair : result.candidates) {
      if (pair == scenario.truth_pair()) found = true;
    }
    EXPECT_TRUE(found) << "seed " << seed;
  }
}

TEST(TMergeTest, BetaInitBiasesEarlySampling) {
  // With BetaInit, spatially close pairs (the fragment pair is closest)
  // are found at tiny budgets more reliably than without.
  testing::MergeScenario scenario;
  SelectorOptions options;
  options.k_fraction = 0.05;
  int with_hits = 0, without_hits = 0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    options.seed = seed;
    TMergeOptions with_init;
    with_init.tau_max = 120;
    with_init.thr_s = 400.0;
    TMergeOptions without_init = with_init;
    without_init.use_beta_init = false;
    TMergeSelector a(with_init), b(without_init);
    reid::FeatureCache cache1, cache2;
    for (const auto& pair :
         a.Select(scenario.context(), scenario.model(), cache1, options)
             .candidates) {
      if (pair == scenario.truth_pair()) ++with_hits;
    }
    for (const auto& pair :
         b.Select(scenario.context(), scenario.model(), cache2, options)
             .candidates) {
      if (pair == scenario.truth_pair()) ++without_hits;
    }
  }
  EXPECT_GE(with_hits, without_hits);
}

TEST(TMergeTest, UlbPrunesWork) {
  // With ULB on, the same budget evaluates no more (usually fewer) crops
  // because decided pairs stop being sampled.
  testing::MergeScenario scenario;
  SelectorOptions options;
  TMergeOptions with_ulb;
  with_ulb.tau_max = 3000;
  TMergeOptions without_ulb = with_ulb;
  without_ulb.use_ulb = false;
  TMergeSelector a(with_ulb), b(without_ulb);
  reid::FeatureCache cache1, cache2;
  SelectionResult with_result =
      a.Select(scenario.context(), scenario.model(), cache1, options);
  SelectionResult without_result =
      b.Select(scenario.context(), scenario.model(), cache2, options);
  // Both find the pair; ULB must not hurt the result.
  bool found = false;
  for (const auto& pair : with_result.candidates) {
    if (pair == scenario.truth_pair()) found = true;
  }
  EXPECT_TRUE(found);
  EXPECT_LE(with_result.box_pairs_evaluated,
            without_result.box_pairs_evaluated);
}

TEST(TMergeTest, BatchedRunsFewerRoundsSameBudget) {
  testing::MergeScenario scenario;
  TMergeOptions tmerge_options;
  tmerge_options.tau_max = 1000;
  TMergeSelector selector(tmerge_options);
  SelectorOptions plain;
  SelectorOptions batched;
  batched.batch_size = 50;
  reid::FeatureCache cache1, cache2;
  SelectionResult r_plain =
      selector.Select(scenario.context(), scenario.model(), cache1, plain);
  SelectionResult r_batched =
      selector.Select(scenario.context(), scenario.model(), cache2, batched);
  EXPECT_LE(r_batched.box_pairs_evaluated, 1000);
  // The batched variant must be much faster in simulated time (TMerge-B).
  EXPECT_LT(r_batched.simulated_seconds, r_plain.simulated_seconds);
}

TEST(TMergeTest, BatchedStillFindsPolyPair) {
  testing::MergeScenario scenario;
  TMergeOptions tmerge_options;
  tmerge_options.tau_max = 1500;
  TMergeSelector selector(tmerge_options);
  SelectorOptions options;
  options.k_fraction = 0.1;
  options.batch_size = 20;
  reid::FeatureCache cache;
  SelectionResult result =
      selector.Select(scenario.context(), scenario.model(), cache, options);
  bool found = false;
  for (const auto& pair : result.candidates) {
    if (pair == scenario.truth_pair()) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(TMergeTest, ExhaustsTinyUniverseGracefullyWithoutUlb) {
  // Without ULB nothing is pruned, so a huge budget must terminate by
  // exhausting every BBox pair exactly once.
  testing::MergeScenario scenario(2);
  TMergeOptions tmerge_options;
  tmerge_options.tau_max = 1000000;
  tmerge_options.use_ulb = false;
  TMergeSelector selector(tmerge_options);
  reid::FeatureCache cache;
  SelectionResult result =
      selector.Select(scenario.context(), scenario.model(), cache, {});
  EXPECT_EQ(result.box_pairs_evaluated, scenario.context().TotalBoxPairs());
}

TEST(TMergeTest, UlbTerminatesEarlyOnTinyUniverse) {
  // With ULB, decided pairs stop being sampled, so the loop ends long
  // before exhausting the grid — the efficiency claim of Algorithm 4.
  testing::MergeScenario scenario(2);
  TMergeOptions tmerge_options;
  tmerge_options.tau_max = 1000000;
  TMergeSelector selector(tmerge_options);
  reid::FeatureCache cache;
  SelectionResult result =
      selector.Select(scenario.context(), scenario.model(), cache, {});
  EXPECT_LT(result.box_pairs_evaluated, scenario.context().TotalBoxPairs());
}

TEST(TMergeTest, EmptyContext) {
  testing::MergeScenario scenario;
  PairContext empty(scenario.result(), {});
  TMergeSelector selector;
  reid::FeatureCache cache;
  SelectionResult result = selector.Select(empty, scenario.model(), cache, {});
  EXPECT_TRUE(result.candidates.empty());
  EXPECT_EQ(result.box_pairs_evaluated, 0);
}

TEST(TMergeTest, TracksSampledDistanceSum) {
  testing::MergeScenario scenario;
  TMergeOptions tmerge_options;
  tmerge_options.tau_max = 800;
  TMergeSelector selector(tmerge_options);
  reid::FeatureCache cache;
  SelectionResult result =
      selector.Select(scenario.context(), scenario.model(), cache, {});
  ASSERT_GT(result.box_pairs_evaluated, 0);
  double mean = result.sum_sampled_distance / result.box_pairs_evaluated;
  EXPECT_GT(mean, 0.0);
  EXPECT_LT(mean, 1.0);
}

TEST(TMergeTest, RegretFallsWithBudget) {
  // §IV-E: the mean sampled distance approaches the minimum pair score as
  // tau grows, because sampling concentrates on low-score pairs.
  testing::MergeScenario scenario;
  auto mean_at = [&](std::int64_t tau) {
    TMergeOptions tmerge_options;
    tmerge_options.tau_max = tau;
    TMergeSelector selector(tmerge_options);
    reid::FeatureCache cache;
    SelectorOptions options;
    options.seed = 3;
    SelectionResult result =
        selector.Select(scenario.context(), scenario.model(), cache, options);
    return result.sum_sampled_distance / result.box_pairs_evaluated;
  };
  EXPECT_LT(mean_at(4000), mean_at(300));
}

TEST(TMergeTest, UlbCountersReported) {
  // On a tiny universe with an effectively unbounded budget, sampled pairs
  // shrink their Hoeffding intervals (and exhausted pairs collapse to
  // points) until ULB decides every pair — the counters must reflect that.
  // Without ULB the counters stay zero.
  testing::MergeScenario scenario(2);
  TMergeOptions with_ulb;
  with_ulb.tau_max = 1000000;
  TMergeOptions without_ulb = with_ulb;
  without_ulb.use_ulb = false;
  TMergeSelector a(with_ulb), b(without_ulb);
  reid::FeatureCache cache1, cache2;
  SelectionResult with_result =
      a.Select(scenario.context(), scenario.model(), cache1, {});
  SelectionResult without_result =
      b.Select(scenario.context(), scenario.model(), cache2, {});
  EXPECT_EQ(without_result.ulb_pruned_in + without_result.ulb_pruned_out, 0);
  EXPECT_GT(with_result.ulb_pruned_in + with_result.ulb_pruned_out, 0);
}

TEST(TMergeTest, CandidateCountMatchesK) {
  testing::MergeScenario scenario;
  TMergeSelector selector;
  SelectorOptions options;
  options.k_fraction = 0.2;
  reid::FeatureCache cache;
  SelectionResult result =
      selector.Select(scenario.context(), scenario.model(), cache, options);
  EXPECT_EQ(result.candidates.size(),
            TopKCount(0.2, scenario.context().num_pairs()));
}

// Property: across budgets, recall of the truth pair never degrades much
// as tau grows (monotone-ish improvement).
// The sort-and-count formulation of ULB that internal::RunUlb replaced
// (two full sorts and two binary searches per live arm), kept verbatim as
// the oracle for the order-statistic one.
namespace oracle {

using internal::PairBandit;
using internal::PairState;
using internal::UlbScratch;

constexpr double kInf = std::numeric_limits<double>::infinity();

internal::UlbCounts RunUlb(std::vector<PairBandit>& bandits,
                           std::int64_t tau, std::size_t k_count,
                           UlbScratch& scratch) {
  internal::UlbCounts counts;
  const std::size_t n = bandits.size();
  auto& [lowers, uppers, lower_of, upper_of] = scratch;
  lowers.clear();
  uppers.clear();
  lower_of.resize(n);
  upper_of.resize(n);
  double log_tau = std::log(std::max<double>(2.0, static_cast<double>(tau)));
  for (std::size_t p = 0; p < n; ++p) {
    double lower = -kInf, upper = kInf;
    if (bandits[p].pulls > 0) {
      double mean = bandits[p].SampleMean();
      double radius =
          std::sqrt(2.0 * log_tau / static_cast<double>(bandits[p].pulls));
      lower = mean - radius;
      upper = mean + radius;
    }
    if (bandits[p].state == PairState::kExhausted) {
      // Exact score: zero-width interval.
      lower = upper = bandits[p].SampleMean();
    }
    lower_of[p] = lower;
    upper_of[p] = upper;
    lowers.push_back(lower);
    uppers.push_back(upper);
  }
  std::sort(lowers.begin(), lowers.end());
  std::sort(uppers.begin(), uppers.end());

  for (std::size_t p = 0; p < n; ++p) {
    if (bandits[p].state != PairState::kLive) continue;
    if (bandits[p].pulls == 0) continue;
    // Pairs that could rank below p: lower bound strictly below p's upper.
    auto possibly_below = static_cast<std::size_t>(
        std::lower_bound(lowers.begin(), lowers.end(), upper_of[p]) -
        lowers.begin());
    if (lower_of[p] < upper_of[p]) --possibly_below;  // Exclude p itself.
    if (possibly_below + 1 <= k_count) {
      bandits[p].state = PairState::kPrunedIn;
      ++counts.pruned_in;
      continue;
    }
    // Pairs certainly below p: upper bound strictly below p's lower.
    auto certainly_below = static_cast<std::size_t>(
        std::lower_bound(uppers.begin(), uppers.end(), lower_of[p]) -
        uppers.begin());
    if (certainly_below >= k_count) {
      bandits[p].state = PairState::kPrunedOut;
      ++counts.pruned_out;
    }
  }
  return counts;
}

}  // namespace oracle

/// A random bandit state for ULB: never-pulled arms (±inf bounds),
/// exhausted arms (zero-width, some sitting exactly on another arm's
/// bound), already-pruned arms, and live arms whose means and pull counts
/// come from small sets so bounds tie exactly.
std::vector<internal::PairBandit> RandomBandits(core::Rng& rng, std::size_t n,
                                                std::int64_t tau) {
  using internal::PairState;
  static constexpr std::int64_t kPulls[] = {1, 2, 3, 8, 40, 1000, 200000};
  static constexpr double kMeans[] = {0.0, 0.125, 0.25, 0.5, 0.75, 1.0};
  // Per-state weights vary by state so some draws are mostly live, others
  // mostly exhausted or unpulled.
  const double unpulled = rng.Uniform(0.0, 0.3);
  const double exhausted = rng.Uniform(0.0, 0.4);
  const double frozen = rng.Uniform(0.0, 0.2);
  const double log_tau =
      std::log(std::max<double>(2.0, static_cast<double>(tau)));
  std::vector<internal::PairBandit> bandits(n);
  for (std::size_t p = 0; p < n; ++p) {
    internal::PairBandit& arm = bandits[p];
    const double roll = rng.Uniform(0.0, 1.0);
    if (roll < unpulled) continue;  // Live, never pulled.
    arm.pulls = kPulls[rng.Index(std::size(kPulls))];
    const double mean = rng.Bernoulli(0.5) ? kMeans[rng.Index(std::size(kMeans))]
                                           : rng.Uniform(0.0, 1.0);
    arm.sum = mean * static_cast<double>(arm.pulls);
    if (roll < unpulled + exhausted) {
      arm.state = PairState::kExhausted;
      if (p > 0 && rng.Bernoulli(0.5)) {
        // Exact score equal to an earlier pulled arm's bound.
        const internal::PairBandit& other = bandits[rng.Index(p)];
        if (other.pulls > 0) {
          const double radius = std::sqrt(
              2.0 * log_tau / static_cast<double>(other.pulls));
          arm.pulls = 1;
          arm.sum = rng.Bernoulli(0.5) ? other.SampleMean() + radius
                                       : other.SampleMean() - radius;
        }
      } else if (rng.Bernoulli(0.1)) {
        arm.pulls = 0;  // Every pull failed: exact score 0.5.
        arm.sum = 0.0;
      }
    } else if (roll < unpulled + exhausted + frozen) {
      arm.state = rng.Bernoulli(0.5) ? PairState::kPrunedIn
                                     : PairState::kPrunedOut;
    }
  }
  return bandits;
}

TEST(UlbOracleTest, OrderStatisticsMatchSortAndCount) {
  core::Rng rng(2023);
  internal::UlbScratch scratch, oracle_scratch;
  internal::UlbCounts total;
  for (std::size_t n : {1u, 2u, 17u, 257u, 1600u}) {
    const int trials = n >= 1000 ? 60 : 400;
    for (std::size_t k : {std::size_t{1}, n - 1, n}) {
      for (int trial = 0; trial < trials; ++trial) {
        const std::int64_t tau = rng.UniformInt(1, 100000);
        std::vector<internal::PairBandit> bandits =
            RandomBandits(rng, n, tau);
        std::vector<internal::PairBandit> expected = bandits;
        const internal::UlbCounts counts =
            internal::RunUlb(bandits, tau, k, scratch);
        const internal::UlbCounts expected_counts =
            oracle::RunUlb(expected, tau, k, oracle_scratch);
        ASSERT_EQ(counts.pruned_in, expected_counts.pruned_in)
            << "n " << n << " k " << k << " trial " << trial;
        ASSERT_EQ(counts.pruned_out, expected_counts.pruned_out)
            << "n " << n << " k " << k << " trial " << trial;
        for (std::size_t p = 0; p < n; ++p) {
          ASSERT_EQ(bandits[p].state, expected[p].state)
              << "n " << n << " k " << k << " trial " << trial << " arm "
              << p;
        }
        total.pruned_in += counts.pruned_in;
        total.pruned_out += counts.pruned_out;
      }
    }
  }
  // Both transitions were exercised.
  EXPECT_GT(total.pruned_in, 0);
  EXPECT_GT(total.pruned_out, 0);
}

class TMergeBudgetTest : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(TMergeBudgetTest, LargerBudgetsKeepFindingTruth) {
  std::int64_t tau = GetParam();
  testing::MergeScenario scenario;
  TMergeOptions tmerge_options;
  tmerge_options.tau_max = tau;
  TMergeSelector selector(tmerge_options);
  SelectorOptions options;
  options.k_fraction = 0.1;
  options.seed = 7;
  reid::FeatureCache cache;
  SelectionResult result =
      selector.Select(scenario.context(), scenario.model(), cache, options);
  bool found = false;
  for (const auto& pair : result.candidates) {
    if (pair == scenario.truth_pair()) found = true;
  }
  EXPECT_TRUE(found) << "tau " << tau;
}

INSTANTIATE_TEST_SUITE_P(Budgets, TMergeBudgetTest,
                         ::testing::Values(600, 1200, 2500, 5000));

}  // namespace
}  // namespace tmerge::merge
