#include "tmerge/merge/tmerge.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "tmerge/core/beta.h"
#include "tmerge/core/beta_sampler.h"
#include "tmerge/core/sim_clock.h"
#include "tmerge/core/status.h"
#include "tmerge/obs/span.h"

namespace tmerge::merge {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Mixed into the window seed for the θ stream (core::BetaSampler's eight
// lanes), which is separate from the cell/Bernoulli stream (core::Rng,
// seed ^ 0x73A3).
constexpr std::uint64_t kThetaSeedSalt = 0x5EED'7E7A'B37AULL;

using internal::PairBandit;
using internal::PairState;

// The r-th smallest of `values` (0-based), reordering them; ranks below 0
// read as -inf and ranks at or past the end as +inf.
double NthSmallest(std::vector<double>& values, std::int64_t r) {
  if (r < 0) return -kInf;
  if (r >= static_cast<std::int64_t>(values.size())) return kInf;
  std::nth_element(values.begin(), values.begin() + r, values.end());
  return values[static_cast<std::size_t>(r)];
}

#ifndef TMERGE_OBS_DISABLED
/// Publishes one window's bandit internals: total arm pulls (= tau), ULB
/// pruning outcomes, the tau actually spent, and the window-mean posterior
/// shape parameters (alpha = S, beta = F) as a cheap summary of how far
/// the posteriors moved from the Beta(1,1) / BetaInit priors.
void RecordBanditObs(std::int64_t tau,
                     const std::vector<PairBandit>& bandits,
                     const internal::UlbCounts& total_pruned) {
  if (!obs::Enabled()) return;
  obs::MetricsRegistry& registry = obs::DefaultRegistry();
  static obs::Counter& arm_pulls = registry.GetCounter("tmerge.arm_pulls");
  static obs::Counter& pruned_in =
      registry.GetCounter("tmerge.ulb.pruned_in");
  static obs::Counter& pruned_out =
      registry.GetCounter("tmerge.ulb.pruned_out");
  static obs::Histogram& tau_spent = registry.GetHistogram(
      "tmerge.tau_spent_per_window", obs::CountBounds());
  static obs::Histogram& alpha_mean = registry.GetHistogram(
      "tmerge.posterior.alpha_mean", obs::CountBounds());
  static obs::Histogram& beta_mean = registry.GetHistogram(
      "tmerge.posterior.beta_mean", obs::CountBounds());
  arm_pulls.Add(tau);
  pruned_in.Add(total_pruned.pruned_in);
  pruned_out.Add(total_pruned.pruned_out);
  tau_spent.Record(static_cast<double>(tau));
  if (!bandits.empty()) {
    double alpha_sum = 0.0, beta_sum = 0.0;
    for (const PairBandit& bandit : bandits) {
      alpha_sum += bandit.beta.s();
      beta_sum += bandit.beta.f();
    }
    double n = static_cast<double>(bandits.size());
    alpha_mean.Record(alpha_sum / n);
    beta_mean.Record(beta_sum / n);
  }
}
#endif  // TMERGE_OBS_DISABLED

}  // namespace

internal::UlbCounts internal::RunUlb(std::vector<PairBandit>& bandits,
                                     std::int64_t tau, std::size_t k_count,
                                     UlbScratch& scratch) {
  UlbCounts counts;
  const std::size_t n = bandits.size();
  auto& [lowers, uppers, lower_of, upper_of] = scratch;
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
  }

  // Pruned in: count(lowers < u_p) - [l_p < u_p] + 1 <= K (p's own lower
  // bound is among the lowers), i.e. count(lowers < u_p) <= m with
  // m = K - 1 + [l_p < u_p], which holds iff the m-th smallest lower bound
  // (0-based) is >= u_p. Pruned out: count(uppers < l_p) >= K iff the
  // (K-1)-th smallest upper bound is < l_p. The same strict `<` on the
  // same doubles decides both forms, so they agree on ties and ±inf; the
  // out-of-range ranks' ∓inf decide as the counts do for the finite
  // bounds of a pulled pair.
  const auto k = static_cast<std::int64_t>(k_count);
  lowers.assign(lower_of.begin(), lower_of.end());
  uppers.assign(upper_of.begin(), upper_of.end());
  const double lower_rank_k_minus_1 = NthSmallest(lowers, k - 1);
  // nth_element left every rank >= K in the tail, so rank K is its minimum.
  const double lower_rank_k =
      k < static_cast<std::int64_t>(n)
          ? *std::min_element(lowers.begin() + k, lowers.end())
          : kInf;
  const double upper_rank_k_minus_1 = NthSmallest(uppers, k - 1);

  for (std::size_t p = 0; p < n; ++p) {
    if (bandits[p].state != PairState::kLive) continue;
    if (bandits[p].pulls == 0) continue;
    const double lower_rank_m =
        lower_of[p] < upper_of[p] ? lower_rank_k : lower_rank_k_minus_1;
    if (lower_rank_m >= upper_of[p]) {
      bandits[p].state = PairState::kPrunedIn;
      ++counts.pruned_in;
    } else if (upper_rank_k_minus_1 < lower_of[p]) {
      bandits[p].state = PairState::kPrunedOut;
      ++counts.pruned_out;
    }
  }
  return counts;
}

SelectionResult TMergeSelector::Select(const PairContext& context,
                                       const reid::ReidModel& model,
                                       reid::FeatureCache& cache,
                                       const SelectorOptions& options) {
  core::WallTimer timer;
  reid::InferenceMeter meter(options.cost_model);
  // Per-window fault tolerance: every feature pull goes through the guard,
  // which is charge-identical to the bare cache until a failpoint fires.
  reid::ReidGuard guard(options.fault_policy, cache, model, meter);
  core::Rng rng(options.seed ^ 0x73A3ULL);
  core::BetaSampler theta_rng(options.seed ^ kThetaSeedSalt);
  const bool batched = options.batch_size > 1;
  const std::size_t num_pairs = context.num_pairs();
  const std::size_t k_count = TopKCount(options.k_fraction, num_pairs);
  const std::int64_t tau_max =
      internal::ScaledBudget(options_.tau_max, options.budget_scale);

  SelectionResult result;
  if (num_pairs == 0) {
    result.wall_seconds = timer.Seconds();
    return result;
  }

  // --- Initialization: BetaInit (Algorithm 3) or flat Beta(1, 1). ---
  std::vector<PairBandit> bandits(num_pairs);
  std::vector<BoxPairSampler> samplers;
  samplers.reserve(num_pairs);
  for (std::size_t p = 0; p < num_pairs; ++p) {
    samplers.emplace_back(context.TrackA(p).size(), context.TrackB(p).size());
    if (options_.use_beta_init &&
        context.SpatialDistance(p) < options_.thr_s) {
      // Spatially close fragments are promising: lower the prior mean so
      // they are sampled earlier (F += 1).
      bandits[p].beta.AddPseudoCounts(0.0, 1.0);
    }
  }

  // Evaluates one fresh BBox pair of `p`; returns the normalized distance.
  auto evaluate_one = [&](std::size_t p,
                          std::vector<reid::CropRef>* batch_crops)
      -> std::pair<reid::CropRef, reid::CropRef> {
    auto [row, col] = samplers[p].Sample(rng);
    reid::CropRef crop_a = context.CropsA(p)[row];
    reid::CropRef crop_b = context.CropsB(p)[col];
    if (batch_crops != nullptr) {
      batch_crops->push_back(crop_a);
      batch_crops->push_back(crop_b);
    }
    return {crop_a, crop_b};
  };

  bool live_changed = false;  // A pair left kLive; compact `live`.
  auto finish_evaluation = [&](std::size_t p, const reid::CropRef& crop_a,
                               const reid::CropRef& crop_b) {
    reid::FeatureView fa = guard.TryGet(crop_a);
    reid::FeatureView fb =
        fa.valid() ? guard.TryGet(crop_b) : reid::FeatureView();
    if (!fa.valid() || !fb.valid()) {
      // Failed pull (degraded mode): the sampler cell and tau budget are
      // already spent and the failed inference was charged, but the
      // posterior is NOT updated and no Bernoulli draw is consumed — an
      // error must never look like evidence about the pair's distance.
      // The exhaustion check below still runs: the cell is gone either
      // way, and skipping it would let the arg-min loop re-Sample() an
      // exhausted sampler.
      ++result.failed_pulls;
    } else {
      double distance = model.NormalizedDistance(fa, fb);
      if (batched) {
        meter.ChargeDistanceBatched(1);
      } else {
        meter.ChargeDistance(1);
      }
      // Bernoulli trial with success probability d~ (Lines 9-13).
      bool r = rng.Bernoulli(distance);
      bandits[p].beta.Observe(r);
      bandits[p].sum += distance;
      ++bandits[p].pulls;
      ++result.box_pairs_evaluated;
      result.sum_sampled_distance += distance;
    }
    if (samplers[p].Exhausted() && bandits[p].state == PairState::kLive) {
      bandits[p].state = PairState::kExhausted;
      live_changed = true;
    }
  };

  // --- Main Thompson-sampling loop (Algorithm 2, Lines 3-14). ---
  // `live` lists the kLive pairs in ascending index order and `shapes`
  // holds their Gamma constants in the same order, so the live pair at
  // position i draws θ on lane i mod 8 (DESIGN.md §4.1). A pull refreshes
  // its pair's shapes; pairs leave kLive only in finish_evaluation and
  // RunUlb, which set live_changed, and both lists compact together.
  std::vector<std::size_t> live;
  live.reserve(num_pairs);
  core::BetaShapes shapes;
  for (std::size_t p = 0; p < num_pairs; ++p) {
    if (bandits[p].state != PairState::kLive) continue;
    live.push_back(p);
    shapes.PushBack(bandits[p].beta);
  }

  std::int64_t tau = 0;
  std::int64_t next_ulb = options_.ulb_period;
  internal::UlbScratch ulb_scratch;
  // TMerge-B round buffers, reused across rounds: (θ, live position).
  std::vector<std::pair<double, std::size_t>> draws;
  std::vector<reid::CropRef> crops;
  std::vector<std::pair<reid::CropRef, reid::CropRef>> pending;
  while (tau < tau_max) {
    meter.ChargeOverhead(static_cast<std::int64_t>(live.size()));
    if (live.empty()) break;
    const std::span<const double> theta = theta_rng.Draw(shapes);

    if (batched) {
      draws.clear();
      for (std::size_t i = 0; i < theta.size(); ++i) {
        draws.emplace_back(theta[i], i);
      }
      const std::size_t take = std::min<std::size_t>(
          {static_cast<std::size_t>(options.batch_size), draws.size(),
           static_cast<std::size_t>(tau_max - tau)});
      // Live positions ascend with pair indices, so (θ, position) orders
      // exactly as (θ, pair) would.
      std::partial_sort(draws.begin(), draws.begin() + take, draws.end());
      crops.clear();
      pending.resize(take);
      for (std::size_t j = 0; j < take; ++j) {
        pending[j] = evaluate_one(live[draws[j].second], &crops);
      }
      // Prefetch the round's crops in one batched call; crops that fail
      // here are retried on the single path inside finish_evaluation
      // (charge-identical to GetOrEmbedBatch + GetOrEmbed when disarmed).
      guard.TryGetBatch(crops);
      for (std::size_t j = 0; j < take; ++j) {
        const std::size_t i = draws[j].second;
        finish_evaluation(live[i], pending[j].first, pending[j].second);
        shapes.Set(i, bandits[live[i]].beta);
      }
      tau += static_cast<std::int64_t>(take);
    } else {
      // Ties go to the lower position, i.e. the lower pair index: the
      // (θ, p) order's minimum.
      const std::size_t best = core::ArgMinTheta(theta);
      auto [crop_a, crop_b] = evaluate_one(live[best], nullptr);
      finish_evaluation(live[best], crop_a, crop_b);
      shapes.Set(best, bandits[live[best]].beta);
      ++tau;
    }

    if (options_.use_ulb && tau >= next_ulb) {
      internal::UlbCounts counts =
          internal::RunUlb(bandits, tau, k_count, ulb_scratch);
      result.ulb_pruned_in += counts.pruned_in;
      result.ulb_pruned_out += counts.pruned_out;
      meter.ChargeOverhead(static_cast<std::int64_t>(num_pairs));
      next_ulb = tau + options_.ulb_period;
      live_changed |= counts.pruned_in + counts.pruned_out > 0;
    }
    if (live_changed) {
      std::size_t kept = 0;
      for (std::size_t i = 0; i < live.size(); ++i) {
        if (bandits[live[i]].state != PairState::kLive) continue;
        live[kept] = live[i];
        shapes.Move(i, kept);
        ++kept;
      }
      live.resize(kept);
      shapes.Truncate(kept);
      live_changed = false;
    }
  }

  // --- Final ranking (Line 15): lowest posterior means win. Exhausted
  // pairs are ranked by their exact score.
  std::vector<double> scores(num_pairs);
  for (std::size_t p = 0; p < num_pairs; ++p) {
    scores[p] = bandits[p].state == PairState::kExhausted
                    ? bandits[p].SampleMean()
                    : bandits[p].beta.Mean();
  }
  result.candidates = internal::TopKByScore(context, scores, k_count);
  result.simulated_seconds = meter.elapsed_seconds();
  result.usage = meter.stats();
  result.reid_retries = guard.retries();
  result.degraded = guard.breaker_open();
  result.wall_seconds = timer.Seconds();
  TMERGE_OBS(RecordBanditObs(
      tau, bandits,
      internal::UlbCounts{result.ulb_pruned_in, result.ulb_pruned_out}));
  return result;
}

}  // namespace tmerge::merge
