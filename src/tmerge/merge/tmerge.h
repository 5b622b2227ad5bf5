#ifndef TMERGE_MERGE_TMERGE_H_
#define TMERGE_MERGE_TMERGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "tmerge/core/beta.h"
#include "tmerge/merge/selector.h"

namespace tmerge::merge {

/// TMerge hyper-parameters (paper §IV, defaults per §V-B).
struct TMergeOptions {
  /// Maximum sampling iterations tau_max. In batched mode the budget
  /// counts BBox-pair evaluations, so runs are comparable across batch
  /// sizes.
  std::int64_t tau_max = 10000;
  /// Enables BetaInit (Algorithm 3): spatially close track pairs start
  /// with a lower-mean Beta prior.
  bool use_beta_init = true;
  /// BetaInit spatial-distance threshold thr_S in pixels.
  double thr_s = 200.0;
  /// Enables ULB pruning (Algorithm 4).
  bool use_ulb = true;
  /// Bounds are recomputed every this many iterations — an engineering
  /// batching of Algorithm 4's per-iteration pseudocode that changes only
  /// bookkeeping cost, not results (pruning fires marginally later).
  std::int32_t ulb_period = 16;
};

/// The paper's contribution (Algorithm 2): Thompson sampling over track
/// pairs. Each pair carries a Beta(S, F) posterior on its normalized score;
/// every iteration draws a theta per live pair, evaluates one fresh BBox
/// pair of the arg-min pair with the ReID model, runs a Bernoulli(d~)
/// trial, and updates the posterior. BetaInit (Algorithm 3) warm-starts the
/// priors from spatial proximity; ULB (Algorithm 4) prunes pairs whose
/// membership in the top-K is already decided by Hoeffding bounds.
/// batch_size > 1 in SelectorOptions yields TMerge-B: the B smallest
/// Thompson draws are evaluated per round with one batched inference.
class TMergeSelector : public CandidateSelector {
 public:
  explicit TMergeSelector(const TMergeOptions& tmerge_options = TMergeOptions())
      : options_(tmerge_options) {}

  SelectionResult Select(const PairContext& context,
                         const reid::ReidModel& model,
                         reid::FeatureCache& cache,
                         const SelectorOptions& options) override;

  std::string name() const override { return "TMerge"; }

  const TMergeOptions& tmerge_options() const { return options_; }

 private:
  TMergeOptions options_;
};

namespace internal {

/// State of ULB pruning exposed for tests: counts of pairs pruned as
/// certainly-in / certainly-out of the top-K.
struct UlbCounts {
  std::int64_t pruned_in = 0;
  std::int64_t pruned_out = 0;
};

enum class PairState : std::uint8_t {
  kLive = 0,       // Still being sampled.
  kPrunedIn,       // Certainly in the top-K; sampling stopped (ULB).
  kPrunedOut,      // Certainly outside the top-K; sampling stopped (ULB).
  kExhausted,      // Every BBox pair evaluated; exact score known.
};

/// One track pair's arm: its Beta posterior and the running sum of the
/// distances its pulls observed.
struct PairBandit {
  core::BetaPosterior beta;
  double sum = 0.0;
  std::int64_t pulls = 0;
  PairState state = PairState::kLive;

  double SampleMean() const {
    return pulls > 0 ? sum / static_cast<double>(pulls) : 0.5;
  }
};

/// RunUlb's working vectors, kept across the calls of one Select.
struct UlbScratch {
  std::vector<double> lowers, uppers, lower_of, upper_of;
};

/// Algorithm 4 (ULB): freezes live, pulled pairs whose top-K membership is
/// already decided by Hoeffding bounds (never-sampled pairs have vacuous
/// bounds, exhausted pairs a zero-width one). A pair p with bounds
/// [l_p, u_p] is pruned in when at most K - 1 other pairs have a lower
/// bound strictly below u_p, and pruned out when at least K pairs have an
/// upper bound strictly below l_p. Both counts are read off one order
/// statistic each (std::nth_element), so a call is O(n).
UlbCounts RunUlb(std::vector<PairBandit>& bandits, std::int64_t tau,
                 std::size_t k_count, UlbScratch& scratch);

}  // namespace internal

}  // namespace tmerge::merge

#endif  // TMERGE_MERGE_TMERGE_H_
