#ifndef TMERGE_MERGE_LCB_H_
#define TMERGE_MERGE_LCB_H_

#include <cstdint>
#include <string>
#include <vector>

#include "tmerge/merge/selector.h"

namespace tmerge::merge {

/// LCB comparator (paper §V-B): UCB1 adapted to minimization. Each
/// iteration computes the Lower Confidence Bound s'_ij - sqrt(2 ln tau /
/// n_ij) of every pair, samples one BBox pair from the arg-min pair,
/// and re-estimates. Deterministic arm choice makes iterations strictly
/// sequential, which is why its batched variant (batch_size > 1 batches
/// only the two crops of the chosen pair) gains little from the GPU —
/// the contrast the paper draws in §V-D.
class LcbSelector : public CandidateSelector {
 public:
  /// `tau_max`: total sampling iterations (including the one initial pull
  /// per pair that seeds the bounds).
  explicit LcbSelector(std::int64_t tau_max);

  SelectionResult Select(const PairContext& context,
                         const reid::ReidModel& model,
                         reid::FeatureCache& cache,
                         const SelectorOptions& options) override;

  std::string name() const override { return "LCB"; }

  std::int64_t tau_max() const { return tau_max_; }

 private:
  std::int64_t tau_max_;
};

namespace internal {

/// One LCB round's arm choice at iteration `tau`: the arm of `active`
/// (ascending pair indices) with the smallest bound means[p] -
/// sqrt(2 ln(tau + 1) / pulls[p]), ties to the lower index. An arm with no
/// successful pull has bound -inf. Returns means.size() when `active` is
/// empty.
std::size_t LcbArgMin(const std::vector<std::size_t>& active,
                      const std::vector<double>& means,
                      const std::vector<std::int64_t>& pulls,
                      std::int64_t tau);

}  // namespace internal

}  // namespace tmerge::merge

#endif  // TMERGE_MERGE_LCB_H_
