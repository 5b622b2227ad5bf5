#ifndef TMERGE_TESTS_TESTING_RECORDING_SELECTOR_H_
#define TMERGE_TESTS_TESTING_RECORDING_SELECTOR_H_

#include <algorithm>
#include <compare>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "tmerge/core/mutex.h"
#include "tmerge/merge/selector.h"

namespace tmerge::testing {

/// What one window's selection did, down to its pull sequence: for the
/// bandit selectors `sum_sampled_distance` is a floating-point sum over
/// the evaluated distances in pull order, so two windows with equal
/// fingerprints pulled the same pairs in the same order — which, given
/// the same posteriors, means they drew the same θ arg-mins.
struct WindowFingerprint {
  std::uint64_t seed = 0;
  std::size_t pairs = 0;
  std::int64_t box_pairs_evaluated = 0;
  double sum_sampled_distance = 0.0;
  std::int64_t ulb_pruned_in = 0;
  std::int64_t ulb_pruned_out = 0;
  std::int64_t failed_pulls = 0;
  std::vector<metrics::TrackPairKey> candidates;

  auto operator<=>(const WindowFingerprint&) const = default;
};

/// Transparent decorator that forwards Select to `inner` and records every
/// window's fingerprint. Thread-safe, so merge::EvaluateDataset and the
/// stream service may call it from worker threads; Take() sorts the
/// records, which makes them comparable across thread schedules.
class RecordingSelector : public merge::CandidateSelector {
 public:
  explicit RecordingSelector(merge::CandidateSelector& inner)
      : inner_(inner) {}

  merge::SelectionResult Select(const merge::PairContext& context,
                                const reid::ReidModel& model,
                                reid::FeatureCache& cache,
                                const merge::SelectorOptions& options) override {
    merge::SelectionResult result =
        inner_.Select(context, model, cache, options);
    WindowFingerprint print{options.seed,
                            context.num_pairs(),
                            result.box_pairs_evaluated,
                            result.sum_sampled_distance,
                            result.ulb_pruned_in,
                            result.ulb_pruned_out,
                            result.failed_pulls,
                            result.candidates};
    core::MutexLock lock(mu_);
    records_.push_back(std::move(print));
    return result;
  }

  std::string name() const override { return inner_.name(); }

  /// Returns the records so far, sorted, and clears them.
  std::vector<WindowFingerprint> Take() {
    core::MutexLock lock(mu_);
    std::vector<WindowFingerprint> out = std::move(records_);
    records_.clear();
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  merge::CandidateSelector& inner_;
  core::Mutex mu_;
  std::vector<WindowFingerprint> records_ TMERGE_GUARDED_BY(mu_);
};

}  // namespace tmerge::testing

#endif  // TMERGE_TESTS_TESTING_RECORDING_SELECTOR_H_
