#ifndef E2EBENCH_HARNESS_DECORATORS_H_
#define E2EBENCH_HARNESS_DECORATORS_H_

// Transparent timing decorators over the library's three virtual seams.
// Each forwards every call unchanged to the wrapped object, so results
// are identical to the bare object's (pinned by the harness tests); only
// the traced run uses them.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "tmerge/merge/selector.h"
#include "tmerge/reid/reid_model.h"
#include "tmerge/track/track.h"

namespace tmerge::e2ebench {

/// Thread-safe call counters of one decorated object.
struct CallStats {
  std::atomic<std::int64_t> calls{0};
  std::atomic<std::int64_t> busy_ns{0};
  std::atomic<std::int64_t> max_ns{0};
  /// Selector only: SelectionResult::box_pairs_evaluated summed.
  std::atomic<std::int64_t> box_pairs{0};

  void Add(std::int64_t ns);
};

/// track::Tracker decorator: one "track" span per Run.
class TimedTracker final : public track::Tracker {
 public:
  explicit TimedTracker(track::Tracker& inner) : inner_(inner) {}

  track::TrackingResult Run(
      const detect::DetectionSequence& detections) override;
  std::string name() const override { return inner_.name(); }

 private:
  track::Tracker& inner_;
};

/// merge::CandidateSelector decorator: one "select" span per window.
class TimedSelector final : public merge::CandidateSelector {
 public:
  explicit TimedSelector(merge::CandidateSelector& inner) : inner_(inner) {}

  merge::SelectionResult Select(const merge::PairContext& context,
                                const reid::ReidModel& model,
                                reid::FeatureCache& cache,
                                const merge::SelectorOptions& options) override;
  std::string name() const override { return inner_.name(); }

  const CallStats& stats() const { return stats_; }

 private:
  merge::CandidateSelector& inner_;
  CallStats stats_;
};

/// reid::ReidModel decorator. Embed runs far too often for one span per
/// call, so it is counted instead, and its time is charged to the span
/// open on the calling thread (excluded from that span's self time).
class TimedReidModel final : public reid::ReidModel {
 public:
  explicit TimedReidModel(std::shared_ptr<const reid::ReidModel> inner)
      : inner_(std::move(inner)) {}

  reid::FeatureVector Embed(const reid::CropRef& crop) const override;
  double normalization_scale() const override {
    return inner_->normalization_scale();
  }
  std::size_t feature_dim() const override { return inner_->feature_dim(); }

  const CallStats& stats() const { return stats_; }

 private:
  std::shared_ptr<const reid::ReidModel> inner_;
  mutable CallStats stats_;
};

}  // namespace tmerge::e2ebench

#endif  // E2EBENCH_HARNESS_DECORATORS_H_
