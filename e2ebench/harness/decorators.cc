#include "decorators.h"

#include "trace.h"

namespace tmerge::e2ebench {

void CallStats::Add(std::int64_t ns) {
  calls.fetch_add(1, std::memory_order_relaxed);
  busy_ns.fetch_add(ns, std::memory_order_relaxed);
  std::int64_t seen = max_ns.load(std::memory_order_relaxed);
  while (ns > seen &&
         !max_ns.compare_exchange_weak(seen, ns, std::memory_order_relaxed)) {
  }
}

track::TrackingResult TimedTracker::Run(
    const detect::DetectionSequence& detections) {
  ScopedSpan span("track");
  return inner_.Run(detections);
}

merge::SelectionResult TimedSelector::Select(
    const merge::PairContext& context, const reid::ReidModel& model,
    reid::FeatureCache& cache, const merge::SelectorOptions& options) {
  ScopedSpan span("select");
  std::int64_t start = NowNs();
  merge::SelectionResult result = inner_.Select(context, model, cache, options);
  stats_.Add(NowNs() - start);
  stats_.box_pairs.fetch_add(result.box_pairs_evaluated,
                             std::memory_order_relaxed);
  return result;
}

reid::FeatureVector TimedReidModel::Embed(const reid::CropRef& crop) const {
  std::int64_t start = NowNs();
  reid::FeatureVector feature = inner_->Embed(crop);
  std::int64_t ns = NowNs() - start;
  stats_.Add(ns);
  AddUntracedChildTime(ns);
  return feature;
}

}  // namespace tmerge::e2ebench
