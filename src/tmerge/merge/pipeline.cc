#include "tmerge/merge/pipeline.h"

#include <set>
#include <utility>

#include "tmerge/core/sim_clock.h"
#include "tmerge/core/status.h"
#include "tmerge/core/thread_pool.h"
#include "tmerge/metrics/recall.h"
#include "tmerge/obs/span.h"
#include "tmerge/reid/feature_cache.h"

namespace tmerge::merge {

#ifndef TMERGE_OBS_DISABLED
namespace {

/// Folds one window's selection outcome into the default registry,
/// mirroring UsageStats field by field so the exported counters always
/// agree with the EvalResult aggregation.
void RecordWindowObs(const SelectionResult& result,
                     std::size_t window_pairs) {
  if (!obs::Enabled()) return;
  obs::MetricsRegistry& registry = obs::DefaultRegistry();
  static obs::Counter& windows = registry.GetCounter("evaluate.windows");
  static obs::Counter& pairs = registry.GetCounter("evaluate.pairs_scanned");
  static obs::Counter& candidates =
      registry.GetCounter("evaluate.candidates_emitted");
  static obs::Counter& box_pairs =
      registry.GetCounter("evaluate.box_pairs_evaluated");
  static obs::Counter& cache_hits = registry.GetCounter("reid.cache.hits");
  static obs::Counter& cache_misses =
      registry.GetCounter("reid.cache.misses");
  static obs::Counter& single =
      registry.GetCounter("reid.inferences.single");
  static obs::Counter& batched_crops =
      registry.GetCounter("reid.inferences.batched_crops");
  static obs::Counter& batch_calls = registry.GetCounter("reid.batch_calls");
  static obs::Counter& distances =
      registry.GetCounter("reid.distance_evals");
  static obs::Counter& gate_accepted =
      registry.GetCounter("gate.accepted");
  static obs::Counter& gate_rejected =
      registry.GetCounter("gate.rejected");
  static obs::Counter& gate_ambiguous =
      registry.GetCounter("gate.ambiguous");
  static obs::Counter& failed_pulls =
      registry.GetCounter("pipeline.failed_pulls");
  static obs::Counter& degraded =
      registry.GetCounter("pipeline.degraded_windows");
  windows.Add();
  pairs.Add(static_cast<std::int64_t>(window_pairs));
  candidates.Add(static_cast<std::int64_t>(result.candidates.size()));
  box_pairs.Add(result.box_pairs_evaluated);
  cache_hits.Add(result.usage.cache_hits);
  // Every cache miss is exactly one embedded crop (single or batched).
  cache_misses.Add(result.usage.TotalInferences());
  single.Add(result.usage.single_inferences);
  batched_crops.Add(result.usage.batched_crops);
  batch_calls.Add(result.usage.batch_calls);
  distances.Add(result.usage.distance_evals);
  gate_accepted.Add(result.usage.gate_accepted);
  gate_rejected.Add(result.usage.gate_rejected);
  gate_ambiguous.Add(result.usage.gate_ambiguous);
  failed_pulls.Add(result.failed_pulls);
  if (result.degraded) degraded.Add();
}

}  // namespace
#endif  // TMERGE_OBS_DISABLED

std::int64_t PreparedVideo::TotalPairs() const {
  std::int64_t total = 0;
  for (const auto& window : windows) {
    total += static_cast<std::int64_t>(window.pairs.size());
  }
  return total;
}

PreparedVideo PrepareVideo(const sim::SyntheticVideo& video,
                           track::Tracker& tracker,
                           const PipelineConfig& config) {
  TMERGE_SPAN("prepare.video.seconds");
  PreparedVideo prepared;
  prepared.video = &video;
  detect::DetectionSequence detections;
  {
    TMERGE_SPAN("prepare.detect.seconds");
    detections =
        detect::SimulateDetections(video, config.detector, config.seed);
  }
  {
    TMERGE_SPAN("prepare.track.seconds");
    prepared.tracking = tracker.Run(detections);
  }
  prepared.model = std::make_shared<reid::SyntheticReidModel>(
      video, config.reid, config.seed);
  {
    TMERGE_SPAN("prepare.window.seconds");
    prepared.windows = BuildWindows(prepared.tracking, config.window);
  }
  {
    TMERGE_SPAN("prepare.gt_match.seconds");
    prepared.assignment =
        metrics::MatchTracksToGt(video, prepared.tracking, config.gt_match);
    prepared.truth =
        metrics::PolyonymousPairs(prepared.tracking, prepared.assignment);
  }
  return prepared;
}

std::vector<PreparedVideo> PrepareDataset(const sim::Dataset& dataset,
                                          track::Tracker& tracker,
                                          const PipelineConfig& config) {
  TMERGE_SPAN("prepare.dataset.seconds");
  std::vector<PreparedVideo> prepared;
  int num_threads = core::ResolveNumThreads(config.num_threads);
  if (num_threads == 1 || dataset.videos.size() <= 1) {
    // Serial reference path.
    prepared.reserve(dataset.videos.size());
    for (std::size_t i = 0; i < dataset.videos.size(); ++i) {
      PipelineConfig per_video = config;
      per_video.seed = config.seed + 31 * (i + 1);
      prepared.push_back(PrepareVideo(dataset.videos[i], tracker, per_video));
    }
    return prepared;
  }

  // Each iteration writes only prepared[i]; the seed derivation matches the
  // serial loop exactly, so the result is bit-identical to it.
  prepared.resize(dataset.videos.size());
  core::ThreadPool pool(num_threads);
  pool.ParallelFor(0, static_cast<std::int64_t>(dataset.videos.size()),
                   [&](std::int64_t i) {
                     PipelineConfig per_video = config;
                     per_video.seed = config.seed + 31 * (i + 1);
                     prepared[i] =
                         PrepareVideo(dataset.videos[i], tracker, per_video);
                   });
  return prepared;
}

EvalResult EvaluateSelector(const PreparedVideo& prepared,
                            CandidateSelector& selector,
                            const SelectorOptions& options) {
  TMERGE_CHECK(prepared.video != nullptr);
  TMERGE_SPAN("evaluate.video.seconds");
  core::WallTimer elapsed_timer;
  EvalResult eval;
  eval.frames = prepared.video->num_frames;
  eval.truth_pairs = static_cast<std::int64_t>(prepared.truth.size());

  std::set<metrics::TrackPairKey> truth_set(prepared.truth.begin(),
                                            prepared.truth.end());
  std::set<metrics::TrackPairKey> selected;

  reid::FeatureCache cache;
  SelectorOptions window_options = options;
  for (const auto& window : prepared.windows) {
    if (window.pairs.empty()) continue;
    PairContext context(prepared.tracking, window.pairs);
    // Per-window seed derivation keeps windows decorrelated but runs
    // reproducible.
    window_options.seed = options.seed + 1009 * (window.window_index + 1);
    SelectionResult result;
    {
      TMERGE_SPAN("evaluate.window.seconds");
      result = selector.Select(context, *prepared.model, cache,
                               window_options);
    }
    TMERGE_OBS(RecordWindowObs(result, window.pairs.size()));
    eval.simulated_seconds += result.simulated_seconds;
    eval.summed_wall_seconds += result.wall_seconds;
    eval.usage += result.usage;
    eval.box_pairs_evaluated += result.box_pairs_evaluated;
    eval.failed_pulls += result.failed_pulls;
    eval.reid_retries += result.reid_retries;
    if (result.degraded) ++eval.degraded_windows;
    eval.pairs += static_cast<std::int64_t>(window.pairs.size());
    ++eval.windows;
    for (const auto& pair : result.candidates) selected.insert(pair);
  }

  for (const auto& pair : selected) {
    if (truth_set.contains(pair)) ++eval.hits;
  }
  eval.candidates.assign(selected.begin(), selected.end());
  eval.rec = eval.truth_pairs > 0
                 ? static_cast<double>(eval.hits) / eval.truth_pairs
                 : 1.0;
  eval.fps = eval.simulated_seconds > 0.0
                 ? static_cast<double>(eval.frames) / eval.simulated_seconds
                 : 0.0;
  eval.elapsed_seconds = elapsed_timer.Seconds();
  return eval;
}

EvalResult EvaluateDataset(const std::vector<PreparedVideo>& videos,
                           CandidateSelector& selector,
                           const SelectorOptions& options, int num_threads) {
  TMERGE_SPAN("evaluate.dataset.seconds");
  core::WallTimer elapsed_timer;
  // Per-video evaluations are independent: each owns its FeatureCache and
  // meter (created inside EvaluateSelector) and reads only its own
  // PreparedVideo. The selector is shared across threads, which is safe
  // because Select reads but never mutates selector state (see pipeline.h).
  std::vector<EvalResult> evals(videos.size());
  num_threads = core::ResolveNumThreads(num_threads);
  if (num_threads == 1 || videos.size() <= 1) {
    for (std::size_t i = 0; i < videos.size(); ++i) {
      evals[i] = EvaluateSelector(videos[i], selector, options);
    }
  } else {
    core::ThreadPool pool(num_threads);
    pool.ParallelFor(0, static_cast<std::int64_t>(videos.size()),
                     [&](std::int64_t i) {
                       evals[i] = EvaluateSelector(videos[i], selector,
                                                   options);
                     });
  }

  // Ordered reduction in video order: the same floating-point accumulation
  // sequence as a serial loop, hence deterministic for any thread count.
  EvalResult total;
  for (EvalResult& eval : evals) {
    total.simulated_seconds += eval.simulated_seconds;
    total.summed_wall_seconds += eval.summed_wall_seconds;
    total.usage += eval.usage;
    total.box_pairs_evaluated += eval.box_pairs_evaluated;
    total.failed_pulls += eval.failed_pulls;
    total.reid_retries += eval.reid_retries;
    total.degraded_windows += eval.degraded_windows;
    total.frames += eval.frames;
    total.windows += eval.windows;
    total.pairs += eval.pairs;
    total.truth_pairs += eval.truth_pairs;
    total.hits += eval.hits;
    total.candidates.insert(
        total.candidates.end(),
        std::make_move_iterator(eval.candidates.begin()),
        std::make_move_iterator(eval.candidates.end()));
  }
  total.rec = total.truth_pairs > 0
                  ? static_cast<double>(total.hits) / total.truth_pairs
                  : 1.0;
  total.fps = total.simulated_seconds > 0.0
                  ? static_cast<double>(total.frames) / total.simulated_seconds
                  : 0.0;
  // True elapsed time of this call, not the per-video sum: with
  // num_threads > 1 the two diverge by design (see EvalResult).
  total.elapsed_seconds = elapsed_timer.Seconds();
  return total;
}

EvalResult EvaluateSelectorAveraged(const std::vector<PreparedVideo>& videos,
                                    CandidateSelector& selector,
                                    const SelectorOptions& options,
                                    int trials, int num_threads) {
  TMERGE_CHECK(trials > 0);
  EvalResult mean;
  for (int trial = 0; trial < trials; ++trial) {
    SelectorOptions trial_options = options;
    trial_options.seed = options.seed + 7919 * trial;
    EvalResult eval =
        EvaluateDataset(videos, selector, trial_options, num_threads);
    if (trial == 0) {
      mean = eval;
      continue;
    }
    mean.rec += eval.rec;
    mean.fps += eval.fps;
    mean.simulated_seconds += eval.simulated_seconds;
    mean.summed_wall_seconds += eval.summed_wall_seconds;
    mean.elapsed_seconds += eval.elapsed_seconds;
    mean.hits += eval.hits;
    mean.box_pairs_evaluated += eval.box_pairs_evaluated;
    mean.failed_pulls += eval.failed_pulls;
    mean.reid_retries += eval.reid_retries;
    mean.degraded_windows += eval.degraded_windows;
    mean.usage += eval.usage;
  }
  mean.rec /= trials;
  mean.fps /= trials;
  mean.simulated_seconds /= trials;
  mean.summed_wall_seconds /= trials;
  mean.elapsed_seconds /= trials;
  mean.hits /= trials;
  mean.box_pairs_evaluated /= trials;
  mean.failed_pulls /= trials;
  mean.reid_retries /= trials;
  mean.degraded_windows /= trials;
  mean.usage.single_inferences /= trials;
  mean.usage.batched_crops /= trials;
  mean.usage.batch_calls /= trials;
  mean.usage.distance_evals /= trials;
  mean.usage.cache_hits /= trials;
  mean.usage.failed_embeds /= trials;
  mean.usage.gate_accepted /= trials;
  mean.usage.gate_rejected /= trials;
  mean.usage.gate_ambiguous /= trials;
  return mean;
}

track::TrackingResult SelectAndMerge(const PreparedVideo& prepared,
                                     CandidateSelector& selector,
                                     const SelectorOptions& options,
                                     bool oracle_verified) {
  EvalResult eval = EvaluateSelector(prepared, selector, options);
  std::vector<metrics::TrackPairKey> accepted =
      oracle_verified ? OracleFilter(eval.candidates, prepared.truth)
                      : eval.candidates;
  return ApplyMerges(prepared.tracking, accepted);
}

}  // namespace tmerge::merge
