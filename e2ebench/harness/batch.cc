#include "batch.h"

#include <iostream>
#include <memory>
#include <utility>

#include "decorators.h"
#include "tmerge/merge/merger.h"
#include "tmerge/merge/window.h"
#include "tmerge/metrics/gt_matcher.h"
#include "tmerge/query/count_query.h"
#include "tmerge/query/track_database.h"
#include "tmerge/reid/embed_scheduler.h"
#include "tmerge/reid/synthetic_reid_model.h"
#include "tmerge/track/sort_tracker.h"
#include "trace.h"

namespace tmerge::e2ebench {
namespace {

/// merge::PrepareVideo, one layer call at a time so each gets its span.
merge::PreparedVideo PrepareLayered(const sim::SyntheticVideo& video,
                                    track::Tracker& tracker,
                                    const merge::PipelineConfig& config) {
  merge::PreparedVideo prepared;
  prepared.video = &video;
  detect::DetectionSequence detections;
  {
    ScopedSpan span("detect");
    detections =
        detect::SimulateDetections(video, config.detector, config.seed);
  }
  prepared.tracking = tracker.Run(detections);
  {
    ScopedSpan span("reid.model");
    prepared.model = std::make_shared<reid::SyntheticReidModel>(
        video, config.reid, config.seed);
  }
  {
    ScopedSpan span("window");
    prepared.windows = merge::BuildWindows(prepared.tracking, config.window);
  }
  {
    ScopedSpan span("gt_match");
    prepared.assignment =
        metrics::MatchTracksToGt(video, prepared.tracking, config.gt_match);
    prepared.truth =
        metrics::PolyonymousPairs(prepared.tracking, prepared.assignment);
  }
  return prepared;
}

bool SameTracking(const track::TrackingResult& a,
                  const track::TrackingResult& b) {
  if (a.tracks.size() != b.tracks.size() || a.num_frames != b.num_frames) {
    return false;
  }
  for (std::size_t t = 0; t < a.tracks.size(); ++t) {
    const track::Track& x = a.tracks[t];
    const track::Track& y = b.tracks[t];
    if (x.id != y.id || x.boxes.size() != y.boxes.size()) return false;
    for (std::size_t i = 0; i < x.boxes.size(); ++i) {
      const track::TrackedBox& p = x.boxes[i];
      const track::TrackedBox& q = y.boxes[i];
      if (p.detection_id != q.detection_id || p.frame != q.frame ||
          p.box.x != q.box.x || p.box.y != q.box.y ||
          p.box.width != q.box.width || p.box.height != q.box.height ||
          p.confidence != q.confidence) {
        return false;
      }
    }
  }
  return true;
}

bool SamePrepared(const merge::PreparedVideo& a,
                  const merge::PreparedVideo& b) {
  if (!SameTracking(a.tracking, b.tracking) || a.truth != b.truth ||
      a.windows.size() != b.windows.size()) {
    return false;
  }
  for (std::size_t w = 0; w < a.windows.size(); ++w) {
    if (a.windows[w].window_index != b.windows[w].window_index ||
        a.windows[w].pairs != b.windows[w].pairs) {
      return false;
    }
  }
  return true;
}

bool SameUsage(const reid::UsageStats& a, const reid::UsageStats& b) {
  return a.single_inferences == b.single_inferences &&
         a.batched_crops == b.batched_crops &&
         a.batch_calls == b.batch_calls &&
         a.distance_evals == b.distance_evals &&
         a.cache_hits == b.cache_hits && a.failed_embeds == b.failed_embeds &&
         a.gate_accepted == b.gate_accepted &&
         a.gate_rejected == b.gate_rejected &&
         a.gate_ambiguous == b.gate_ambiguous;
}

}  // namespace

double PassOutcome::Recall() const {
  std::int64_t hits = 0;
  std::int64_t truth = 0;
  for (const VideoOutcome& video : videos) {
    hits += video.eval.hits;
    truth += video.eval.truth_pairs;
  }
  return truth > 0 ? static_cast<double>(hits) / static_cast<double>(truth)
                   : 1.0;
}

double PassOutcome::SimFps() const {
  double seconds = 0.0;
  std::int64_t frames = 0;
  for (const VideoOutcome& video : videos) {
    seconds += video.eval.simulated_seconds;
    frames += video.eval.frames;
  }
  return seconds > 0.0 ? static_cast<double>(frames) / seconds : 0.0;
}

merge::SelectorOptions EntryOptions(const Inputs& inputs,
                                    const SelectorSet::Entry& entry,
                                    reid::EmbedScheduler* scheduler) {
  merge::SelectorOptions options = inputs.options;
  options.batch_size = entry.batch_size;
  if (entry.embed_scheduler) options.embed_scheduler = scheduler;
  return options;
}

PassOutcome RunPass(const Inputs& inputs,
                    const std::vector<merge::PreparedVideo>& prepared,
                    const SelectorSet::Entry& entry,
                    merge::CandidateSelector& selector, core::ThreadPool& pool,
                    PoolUsage* usage) {
  PassOutcome pass;
  pass.selector = entry.name;
  pass.videos.resize(prepared.size());
  const std::int64_t start = NowNs();
  {
    ScopedSpan span("pass");
    RunTasks(
        pool, prepared.size(),
        [&](std::size_t v) {
          VideoOutcome& out = pass.videos[v];
          reid::EmbedScheduler scheduler{reid::EmbedSchedulerConfig{},
                                         nullptr};
          {
            ScopedSpan evaluate("evaluate");
            out.eval = merge::EvaluateSelector(
                prepared[v], selector, EntryOptions(inputs, entry, &scheduler));
          }
          track::TrackingResult merged;
          {
            ScopedSpan merge_span("merge");
            std::vector<metrics::TrackPairKey> accepted =
                merge::OracleFilter(out.eval.candidates, prepared[v].truth);
            out.accepted_pairs = static_cast<std::int64_t>(accepted.size());
            merged = merge::ApplyMerges(prepared[v].tracking, accepted);
            out.merged_tracks = static_cast<std::int64_t>(merged.tracks.size());
          }
          {
            ScopedSpan query_span("query");
            query::TrackDatabase database(merged);
            out.count_answers =
                query::RunCountQuery(database, query::CountQuery{});
            out.cooccur_answers = query::RunCoOccurrenceQuery(
                database, query::CoOccurrenceQuery{});
          }
        },
        usage);
  }
  pass.wall_s = static_cast<double>(NowNs() - start) * 1e-9;
  return pass;
}

JobOutcome RunBatchJob(const Inputs& inputs, SelectorSet& selectors,
                       core::ThreadPool& pool, bool traced) {
  const std::size_t count = inputs.videos.size();
  JobOutcome job;
  track::SortTracker sort_tracker;
  TimedTracker timed_tracker(sort_tracker);
  track::Tracker& tracker =
      traced ? static_cast<track::Tracker&>(timed_tracker) : sort_tracker;

  ScopedSpan job_span("job");
  job.start_ns = NowNs();
  job.prepared.resize(count);
  {
    ScopedSpan span("prepare");
    RunTasks(
        pool, count,
        [&](std::size_t v) {
          job.prepared[v] =
              PrepareLayered(inputs.videos[v], tracker, inputs.pipelines[v]);
        },
        &job.pool);
  }

  for (const SelectorSet::Entry& entry : selectors.entries()) {
    TimedSelector timed_selector(*entry.selector);
    merge::CandidateSelector& selector =
        traced ? static_cast<merge::CandidateSelector&>(timed_selector)
               : *entry.selector;
    std::vector<std::shared_ptr<const reid::ReidModel>> bare_models;
    std::vector<std::shared_ptr<const TimedReidModel>> timed_models;
    if (traced) {
      for (merge::PreparedVideo& prepared : job.prepared) {
        auto timed = std::make_shared<const TimedReidModel>(prepared.model);
        bare_models.push_back(std::exchange(prepared.model, timed));
        timed_models.push_back(std::move(timed));
      }
    }

    PassOutcome pass =
        RunPass(inputs, job.prepared, entry, selector, pool, &job.pool);

    if (traced) {
      SelectorProbe probe;
      probe.select_calls = timed_selector.stats().calls.load();
      probe.select_busy_ns = timed_selector.stats().busy_ns.load();
      probe.select_max_ns = timed_selector.stats().max_ns.load();
      probe.box_pairs = timed_selector.stats().box_pairs.load();
      for (std::size_t v = 0; v < count; ++v) {
        probe.embed_calls += timed_models[v]->stats().calls.load();
        probe.embed_busy_ns += timed_models[v]->stats().busy_ns.load();
        job.prepared[v].model = bare_models[v];
      }
      job.probes.push_back(probe);
    }
    job.passes.push_back(std::move(pass));
  }
  job.end_ns = NowNs();
  job.job_s = static_cast<double>(job.end_ns - job.start_ns) * 1e-9;
  return job;
}

void CheckTally::Expect(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  std::cerr << "e2e_bench: CHECK FAILED: " << what << "\n";
}

BatchReference RunSerialReference(const Inputs& inputs,
                                  SelectorSet& selectors) {
  BatchReference reference;
  track::SortTracker tracker;
  for (std::size_t v = 0; v < inputs.videos.size(); ++v) {
    reference.prepared.push_back(
        merge::PrepareVideo(inputs.videos[v], tracker, inputs.pipelines[v]));
  }
  for (const SelectorSet::Entry& entry : selectors.entries()) {
    std::vector<merge::EvalResult> evals;
    for (const merge::PreparedVideo& prepared : reference.prepared) {
      reid::EmbedScheduler scheduler{reid::EmbedSchedulerConfig{}, nullptr};
      evals.push_back(merge::EvaluateSelector(
          prepared, *entry.selector, EntryOptions(inputs, entry, &scheduler)));
    }
    reference.evals.push_back(std::move(evals));
  }
  return reference;
}

bool SameSelection(const std::vector<metrics::TrackPairKey>& candidates_a,
                   const reid::UsageStats& usage_a, double sim_seconds_a,
                   const std::vector<metrics::TrackPairKey>& candidates_b,
                   const reid::UsageStats& usage_b, double sim_seconds_b) {
  return candidates_a == candidates_b && SameUsage(usage_a, usage_b) &&
         sim_seconds_a == sim_seconds_b;
}

void CheckAgainstReference(const JobOutcome& job,
                           const BatchReference& reference,
                           CheckTally& tally) {
  for (std::size_t v = 0; v < job.prepared.size(); ++v) {
    tally.Expect(SamePrepared(job.prepared[v], reference.prepared[v]),
                 "prepare of video " + std::to_string(v) +
                     " differs from merge::PrepareVideo");
  }
  for (std::size_t s = 0; s < job.passes.size(); ++s) {
    CheckPass(job.passes[s], reference.evals[s], tally);
  }
}

void CheckPass(const PassOutcome& pass,
               const std::vector<merge::EvalResult>& reference,
               CheckTally& tally) {
  for (std::size_t v = 0; v < pass.videos.size(); ++v) {
    const merge::EvalResult& got = pass.videos[v].eval;
    const merge::EvalResult& want = reference[v];
    tally.Expect(SameSelection(got.candidates, got.usage,
                               got.simulated_seconds, want.candidates,
                               want.usage, want.simulated_seconds),
                 pass.selector + " on video " + std::to_string(v) +
                     " differs from serial merge::EvaluateSelector");
  }
}

void CheckIdentical(const JobOutcome& untraced, const JobOutcome& traced,
                    CheckTally& tally) {
  for (std::size_t v = 0; v < untraced.prepared.size(); ++v) {
    tally.Expect(SamePrepared(untraced.prepared[v], traced.prepared[v]),
                 "traced prepare of video " + std::to_string(v) +
                     " differs from the untraced run");
  }
  for (std::size_t s = 0; s < untraced.passes.size(); ++s) {
    for (std::size_t v = 0; v < untraced.passes[s].videos.size(); ++v) {
      const VideoOutcome& a = untraced.passes[s].videos[v];
      const VideoOutcome& b = traced.passes[s].videos[v];
      bool same = SameSelection(a.eval.candidates, a.eval.usage,
                                a.eval.simulated_seconds, b.eval.candidates,
                                b.eval.usage, b.eval.simulated_seconds) &&
                  a.eval.hits == b.eval.hits &&
                  a.eval.box_pairs_evaluated == b.eval.box_pairs_evaluated &&
                  a.accepted_pairs == b.accepted_pairs &&
                  a.merged_tracks == b.merged_tracks &&
                  a.count_answers == b.count_answers &&
                  a.cooccur_answers == b.cooccur_answers;
      tally.Expect(same, "traced " + untraced.passes[s].selector +
                             " on video " + std::to_string(v) +
                             " differs from the untraced run");
    }
  }
}

}  // namespace tmerge::e2ebench
