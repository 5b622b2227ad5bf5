#ifndef E2EBENCH_HARNESS_BATCH_H_
#define E2EBENCH_HARNESS_BATCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "tasks.h"
#include "tmerge/core/thread_pool.h"
#include "tmerge/merge/pipeline.h"
#include "tmerge/query/cooccurrence_query.h"
#include "tmerge/track/track.h"
#include "workload.h"

namespace tmerge::e2ebench {

/// What one selector pass produced for one video: selection, merge and
/// query outputs.
struct VideoOutcome {
  merge::EvalResult eval;
  std::int64_t accepted_pairs = 0;
  std::int64_t merged_tracks = 0;
  std::vector<track::TrackId> count_answers;
  std::vector<query::CoOccurrence> cooccur_answers;
};

/// One selector's select + merge + query pass over every video.
struct PassOutcome {
  std::string selector;
  double wall_s = 0.0;
  std::vector<VideoOutcome> videos;

  /// Micro-averaged recall (hits / truth pairs) over the videos.
  double Recall() const;
  /// Frames per simulated second (the paper's FPS), over the videos.
  double SimFps() const;
};

/// Per-selector counters from the decorators of a traced job.
struct SelectorProbe {
  std::int64_t select_calls = 0;
  std::int64_t select_busy_ns = 0;
  std::int64_t select_max_ns = 0;
  std::int64_t box_pairs = 0;
  std::int64_t embed_calls = 0;
  std::int64_t embed_busy_ns = 0;
};

/// One batch job: prepare every video, then one pass per selector.
struct JobOutcome {
  double job_s = 0.0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::vector<merge::PreparedVideo> prepared;
  std::vector<PassOutcome> passes;
  /// Filled when the job ran traced.
  std::vector<SelectorProbe> probes;
  PoolUsage pool;
};

/// One selector's select + merge + query pass over `prepared`, videos in
/// parallel on `pool`. `selector` is the entry's selector or a decorator
/// over it.
PassOutcome RunPass(const Inputs& inputs,
                    const std::vector<merge::PreparedVideo>& prepared,
                    const SelectorSet::Entry& entry,
                    merge::CandidateSelector& selector, core::ThreadPool& pool,
                    PoolUsage* usage = nullptr);

/// Runs the paper's batch job (detect -> track -> window -> gt_match ->
/// select -> merge -> query) for every selector of `selectors`, videos in
/// parallel on `pool`. With `traced` the tracker, selectors and ReID
/// models are wrapped in timing decorators (decorators.h).
JobOutcome RunBatchJob(const Inputs& inputs, SelectorSet& selectors,
                       core::ThreadPool& pool, bool traced);

/// The checks run outside the timed region. Each compares one unit of
/// output and counts one attempted operation; mismatches count as failed
/// and are described on stderr.
struct CheckTally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  void Expect(bool ok, const std::string& what);
};

/// Serial reference: merge::PrepareVideo per video, then
/// merge::EvaluateSelector per selector and video.
struct BatchReference {
  std::vector<merge::PreparedVideo> prepared;
  /// [selector][video]
  std::vector<std::vector<merge::EvalResult>> evals;
};
BatchReference RunSerialReference(const Inputs& inputs, SelectorSet& selectors);

/// The job's layer-by-layer prepare must equal merge::PrepareVideo, and
/// every selector's candidates, usage and simulated seconds must equal the
/// serial reference.
void CheckAgainstReference(const JobOutcome& job,
                           const BatchReference& reference,
                           CheckTally& tally);

/// One pass's candidates, usage and simulated seconds must equal the serial
/// reference of its selector (one EvalResult per video).
void CheckPass(const PassOutcome& pass,
               const std::vector<merge::EvalResult>& reference,
               CheckTally& tally);

/// Every output of `traced` must equal `untraced`.
void CheckIdentical(const JobOutcome& untraced, const JobOutcome& traced,
                    CheckTally& tally);

/// Field-by-field equality of the selector outputs the checks compare.
bool SameSelection(const std::vector<metrics::TrackPairKey>& candidates_a,
                   const reid::UsageStats& usage_a, double sim_seconds_a,
                   const std::vector<metrics::TrackPairKey>& candidates_b,
                   const reid::UsageStats& usage_b, double sim_seconds_b);

/// Selector options of one entry for one video: the base options plus the
/// entry's batch size and, for the gated entry, `scheduler`.
merge::SelectorOptions EntryOptions(const Inputs& inputs,
                                    const SelectorSet::Entry& entry,
                                    reid::EmbedScheduler* scheduler);

}  // namespace tmerge::e2ebench

#endif  // E2EBENCH_HARNESS_BATCH_H_
