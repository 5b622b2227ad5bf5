#ifndef E2EBENCH_HARNESS_WORKLOAD_H_
#define E2EBENCH_HARNESS_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tmerge/core/thread_pool.h"
#include "tmerge/detect/detection_simulator.h"
#include "tmerge/gate/gated_selector.h"
#include "tmerge/merge/baseline.h"
#include "tmerge/merge/lcb.h"
#include "tmerge/merge/pipeline.h"
#include "tmerge/merge/proportional.h"
#include "tmerge/merge/tmerge.h"
#include "tmerge/reid/reid_model.h"
#include "tmerge/sim/dataset.h"

namespace tmerge::e2ebench {

/// Worker threads of every workload: the batch job's per-video pool and
/// the stream service's merge pool.
inline constexpr int kWorkers = 2;

/// One benchmark workload: a dataset profile, its windowing, and the size
/// of the batch job and of the stream fleet built from it.
struct WorkloadSpec {
  std::string name;
  sim::DatasetProfile profile = sim::DatasetProfile::kMot17Like;
  merge::WindowConfig window;
  /// The workload's fixed dataset: positions of its videos in the stream
  /// of videos drawn from the benchmark's dataset seed (e2ebench/README.md
  /// says how they were picked). One entry per video.
  std::vector<std::uint32_t> video_indices;
  /// The stream fleet replays every video this many times as separate
  /// cameras (so that a reference run offers enough calls for a p99.9).
  std::int32_t camera_copies = 1;
};

/// The shipped workloads, in BENCHMARK.json order.
const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

/// Everything built before the first timed call: the workload's fixed
/// dataset, and selector options seeded from the run seed.
struct Inputs {
  std::vector<sim::SyntheticVideo> videos;
  /// Per-video pipeline configuration (windowing and detector/ReID seed).
  std::vector<merge::PipelineConfig> pipelines;
  /// Base selector options (per-window seeds derive from options.seed).
  merge::SelectorOptions options;
  /// The stream fleet's per-video inputs (cameras reuse them by copy).
  std::vector<detect::DetectionSequence> detections;
  std::vector<std::shared_ptr<const reid::ReidModel>> models;

  std::int64_t TotalFrames() const;
};

/// Builds the inputs of `spec` for run seed `seed`, videos in parallel on
/// `pool`. The same seed always yields the same inputs.
Inputs MakeInputs(const WorkloadSpec& spec, std::uint64_t seed,
                  core::ThreadPool& pool);

/// The six selectors of the paper's comparison.
class SelectorSet {
 public:
  struct Entry {
    std::string name;
    merge::CandidateSelector* selector = nullptr;
    std::int32_t batch_size = 1;
    /// Prefetches ambiguous pairs through a per-video reid::EmbedScheduler
    /// (the gated configuration the stream service runs).
    bool embed_scheduler = false;
  };

  SelectorSet();
  SelectorSet(const SelectorSet&) = delete;
  SelectorSet& operator=(const SelectorSet&) = delete;

  const std::vector<Entry>& entries() const { return entries_; }
  /// Gated TMerge, which the stream service runs.
  merge::CandidateSelector& gated() { return gated_; }

 private:
  merge::BaselineSelector baseline_;
  merge::ProportionalSelector proportional_;
  merge::LcbSelector lcb_;
  merge::TMergeSelector tmerge_;
  gate::GatedSelector gated_;
  std::vector<Entry> entries_;
};

/// Gate settings of the gated selector (prefetch on, shipped thresholds).
gate::GateConfig GatedConfig();

}  // namespace tmerge::e2ebench

#endif  // E2EBENCH_HARNESS_WORKLOAD_H_
