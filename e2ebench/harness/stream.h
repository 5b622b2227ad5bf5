#ifndef E2EBENCH_HARNESS_STREAM_H_
#define E2EBENCH_HARNESS_STREAM_H_

#include <cstdint>
#include <vector>

#include "batch.h"
#include "stats.h"
#include "tmerge/merge/pipeline.h"
#include "tmerge/stream/stream_service.h"
#include "workload.h"

namespace tmerge::e2ebench {

/// Ingest p99 limit of the sustained-rate decision, in milliseconds: one
/// frame period of a 30 fps camera.
inline constexpr double kIngestLimitMs = 33.0;
/// Offered rate of the reference runs, which give the latency metrics.
inline constexpr double kReferenceFps = 16000.0;
/// Calls at the start of each run left out of its latency samples: every
/// run starts a fresh service, whose first frames pay its lazy set-up.
inline constexpr std::size_t kWarmupCalls = 256;

/// One open-loop stream session at a fixed offered rate.
struct StreamRun {
  LadderStep step;
  /// Frames offered.
  std::int64_t frames = 0;
  /// Per IngestFrame call after the warm-up, from its due time to its
  /// return (backpressure retries included), in ms.
  std::vector<double> latency_ms;
  /// Per call, how late the generator issued it after its due time, in ms.
  std::vector<double> late_ms;
  /// p99.9 of latency_ms.
  double p999_ms = 0.0;
  /// Time spent inside IngestFrame, retries included.
  std::int64_t service_ns = 0;
  /// From the last accepted frame until Finish returned.
  double drain_s = 0.0;
  std::int64_t ingest_calls = 0;
  stream::StreamResult result;
  /// Traced runs only: the decorated selector's counters.
  std::int64_t select_calls = 0;
  std::int64_t select_busy_ns = 0;
};

/// Feeds every camera of the fleet (each video `spec.camera_copies` times,
/// replayed as further cameras when the rate would end the run in under
/// half a second) round-robin into a fresh stream::StreamService running gated TMerge
/// with the embed scheduler on kWorkers merge workers. A single generator
/// thread issues frame i at its due time start + i / offered_fps, a
/// schedule that never slows when the service does; a kBackpressure
/// verdict is retried at once, and every call's latency runs from its
/// original due time. kRejected / kDropped verdicts count as failed.
/// `generator_cpu` >= 0 pins the generator (the calling thread) to that CPU
/// from the first frame to the last, after the service has started its
/// workers so that they are not pinned with it.
StreamRun RunStream(const WorkloadSpec& spec, const Inputs& inputs,
                    merge::CandidateSelector& gated, double offered_fps,
                    bool traced, int generator_cpu = -1);

/// The CPUs the calling thread may run on, ascending; empty when unknown.
std::vector<int> AllowedCpus();

/// Streamed per-camera selection outputs must equal the batch
/// EvaluateSelector reference of the camera's video (`gated_reference`,
/// one per video).
void CheckStream(const StreamRun& run,
                 const std::vector<merge::EvalResult>& gated_reference,
                 CheckTally& tally);

}  // namespace tmerge::e2ebench

#endif  // E2EBENCH_HARNESS_STREAM_H_
