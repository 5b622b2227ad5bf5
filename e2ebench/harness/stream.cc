#include "stream.h"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "decorators.h"
#include "trace.h"

namespace tmerge::e2ebench {
namespace {

/// Frames between two backlog samples.
constexpr std::size_t kBacklogInterval = 64;
/// Shortest run: at high rates the fleet is replayed as more cameras.
constexpr double kMinRunSeconds = 0.5;

double Millis(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }
double Seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Sleeps until 2 ms before `due_ns`, then spins without yielding: a
/// yield or a short sleep can hand the core to another thread for a whole
/// scheduler slice, which would show up as latency the service never
/// caused.
std::int64_t WaitUntil(std::int64_t due_ns) {
  std::int64_t now = NowNs();
  if (due_ns - now > 3'000'000) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(due_ns - now - 2'000'000));
    now = NowNs();
  }
  while (now < due_ns) now = NowNs();
  return now;
}

/// Pins the calling thread to one CPU while it lives, then restores its
/// CPU mask. A negative CPU, or a failed call, leaves the thread alone.
class ScopedCpuPin {
 public:
  explicit ScopedCpuPin(int cpu) {
    if (cpu < 0 || sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  ~ScopedCpuPin() {
    if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  ScopedCpuPin(const ScopedCpuPin&) = delete;
  ScopedCpuPin& operator=(const ScopedCpuPin&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

}  // namespace

std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &mask)) cpus.push_back(cpu);
  }
  return cpus;
}

StreamRun RunStream(const WorkloadSpec& spec, const Inputs& inputs,
                    merge::CandidateSelector& gated, double offered_fps,
                    bool traced, int generator_cpu) {
  const std::size_t videos = inputs.videos.size();
  // The fleet: every video spec.camera_copies times, replayed batch after
  // batch until the run lasts kMinRunSeconds.
  const std::size_t fleet = videos * static_cast<std::size_t>(spec.camera_copies);
  const double fleet_frames =
      static_cast<double>(inputs.TotalFrames() * spec.camera_copies);
  const std::size_t batches = static_cast<std::size_t>(
      std::max(1.0, std::ceil(offered_fps * kMinRunSeconds / fleet_frames)));
  const std::size_t cameras = fleet * batches;
  TimedSelector timed_selector(gated);
  merge::CandidateSelector& selector =
      traced ? static_cast<merge::CandidateSelector&>(timed_selector) : gated;

  stream::StreamServiceConfig config;
  config.window = spec.window;
  config.selector = inputs.options;
  config.num_threads = kWorkers;
  config.enable_embed_scheduler = true;
  // Merge a window as soon as it closes unless it is tiny; everything else
  // keeps the service defaults.
  config.director.min_pairs_per_merge_job = 64;
  StreamRun run;
  run.step.offered_fps = offered_fps;

  std::int32_t max_frames = 0;
  for (const detect::DetectionSequence& detections : inputs.detections) {
    max_frames = std::max(max_frames, detections.num_frames);
  }
  // Camera c starts `offset[c]` rounds into the run: batch b after b full
  // videos, and within a batch spread over half a window. Cameras that
  // closed windows and ended their streams all in the same round would
  // stall ingest for a burst that grows with the fleet, and the sustained
  // rate would measure that burst rather than the service's capacity.
  const std::int32_t spread =
      (spec.window.single_window ? max_frames : spec.window.length) / 2;
  std::vector<std::int32_t> offset(cameras);
  for (std::size_t c = 0; c < cameras; ++c) {
    offset[c] = static_cast<std::int32_t>(
        (c / fleet) * static_cast<std::size_t>(max_frames) +
        (c % fleet) * static_cast<std::size_t>(spread) / fleet);
  }
  // (camera, frame) in due order: one round visits every live camera.
  std::vector<std::pair<std::int32_t, std::int32_t>> schedule;
  for (std::int32_t round = 0;
       round < offset.back() + max_frames; ++round) {
    for (std::size_t c = 0; c < cameras; ++c) {
      std::int32_t frame = round - offset[c];
      if (frame >= 0 && frame < inputs.detections[c % videos].num_frames) {
        schedule.emplace_back(static_cast<std::int32_t>(c), frame);
      }
    }
  }

  {
    stream::StreamService service(config, selector);
    for (std::size_t c = 0; c < cameras; ++c) {
      const detect::DetectionSequence& detections =
          inputs.detections[c % videos];
      stream::CameraConfig camera;
      camera.num_frames = detections.num_frames;
      camera.frame_width = detections.frame_width;
      camera.frame_height = detections.frame_height;
      camera.fps = detections.fps;
      camera.model =
          traced ? std::make_shared<const TimedReidModel>(
                       inputs.models[c % videos])
                 : inputs.models[c % videos];
      service.AddCamera(camera);
    }

    const double interval_ns = 1e9 / offered_fps;
    run.latency_ms.reserve(schedule.size());
    run.late_ms.reserve(schedule.size());
    std::optional<ScopedCpuPin> pin(std::in_place, generator_cpu);
    const std::int64_t start = NowNs() + 1'000'000;
    std::int64_t last_end = start;
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      auto [camera, frame] = schedule[i];
      const std::int64_t due =
          start + static_cast<std::int64_t>(static_cast<double>(i) *
                                            interval_ns);
      std::int64_t now = WaitUntil(due);
      const std::int64_t call_start = now;
      stream::IngestOutcome outcome;
      {
        TaskContext context(-1, camera);
        ScopedSpan span("stream.ingest");
        const detect::DetectionFrame& payload =
            inputs.detections[camera % videos].frames[frame];
        for (;;) {
          outcome = service.IngestFrame(camera, payload, Seconds(now - start));
          ++run.ingest_calls;
          if (outcome != stream::IngestOutcome::kBackpressure) break;
          std::this_thread::yield();
          now = NowNs();
        }
        // End of stream rides with the camera's last frame.
        if (frame + 1 == inputs.detections[camera % videos].num_frames) {
          service.CloseCamera(camera, Seconds(NowNs() - start));
        }
      }
      last_end = NowNs();
      if (i >= kWarmupCalls) {
        run.latency_ms.push_back(Millis(last_end - due));
        run.late_ms.push_back(Millis(call_start - due));
      }
      run.service_ns += last_end - call_start;
      if (outcome != stream::IngestOutcome::kAccepted) ++run.step.failed;
      if (i % kBacklogInterval == 0) {
        run.step.backlog.push_back(service.queued_frames());
      }
    }
    run.step.achieved_fps = static_cast<double>(schedule.size()) /
                            Seconds(std::max<std::int64_t>(1, last_end - start));
    pin.reset();
    {
      ScopedSpan span("stream.finish");
      run.result = service.Finish(Seconds(NowNs() - start));
    }
    run.drain_s = Seconds(NowNs() - last_end);
  }
  run.frames = static_cast<std::int64_t>(schedule.size());
  run.step.samples = run.latency_ms.size();
  run.step.p99_ms = Percentile(run.latency_ms, 0.99);
  run.p999_ms = Percentile(run.latency_ms, 0.999);
  run.select_calls = timed_selector.stats().calls.load();
  run.select_busy_ns = timed_selector.stats().busy_ns.load();
  return run;
}

void CheckStream(const StreamRun& run,
                 const std::vector<merge::EvalResult>& gated_reference,
                 CheckTally& tally) {
  const std::size_t videos = gated_reference.size();
  for (const stream::CameraStreamResult& camera : run.result.cameras) {
    const merge::EvalResult& want =
        gated_reference[static_cast<std::size_t>(camera.camera_id) % videos];
    tally.Expect(SameSelection(camera.candidates, camera.usage,
                               camera.simulated_seconds, want.candidates,
                               want.usage, want.simulated_seconds),
                 "streamed camera " + std::to_string(camera.camera_id) +
                     " differs from batch merge::EvaluateSelector");
  }
  // Every frame offered is one operation: a rejected or dropped verdict
  // is a failed one.
  tally.attempted += run.frames;
  tally.failed += run.step.failed;
}

}  // namespace tmerge::e2ebench
