// End-to-end benchmark of the batch track-merging job and the multi-camera
// stream service. Usage:
//
//   e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <path>]
//
// Prints a human-readable report, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1 (which also writes
// the Chrome trace to --trace-out). See e2ebench/README.md.

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "batch.h"
#include "stats.h"
#include "stream.h"
#include "trace.h"
#include "workload.h"

namespace tmerge::e2ebench {
namespace {

/// An untraced run is a sequence of rounds, at least kMinRounds and then
/// more until --seconds has passed (at most kMaxRounds). A round runs one
/// batch job, one more pass of each selector whose pass is shorter than
/// kExtraPassMaxSeconds (a short pass is the one a host stall distorts
/// most), kReferenceRunsPerRound stream runs at the reference rate,
/// kStairRunsPerRound runs of the sustained-rate staircase, whose rates
/// move by kStairStep per run, and kSetupRoundsPerRound more set-ups
/// (setup_s is the median of all set-ups of the run).
constexpr std::size_t kMinRounds = 3;
constexpr std::size_t kMaxRounds = 20;
constexpr double kExtraPassMaxSeconds = 1.0;
constexpr std::size_t kReferenceRunsPerRound = 3;
constexpr std::size_t kStairRunsPerRound = 3;
constexpr double kStairStep = 1.1;
constexpr std::size_t kSetupRoundsPerRound = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
};

bool ParseUnsigned(const char* text, std::uint64_t* value) {
  errno = 0;
  char* end = nullptr;
  unsigned long long parsed = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    return false;
  }
  *value = parsed;
  return true;
}

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    std::uint64_t number = 0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed" && ParseUnsigned(value, &number)) {
      args.seed = number;
      have_seed = true;
    } else if (flag == "--seconds" && ParseUnsigned(value, &number) &&
               number >= 1 && number <= 3600) {
      args.seconds = static_cast<double>(number);
      have_seconds = true;
    } else if (flag == "--trace" && ParseUnsigned(value, &number) &&
               number <= 1) {
      args.trace = number == 1;
      have_trace = true;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || args.workload.empty() || !have_seed ||
      !have_seconds || !have_trace) {
    return std::nullopt;
  }
  return args;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

double SecondsSince(std::int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// Restarts the kernel's peak-RSS count (VmHWM), so the peak read later
/// covers only what ran since. Returns false where Linux does not allow it.
bool ResetPeakRss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.close();
  return clear_refs.good();
}

/// Peak resident memory in MiB: VmHWM, else the getrusage high-water mark.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB.
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

/// Per-layer metrics of one traced job.
std::map<std::string, double> LayerMetrics(const JobOutcome& job,
                                           const Inputs& inputs,
                                           const std::vector<Span>& all,
                                           const SelectorSet& selectors) {
  std::vector<Span> spans;
  for (const Span& span : all) {
    if (span.start_ns >= job.start_ns && span.end_ns <= job.end_ns) {
      spans.push_back(span);
    }
  }
  std::map<std::string, double> busy;
  for (const Span& span : spans) {
    busy[span.name] += static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
  }
  std::map<std::string, double> self = SelfSecondsByName(spans);

  std::map<std::string, double> m;
  for (std::size_t s = 0; s < job.passes.size(); ++s) {
    const std::string& name = selectors.entries()[s].name;
    const SelectorProbe& probe = job.probes[s];
    reid::UsageStats usage;
    for (const VideoOutcome& video : job.passes[s].videos) {
      usage += video.eval.usage;
    }
    const double inferences = static_cast<double>(usage.TotalInferences());
    const double hits = static_cast<double>(usage.cache_hits);
    m["select." + name + ".busy_s"] =
        static_cast<double>(probe.select_busy_ns) * 1e-9;
    m["select." + name + ".calls"] = static_cast<double>(probe.select_calls);
    m["select." + name + ".box_pairs"] = static_cast<double>(probe.box_pairs);
    m["select." + name + ".ns_per_box_pair"] =
        probe.box_pairs > 0 ? static_cast<double>(probe.select_busy_ns) /
                                  static_cast<double>(probe.box_pairs)
                            : 0.0;
    m["select." + name + ".max_call_ms"] =
        static_cast<double>(probe.select_max_ns) * 1e-6;
    m["reid." + name + ".embed_calls"] = static_cast<double>(probe.embed_calls);
    m["reid." + name + ".embed_busy_s"] =
        static_cast<double>(probe.embed_busy_ns) * 1e-9;
    m["reid." + name + ".inferences"] = inferences;
    m["reid." + name + ".cache_hit_ratio"] =
        hits + inferences > 0.0 ? hits / (hits + inferences) : 0.0;
    m["reid." + name + ".distance_evals"] =
        static_cast<double>(usage.distance_evals);
    if (name == "Gated") {
      const double accepted = static_cast<double>(usage.gate_accepted);
      const double rejected = static_cast<double>(usage.gate_rejected);
      const double ambiguous = static_cast<double>(usage.gate_ambiguous);
      const double total = accepted + rejected + ambiguous;
      m["gate.accepted"] = accepted;
      m["gate.rejected"] = rejected;
      m["gate.ambiguous"] = ambiguous;
      m["gate.ambiguous_share"] = total > 0.0 ? ambiguous / total : 0.0;
    }
  }

  double tracks = 0.0, windows = 0.0, pairs = 0.0, truth = 0.0;
  for (const merge::PreparedVideo& prepared : job.prepared) {
    tracks += static_cast<double>(prepared.tracking.tracks.size());
    windows += static_cast<double>(prepared.windows.size());
    pairs += static_cast<double>(prepared.TotalPairs());
    truth += static_cast<double>(prepared.truth.size());
  }
  double detections = 0.0;
  for (const detect::DetectionSequence& sequence : inputs.detections) {
    for (const detect::DetectionFrame& frame : sequence.frames) {
      detections += static_cast<double>(frame.detections.size());
    }
  }
  double accepted = 0.0, count_answers = 0.0, cooccur_answers = 0.0;
  for (const PassOutcome& pass : job.passes) {
    for (const VideoOutcome& video : pass.videos) {
      accepted += static_cast<double>(video.accepted_pairs);
      count_answers += static_cast<double>(video.count_answers.size());
      cooccur_answers += static_cast<double>(video.cooccur_answers.size());
    }
  }
  m["track.busy_s"] = busy["track"];
  m["track.tracks"] = tracks;
  m["detect.busy_s"] = busy["detect"];
  m["detect.detections"] = detections;
  m["window.busy_s"] = busy["window"];
  m["window.windows"] = windows;
  m["window.pairs"] = pairs;
  m["gt_match.busy_s"] = busy["gt_match"];
  m["gt_match.truth_pairs"] = truth;
  m["merge.busy_s"] = busy["merge"];
  m["merge.accepted_pairs"] = accepted;
  m["query.busy_s"] = busy["query"];
  m["query.count_answers"] = count_answers;
  m["query.cooccur_answers"] = cooccur_answers;
  m["pool.worker_utilization"] =
      job.pool.region_ns > 0
          ? static_cast<double>(job.pool.task_ns) /
                (kWorkers * static_cast<double>(job.pool.region_ns))
          : 0.0;
  m["job.uncovered_share"] = UncoveredShare(
      spans,
      {"detect", "track", "reid.model", "window", "gt_match", "evaluate",
       "merge", "query"},
      job.start_ns, job.end_ns);
  for (const char* layer : {"detect", "track", "reid.model", "window",
                            "gt_match", "evaluate", "select", "merge",
                            "query"}) {
    m[std::string("self.") + layer + "_s"] = self[layer];
  }
  m["self.embed_s"] = 0.0;
  for (std::size_t s = 0; s < job.probes.size(); ++s) {
    m["self.embed_s"] += static_cast<double>(job.probes[s].embed_busy_ns) * 1e-9;
  }
  return m;
}

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.10g", value);
  return buffer;
}

void PrintResult(bool correct, const CheckTally& tally,
                 const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << tally.attempted
      << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out << ", ";
    out << "\"" << metrics[i].name << "\": {\"value\": "
        << FormatNumber(metrics[i].value) << ", \"unit\": \""
        << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

/// Per-layer metric units by name shape.
std::string LayerUnit(const std::string& name) {
  auto ends_with = [&](const char* suffix) {
    std::string s(suffix);
    return name.size() >= s.size() &&
           name.compare(name.size() - s.size(), s.size(), s) == 0;
  };
  if (ends_with("_ms")) return "ms";
  if (ends_with("_s")) return "s";
  if (ends_with("ns_per_box_pair")) return "ns";
  if (ends_with("_ratio") || ends_with("_share") ||
      ends_with("utilization")) {
    return "ratio";
  }
  return "count";
}

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::cerr << "e2e_bench: unknown workload '" << args.workload
              << "'; known:";
    for (const WorkloadSpec& known : Workloads()) std::cerr << " " << known.name;
    std::cerr << "\n";
    return 2;
  }
  std::cout << "e2e_bench: workload=" << spec->name << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace
            << " workers=" << kWorkers << "\n";

  core::ThreadPool pool(kWorkers);
  SelectorSet selectors;

  // Set-up: input generation and construction. Untraced runs repeat it
  // in every round, so that setup_s, a short time, is not set by how busy
  // the host happened to be in the run's first moments.
  std::vector<double> setup_times;
  auto set_up = [&] {
    std::int64_t start = NowNs();
    Inputs built = MakeInputs(*spec, args.seed, pool);
    setup_times.push_back(SecondsSince(start));
    return built;
  };
  const Inputs inputs = set_up();
  const std::int64_t frames = inputs.TotalFrames();
  std::cout << "inputs: " << inputs.videos.size() << " videos, " << frames
            << " frames\n";

  // Serial reference outputs for the checks (outside any timed region).
  CheckTally tally;
  const BatchReference reference = RunSerialReference(inputs, selectors);
  std::size_t gated_index = selectors.entries().size() - 1;
  const std::vector<merge::EvalResult>& gated_reference =
      reference.evals[gated_index];
  std::cout << "pairs per video:";
  for (const merge::PreparedVideo& prepared : reference.prepared) {
    std::cout << " " << prepared.TotalPairs();
  }
  std::cout << "\n";

  // peak_rss_mb is the first batch job's peak: counted from here, past
  // set-up and the serial reference, until that job ends. Later stream
  // runs replay the fleet more often the higher their rate, so a peak over
  // the whole run would depend on how high the staircase climbed.
  if (!ResetPeakRss()) {
    std::cout << "note: peak RSS includes set-up (cannot reset VmHWM)\n";
  }
  double peak_rss_mb = 0.0;
  SpanRecorder recorder;
  const std::int64_t run_start = NowNs();
  std::vector<double> job_times;
  std::vector<double> traced_job_times;
  std::vector<std::map<std::string, double>> traced_layers;
  std::optional<JobOutcome> first_job;
  const std::size_t selector_count = selectors.entries().size();
  // Pass wall-time samples per selector: one per job, and for the short
  // passes one more per round.
  std::vector<std::vector<double>> samples(selector_count);
  std::vector<std::size_t> short_passes;
  auto run_job = [&] {
    JobOutcome job = RunBatchJob(inputs, selectors, pool, /*traced=*/false);
    CheckAgainstReference(job, reference, tally);
    job_times.push_back(job.job_s);
    for (std::size_t s = 0; s < selector_count; ++s) {
      samples[s].push_back(job.passes[s].wall_s);
    }
    if (first_job) return;
    peak_rss_mb = PeakRssMb();
    first_job = std::move(job);
    for (std::size_t s = 0; s < selector_count; ++s) {
      if (samples[s][0] < kExtraPassMaxSeconds) short_passes.push_back(s);
    }
  };

  // Stream runs. Each reference run has percentiles of its own; their
  // median discounts a run that a host scheduling stall hit.
  std::vector<double> ref_p50, ref_p99, ref_drain;
  std::int64_t ref_calls = 0;
  std::int64_t ref_service_ns = 0;
  std::size_t ref_samples = 0;
  // Untraced runs pin the generator to each allowed CPU in turn: the
  // scheduler tends to leave a spinning thread on one CPU for a whole run,
  // and on a shared host the CPUs' speeds differ from moment to moment, so
  // unpinned the latencies of a run would measure whichever CPU it got.
  const std::vector<int> cpus = AllowedCpus();
  std::size_t stream_runs = 0;
  auto next_cpu = [&] {
    return cpus.empty() ? -1 : cpus[stream_runs++ % cpus.size()];
  };
  auto reference_run = [&] {
    StreamRun run = RunStream(*spec, inputs, selectors.gated(), kReferenceFps,
                              false, next_cpu());
    CheckStream(run, gated_reference, tally);
    tally.Expect(HighestReliableFraction(run.latency_ms.size()) >= 0.999,
                 "a reference run has too few calls for a p99.9");
    ref_p50.push_back(Percentile(run.latency_ms, 0.5));
    ref_p99.push_back(run.step.p99_ms);
    ref_drain.push_back(run.drain_s);
    ref_calls += static_cast<std::int64_t>(run.latency_ms.size());
    ref_service_ns += run.service_ns;
    ref_samples = run.latency_ms.size();
  };

  std::optional<StreamRun> traced_stream;
  std::optional<RateStaircase> staircase;
  std::size_t rounds = 0;
  if (args.trace) {
    // Untraced jobs for the outputs to compare against and the tracing
    // overhead, then traced jobs, then one stream run of each kind.
    while (job_times.size() < 2 || SecondsSince(run_start) < args.seconds / 4) {
      run_job();
    }
    SpanRecorder::SetActive(&recorder);
    while (traced_job_times.size() < 2 ||
           SecondsSince(run_start) < args.seconds / 2) {
      JobOutcome job = RunBatchJob(inputs, selectors, pool, /*traced=*/true);
      CheckIdentical(*first_job, job, tally);
      traced_layers.push_back(
          LayerMetrics(job, inputs, recorder.Spans(), selectors));
      traced_job_times.push_back(job.job_s);
    }
    SpanRecorder::SetActive(nullptr);
    reference_run();
    SpanRecorder::SetActive(&recorder);
    traced_stream =
        RunStream(*spec, inputs, selectors.gated(), kReferenceFps, true);
    SpanRecorder::SetActive(nullptr);
    CheckStream(*traced_stream, gated_reference, tally);
  } else {
    // Rounds until --seconds has passed. Each round runs a batch job, one
    // more pass of every short selector, the reference-rate stream runs and
    // the staircase runs, so that every metric's samples spread over the
    // whole run rather than over one stretch of it.
    while (rounds < kMaxRounds &&
           (rounds < kMinRounds || SecondsSince(run_start) < args.seconds)) {
      run_job();
      for (std::size_t s : short_passes) {
        const SelectorSet::Entry& entry = selectors.entries()[s];
        PassOutcome pass = RunPass(inputs, first_job->prepared, entry,
                                   *entry.selector, pool);
        CheckPass(pass, reference.evals[s], tally);
        samples[s].push_back(pass.wall_s);
      }
      for (std::size_t r = 0; r < kReferenceRunsPerRound; ++r) {
        reference_run();
      }
      if (!staircase) {
        // The staircase starts at the capacity the reference runs imply
        // (calls per second of ingest service time).
        const double capacity =
            1e9 * static_cast<double>(ref_calls) /
            static_cast<double>(std::max<std::int64_t>(1, ref_service_ns));
        staircase.emplace(std::max(kReferenceFps, capacity), kStairStep);
      }
      for (std::size_t r = 0; r < kStairRunsPerRound; ++r) {
        const double rate = staircase->rate();
        StreamRun run = RunStream(*spec, inputs, selectors.gated(), rate,
                                  false, next_cpu());
        CheckStream(run, gated_reference, tally);
        const bool held = StepSustained(run.step, kIngestLimitMs);
        staircase->Record(held);
        std::cout << "  rate " << rate << " fps: p99 " << run.step.p99_ms
                  << " ms, achieved " << run.step.achieved_fps << " fps, "
                  << (held ? "held" : "missed") << "\n";
      }
      for (std::size_t k = 0; k < kSetupRoundsPerRound; ++k) set_up();
      ++rounds;
    }
  }
  const double run_s = SecondsSince(run_start);
  const double setup_s = Median(setup_times);
  std::cout << "setup: median " << setup_s << " s of " << setup_times.size()
            << " (IQR/median " << Spread(setup_times) << ")\n";

  const double job_s = Median(job_times);
  std::cout << "batch: " << job_times.size() << " untraced jobs, median "
            << job_s << " s";
  if (args.trace) {
    std::cout << "; " << traced_job_times.size() << " traced jobs, median "
              << Median(traced_job_times) << " s";
  }
  std::cout << "\n";
  std::vector<double> pass_wall;
  for (std::size_t s = 0; s < selector_count; ++s) {
    pass_wall.push_back(Median(samples[s]));
    std::cout << "  " << selectors.entries()[s].name << ": median pass "
              << pass_wall[s] << " s of " << samples[s].size()
              << ", IQR/median " << Spread(samples[s]) << ", "
              << static_cast<double>(frames) / pass_wall[s] << " frames/s\n";
  }
  double recall_tmerge = 0.0;
  double recall_gated = 0.0;
  double sim_fps_tmerge = 0.0;
  for (std::size_t s = 0; s < selector_count; ++s) {
    if (selectors.entries()[s].name == "TMerge") {
      recall_tmerge = first_job->passes[s].Recall();
      sim_fps_tmerge = first_job->passes[s].SimFps();
    }
    if (selectors.entries()[s].name == "Gated") {
      recall_gated = first_job->passes[s].Recall();
    }
  }
  const double sustained_fps = staircase ? staircase->Estimate() : 0.0;
  if (staircase) {
    std::cout << "stream: sustained " << sustained_fps << " fps over "
              << staircase->runs() << " staircase runs (limit p99 <= "
              << kIngestLimitMs << " ms)\n";
  }
  std::cout << "stream: reference " << kReferenceFps << " fps x "
            << ref_p50.size() << " runs of " << ref_samples
            << " calls: median p50 " << Median(ref_p50) << " ms (IQR/median "
            << Spread(ref_p50) << "), p99 " << Median(ref_p99)
            << " ms, drain " << Median(ref_drain) << " s\n";
  std::cout << "run: " << run_s << " s measured";
  if (!args.trace) std::cout << " in " << rounds << " rounds";
  std::cout << " (--seconds " << args.seconds << ")\n";

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics.push_back({"setup_s", setup_s, "s"});
    metrics.push_back({"job_s", job_s, "s"});
    for (std::size_t s = 0; s < selectors.entries().size(); ++s) {
      metrics.push_back({"wall_fps." + selectors.entries()[s].name,
                         static_cast<double>(frames) / pass_wall[s], "1/s"});
    }
    metrics.push_back({"sim_fps.TMerge", sim_fps_tmerge, "1/s"});
    metrics.push_back({"recall.TMerge", recall_tmerge, "ratio"});
    metrics.push_back({"recall.Gated", recall_gated, "ratio"});
    metrics.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
    metrics.push_back({"stream.sustained_fps", sustained_fps, "1/s"});
    metrics.push_back({"stream.ingest_p50_ms", Median(ref_p50), "ms"});
  } else {
    std::map<std::string, double> layers;
    for (const auto& [name, value] : traced_layers.front()) {
      std::vector<double> values;
      for (const auto& job_layers : traced_layers) {
        values.push_back(job_layers.at(name));
      }
      layers[name] = Median(std::move(values));
    }
    const StreamRun& run = *traced_stream;
    std::vector<Span> spans = recorder.Spans();
    double ingest_busy = 0.0;
    for (const Span& span : spans) {
      if (std::string(span.name) == "stream.ingest") {
        ingest_busy += static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
      }
    }
    layers["stream.ingest.busy_s"] = ingest_busy;
    layers["stream.ingest.calls"] = static_cast<double>(run.ingest_calls);
    layers["stream.backpressure_events"] =
        static_cast<double>(run.result.backpressure_events);
    layers["stream.peak_queued_frames"] =
        static_cast<double>(run.result.peak_queued_frames);
    layers["stream.merge_jobs"] = static_cast<double>(run.result.merge_jobs_run);
    layers["stream.merge_jobs_deferred"] =
        static_cast<double>(run.result.director.merge_jobs_deferred);
    layers["stream.force_flushes"] =
        static_cast<double>(run.result.director.force_flushes);
    layers["stream.select.busy_s"] =
        static_cast<double>(run.select_busy_ns) * 1e-9;
    layers["stream.select.calls"] = static_cast<double>(run.select_calls);
    layers["stream.generator_late_ms"] = Percentile(run.late_ms, 0.99);
    layers["stream.ingest_p99_ms"] = run.step.p99_ms;
    layers["stream.ingest_p999_ms"] = run.p999_ms;
    layers["stream.drain_s"] = run.drain_s;
    layers["stream.ingest_samples"] = static_cast<double>(run.latency_ms.size());
    const double traced_job_s = Median(traced_job_times);
    layers["trace.overhead_s"] = traced_job_s - job_s;

    // Self times add up across the two workers, so shares are of their
    // sum, not of job_s.
    double self_total = 0.0;
    for (const auto& [name, value] : layers) {
      if (name.rfind("self.", 0) == 0) self_total += value;
    }
    std::cout << "per-layer self time per job (median of traced jobs):\n";
    for (const auto& [name, value] : layers) {
      if (name.rfind("self.", 0) == 0) {
        std::cout << "  " << name << " = " << value << " s ("
                  << 100.0 * value / self_total << "% of all self time)\n";
      }
    }
    std::cout << "job.uncovered_share = " << layers["job.uncovered_share"]
              << ", tracing overhead = " << layers["trace.overhead_s"]
              << " s per job (traced " << traced_job_s << " s vs untraced "
              << job_s << " s)\n";
    for (const auto& [name, value] : layers) {
      metrics.push_back({name, value, LayerUnit(name)});
    }
    if (!args.trace_out.empty()) {
      std::ofstream file(args.trace_out, std::ios::out | std::ios::trunc);
      file << ChromeTraceJson(spans);
      file.close();
      tally.Expect(file.good(), "writing the trace to " + args.trace_out);
      std::cout << "TRACE_JSON " << args.trace_out << " (" << spans.size()
                << " spans)\n";
    }
  }
  std::cout << "checks: " << tally.attempted << " attempted, " << tally.failed
            << " failed\n";
  PrintResult(tally.failed == 0, tally, metrics);
  return 0;
}

}  // namespace
}  // namespace tmerge::e2ebench

int main(int argc, char** argv) {
  std::optional<tmerge::e2ebench::Args> args =
      tmerge::e2ebench::ParseArgs(argc, argv);
  if (!args) {
    std::cerr << "usage: e2e_bench --workload <name> --seed <n> --seconds "
                 "<s> --trace <0|1> [--trace-out <path>]\n";
    return 2;
  }
  return tmerge::e2ebench::Run(*args);
}
