#ifndef E2EBENCH_HARNESS_STATS_H_
#define E2EBENCH_HARNESS_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tmerge::e2ebench {

/// Median (mean of the two middle values for an even count); 0 when empty.
double Median(std::vector<double> values);

/// (Q3 - Q1) / median, quartiles by the default (exclusive) method of
/// Python's statistics.quantiles; 0 for fewer than two samples.
double Spread(std::vector<double> values);

/// Nearest-rank percentile: the smallest sample with at least
/// ceil(fraction * n) samples at or below it. 0 when empty.
double Percentile(std::vector<double> values, double fraction);

/// The percentile rule for tail latency: of 0.5, 0.9, 0.99, 0.999,
/// 0.9999, ..., the highest fraction that leaves at least 10 samples
/// beyond it (n * (1 - fraction) >= 10). 0 when fewer than 20 samples.
double HighestReliableFraction(std::size_t samples);

/// The outcome of one open-loop stream run at a fixed offered rate.
struct LadderStep {
  double offered_fps = 0.0;
  /// Frames accepted per second of generator wall time.
  double achieved_fps = 0.0;
  /// p99 of the run's ingest latency, ms.
  double p99_ms = 0.0;
  std::size_t samples = 0;
  /// IngestFrame calls that ended kRejected / kDropped.
  std::int64_t failed = 0;
  /// queued_frames() sampled at a fixed call interval through the run.
  std::vector<std::int64_t> backlog;
};

/// True when the backlog trends up: the mean of the last quarter of the
/// samples exceeds the mean of the second quarter by more than
/// max(16 frames, 25%). Fewer than 8 samples never count as growing.
bool BacklogGrows(const std::vector<std::int64_t>& backlog);

/// A run holds the limit when no call failed, p99 meets `limit_ms` and the
/// backlog does not grow.
bool StepSustained(const LadderStep& step, double limit_ms);

/// Up-down staircase over offered rates, for the sustained rate: each run
/// offers the previous run's rate times `step` when that run held the
/// limit and divided by `step` when it missed, so the rates settle around
/// the rate that holds the limit in half of the runs. One run is short and
/// a host stall can fail it; the staircase averages over many.
class RateStaircase {
 public:
  RateStaircase(double start_fps, double step)
      : step_(step), rate_(start_fps) {}

  /// The rate the next run offers.
  double rate() const { return rate_; }
  /// Records the outcome of a run at rate().
  void Record(bool held);
  std::size_t runs() const { return rates_.size(); }
  /// Geometric mean of the rates from the first change of outcome on;
  /// before one, the highest rate that held, or 0 when none did.
  double Estimate() const;

 private:
  double step_;
  double rate_;
  std::vector<double> rates_;
  std::vector<bool> held_;
};

}  // namespace tmerge::e2ebench

#endif  // E2EBENCH_HARNESS_STATS_H_
