#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace tmerge::e2ebench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return 0.5 * (values[mid - 1] + values[mid]);
}

double Spread(std::vector<double> values) {
  const std::size_t n = values.size();
  if (n < 2) return 0.0;
  std::sort(values.begin(), values.end());
  auto quartile = [&](std::int64_t i) {
    // Python's exclusive method: position i (n + 1) / 4, 1-based, with the
    // lower neighbour clamped to 1 .. n - 1 and the weight left unclamped.
    const std::int64_t size = static_cast<std::int64_t>(n);
    const std::int64_t j = std::clamp<std::int64_t>(i * (size + 1) / 4, 1,
                                                    size - 1);
    const double delta = static_cast<double>(i * (size + 1) - 4 * j);
    return (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  };
  const double median = Median(values);
  return median != 0.0 ? (quartile(3) - quartile(1)) / median : 0.0;
}

double Percentile(std::vector<double> values, double fraction) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double rank = std::ceil(fraction * static_cast<double>(values.size()));
  std::size_t index = static_cast<std::size_t>(std::max(rank, 1.0));
  return values[std::min(index, values.size()) - 1];
}

double HighestReliableFraction(std::size_t samples) {
  double best = 0.0;
  double tail = 0.5;  // 1 - fraction: 0.5, 0.1, 0.01, ...
  while (static_cast<double>(samples) * tail >= 10.0 - 1e-9) {
    best = 1.0 - tail;
    tail = tail == 0.5 ? 0.1 : tail / 10.0;
  }
  return best;
}

bool BacklogGrows(const std::vector<std::int64_t>& backlog) {
  if (backlog.size() < 8) return false;
  std::size_t quarter = backlog.size() / 4;
  auto mean = [&](std::size_t begin, std::size_t end) {
    double sum = std::accumulate(backlog.begin() + begin,
                                 backlog.begin() + end, 0.0);
    return sum / static_cast<double>(end - begin);
  };
  double second = mean(quarter, 2 * quarter);
  double last = mean(backlog.size() - quarter, backlog.size());
  return last > second + std::max(16.0, 0.25 * second);
}

bool StepSustained(const LadderStep& step, double limit_ms) {
  return step.failed == 0 && step.p99_ms <= limit_ms &&
         !BacklogGrows(step.backlog);
}

void RateStaircase::Record(bool held) {
  rates_.push_back(rate_);
  held_.push_back(held);
  rate_ = held ? rate_ * step_ : rate_ / step_;
}

double RateStaircase::Estimate() const {
  std::size_t first = 1;
  while (first < held_.size() && held_[first] == held_[first - 1]) ++first;
  if (first >= held_.size()) {
    double best = 0.0;
    for (std::size_t i = 0; i < rates_.size(); ++i) {
      if (held_[i]) best = std::max(best, rates_[i]);
    }
    return best;
  }
  double log_sum = 0.0;
  for (std::size_t i = first; i < rates_.size(); ++i) {
    log_sum += std::log(rates_[i]);
  }
  return std::exp(log_sum / static_cast<double>(rates_.size() - first));
}

}  // namespace tmerge::e2ebench
