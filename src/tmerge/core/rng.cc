#include "tmerge/core/rng.h"

#include "tmerge/core/status.h"

namespace tmerge::core {

Rng Rng::Fork() {
  // Draw a fresh seed; mixing with a large odd constant decorrelates child
  // streams that are forked in sequence.
  std::uint64_t seed = engine_() * 0x9E3779B97F4A7C15ULL + 0x3C6EF372FE94F82AULL;
  return Rng(seed);
}

double Rng::Uniform01() {
  return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
}

double Rng::Uniform(double lo, double hi) {
  TMERGE_CHECK(lo <= hi);
  if (lo == hi) return lo;
  return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

std::int64_t Rng::UniformInt(std::int64_t lo, std::int64_t hi) {
  TMERGE_CHECK(lo <= hi);
  return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
}

std::size_t Rng::Index(std::size_t n) {
  TMERGE_CHECK(n > 0);
  return static_cast<std::size_t>(UniformInt(0, static_cast<std::int64_t>(n) - 1));
}

double Rng::Normal(double mean, double stddev) {
  return std::normal_distribution<double>(mean, stddev)(engine_);
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return std::bernoulli_distribution(p)(engine_);
}

int Rng::Poisson(double mean) {
  TMERGE_CHECK(mean >= 0.0);
  if (mean == 0.0) return 0;
  return std::poisson_distribution<int>(mean)(engine_);
}

}  // namespace tmerge::core
