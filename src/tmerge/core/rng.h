#ifndef TMERGE_CORE_RNG_H_
#define TMERGE_CORE_RNG_H_

#include <cstdint>
#include <random>
#include <vector>

namespace tmerge::core {

/// Deterministic pseudo-random number generator used by every randomized
/// component in the library. All components take an explicit seed (directly
/// or via an Rng), which makes tests and benches reproducible bit-for-bit.
///
/// This is a thin convenience wrapper over std::mt19937_64 with the sampling
/// helpers the code base needs. Not thread-safe; use one Rng per thread.
class Rng {
 public:
  /// Constructs a generator seeded with `seed`.
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Derives an independent child generator. Useful for giving each
  /// subcomponent its own stream so adding draws in one place does not
  /// perturb another.
  Rng Fork();

  /// Uniform double in [0, 1).
  double Uniform01();

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double Uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi);

  /// Uniform index in [0, n). Requires n > 0.
  std::size_t Index(std::size_t n);

  /// Normal (Gaussian) sample with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  /// Bernoulli trial: true with probability p (clamped to [0, 1]).
  bool Bernoulli(double p);

  /// Poisson sample with the given mean >= 0.
  int Poisson(double mean);

  /// Fisher-Yates shuffle of `values`.
  template <typename T>
  void Shuffle(std::vector<T>& values) {
    for (std::size_t i = values.size(); i > 1; --i) {
      std::size_t j = Index(i);
      using std::swap;
      swap(values[i - 1], values[j]);
    }
  }

  /// Underlying engine, for interoperating with <random> distributions.
  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace tmerge::core

#endif  // TMERGE_CORE_RNG_H_
