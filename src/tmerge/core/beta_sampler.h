#ifndef TMERGE_CORE_BETA_SAMPLER_H_
#define TMERGE_CORE_BETA_SAMPLER_H_

#include <cmath>
#include <cstdint>

namespace tmerge::core {

/// Per-shape constants of the Marsaglia–Tsang Gamma(a, 1) squeeze,
/// computed once per shape so a draw costs no sqrt or division. Shapes
/// below 1 are boosted to a + 1 and scaled back by U^(1/a).
struct GammaShape {
  /// Gamma(1, 1), the flat Beta(1, 1) prior's shape.
  GammaShape() : GammaShape(1.0) {}
  /// Requires shape > 0.
  explicit GammaShape(double shape);

  double d;          // a' - 1/3, where a' = a, or a + 1 when boosted.
  double c;          // 1 / sqrt(9 d).
  double inv_shape;  // 1 / a when boosted (a < 1), else 0.
};

namespace internal {

/// 256-layer ziggurat for the standard normal (Marsaglia & Tsang 2000,
/// r = 3.6541528853610088, v = 0.00492867323399). Layer i spans
/// |x| < x[i] over f in [f[i], f[i+1]] with f(x) = exp(-x^2/2); x[0] = v /
/// f(r) is the base strip's equal-area width and x[256] = 0.
struct ZigguratTable {
  static constexpr int kLayers = 256;
  static constexpr double kR = 3.6541528853610088;
  static constexpr double kV = 0.00492867323399;
  double x[kLayers + 1];
  double f[kLayers + 1];
};

/// The process-wide table, built on first use.
const ZigguratTable& Ziggurat();

}  // namespace internal

/// The Thompson-sampling θ stream: a xoshiro256++ engine with a ziggurat
/// normal, a Marsaglia–Tsang Gamma over cached GammaShape constants, and
/// Beta = Gx / (Gx + Gy). Deliberately separate from core::Rng so that
/// drawing θ never shifts any other stream (DESIGN.md §4.1). Not
/// thread-safe; use one sampler per window.
class BetaSampler {
 public:
  /// Expands `seed` into the engine state with splitmix64.
  explicit BetaSampler(std::uint64_t seed);

  /// Next raw 64-bit output of xoshiro256++.
  std::uint64_t Next() {
    const std::uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 random bits.
  double Uniform01() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  /// Standard normal sample. The layer index takes the low 8 bits and the
  /// signed uniform the top 53, so the two never share bits (Doornik 2005).
  double Normal() {
    for (;;) {
      const std::uint64_t bits = Next();
      const unsigned layer = static_cast<unsigned>(bits & 0xFF);
      const double u = static_cast<double>(bits >> 11) * 0x1.0p-52 - 1.0;
      const double x = u * table_->x[layer];
      if (std::fabs(x) < table_->x[layer + 1]) return x;
      double out = 0.0;
      if (NormalEdge(layer, x, &out)) return out;
    }
  }

  /// Gamma(shape, 1) sample.
  double Gamma(const GammaShape& shape) {
    double g = 0.0;
    for (;;) {
      double x = 0.0, t = 0.0;
      do {
        x = Normal();
        t = 1.0 + shape.c * x;
      } while (t <= 0.0);
      const double v = t * t * t;
      const double u = Uniform01();
      const double x2 = x * x;
      // Squeeze acceptance (avoids the log most of the time).
      if (u < 1.0 - 0.0331 * x2 * x2 ||
          (u > 0.0 &&
           std::log(u) < 0.5 * x2 + shape.d * (1.0 - v + std::log(v)))) {
        g = shape.d * v;
        break;
      }
    }
    if (shape.inv_shape == 0.0) return g;
    double u = Uniform01();
    while (u <= 0.0) u = Uniform01();
    return g * std::pow(u, shape.inv_shape);
  }

  /// Beta(alpha, beta) sample via two Gamma draws.
  double Beta(const GammaShape& alpha, const GammaShape& beta) {
    const double x = Gamma(alpha);
    const double y = Gamma(beta);
    const double sum = x + y;
    if (sum <= 0.0) return 0.5;  // Degenerate underflow; split the difference.
    return x / sum;
  }

 private:
  static std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  /// Slow path of Normal() for a point outside layer `layer`'s inner
  /// rectangle: the wedge test, or a fresh tail draw for the base strip.
  /// Returns false when the point is rejected.
  bool NormalEdge(unsigned layer, double x, double* out);

  std::uint64_t s_[4];
  const internal::ZigguratTable* table_;
};

}  // namespace tmerge::core

#endif  // TMERGE_CORE_BETA_SAMPLER_H_
