#include "tmerge/core/beta_sampler.h"

#include "tmerge/core/status.h"

namespace tmerge::core {

GammaShape::GammaShape(double shape)
    : d((shape < 1.0 ? shape + 1.0 : shape) - 1.0 / 3.0),
      c(1.0 / std::sqrt(9.0 * d)),
      inv_shape(shape < 1.0 ? 1.0 / shape : 0.0) {
  TMERGE_CHECK(shape > 0.0);
}

namespace internal {
namespace {

ZigguratTable BuildZiggurat() {
  using T = ZigguratTable;
  ZigguratTable table;
  const double f_r = std::exp(-0.5 * T::kR * T::kR);
  table.x[0] = T::kV / f_r;
  table.x[1] = T::kR;
  for (int i = 1; i < T::kLayers - 1; ++i) {
    const double prev = table.x[i];
    table.x[i + 1] =
        std::sqrt(-2.0 * std::log(T::kV / prev + std::exp(-0.5 * prev * prev)));
  }
  table.x[T::kLayers] = 0.0;
  for (int i = 0; i <= T::kLayers; ++i) {
    table.f[i] = std::exp(-0.5 * table.x[i] * table.x[i]);
  }
  return table;
}

}  // namespace

const ZigguratTable& Ziggurat() {
  static const ZigguratTable table = BuildZiggurat();
  return table;
}

}  // namespace internal

BetaSampler::BetaSampler(std::uint64_t seed) : table_(&internal::Ziggurat()) {
  for (std::uint64_t& word : s_) {
    seed += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = seed;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    word = z ^ (z >> 31);
  }
}

bool BetaSampler::NormalEdge(unsigned layer, double x, double* out) {
  using T = internal::ZigguratTable;
  if (layer == 0) {
    // Base strip beyond r: an exact tail draw (Marsaglia 1964).
    double a = 0.0, b = 0.0;
    do {
      a = -std::log(1.0 - Uniform01()) / T::kR;
      b = -std::log(1.0 - Uniform01());
    } while (b + b < a * a);
    *out = x < 0.0 ? -(T::kR + a) : T::kR + a;
    return true;
  }
  const double y =
      table_->f[layer] + Uniform01() * (table_->f[layer + 1] - table_->f[layer]);
  *out = x;
  return y < std::exp(-0.5 * x * x);
}

}  // namespace tmerge::core
