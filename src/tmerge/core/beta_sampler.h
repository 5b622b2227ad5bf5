#ifndef TMERGE_CORE_BETA_SAMPLER_H_
#define TMERGE_CORE_BETA_SAMPLER_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "tmerge/core/beta.h"

namespace tmerge::core {

/// Per-shape constants of the Marsaglia–Tsang Gamma(a, 1) squeeze,
/// computed once per shape so a draw costs no sqrt or division. Shapes
/// below 1 are boosted to a + 1 and scaled back by U^(1/a).
struct GammaShape {
  /// Gamma(1, 1), the flat Beta(1, 1) prior's shape.
  GammaShape() : GammaShape(1.0) {}
  /// Requires shape > 0.
  explicit GammaShape(double shape);
  /// Reassembles constants cached by BetaShapes.
  GammaShape(double d_in, double c_in, double inv_shape_in)
      : d(d_in), c(c_in), inv_shape(inv_shape_in) {}

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

/// Uniform in [-1, 1) from a word's top 52 bits: they fill the mantissa
/// of a double in [2, 4), and subtracting 3 is exact. The ziggurat layer
/// takes the low 8 bits, so the two never share bits (Doornik 2005).
inline double SignedUnit(std::uint64_t word) {
  const std::uint64_t bits = (word >> 12) | 0x4000000000000000ULL;
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value - 3.0;
}

/// Uniform in [0, 1) from a word's top 52 bits, via a double in [1, 2).
inline double Unit(std::uint64_t word) {
  const std::uint64_t bits = (word >> 12) | 0x3FF0000000000000ULL;
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value - 1.0;
}

/// The second squeeze's constant. With y = c x = t - 1 and d = 1 / (9 c^2),
/// the Marsaglia–Tsang log test accepts iff log(u) < h(x) with
/// h(x) = x^2/2 + d (1 - v + log v) = -c^2 x^4 psi(y) and
/// psi(y) = (1/3) Int_0^1 w^3 / (1 + y w) dw, which decreases in y. For
/// t >= 1/2, psi(y) <= psi(-1/2) = 0.14123, so h(x) > -K c^2 x^4 with
/// K = 0.15, and u < 1 - K c^2 x^4 <= exp(h(x)) accepts exactly as the
/// log test would. Where c is small (large shapes) it is far tighter than
/// the shape-free 1 - 0.0331 x^4, which misses ~10% of Gammas.
inline constexpr double kTightSqueeze = 0.15;

/// splitmix64: expands one seed into a stream of engine-state words.
inline std::uint64_t SplitMix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// How a Gamma's first attempt ended in the block.
enum class FirstAttempt : std::uint8_t {
  kAccepted,  // g = d v is the draw.
  kRejected,  // t <= 0 or the log test rejected: retry on fresh words.
  kOpen,      // A wedge/tail normal or a boosted shape: replay the words.
};

/// A block arm that left the fast path, queued for the scalar resume: the
/// arm, the four words its block drew (S normal, S uniform, F normal,
/// F uniform), and each Gamma's first-attempt outcome and value.
struct ThetaMiss {
  std::size_t arm;
  std::uint64_t words[4];
  double g[2];
  FirstAttempt first[2];
};

}  // namespace internal

/// One xoshiro256++ engine of the θ stream and the exact scalar
/// algorithms a block lane resumes on when it leaves the vector fast path:
/// a ziggurat normal and a Marsaglia–Tsang Gamma, each taking its first
/// attempt's words as arguments so a resume replays the block's attempt
/// bit for bit and continues on fresh words.
class ThetaLane {
 public:
  /// Expands `seed` into the engine state with splitmix64.
  explicit ThetaLane(std::uint64_t seed);
  /// Adopts a raw xoshiro256++ state (not all zero); SaveState is the
  /// inverse. The block sampler keeps its lanes' state outside the class.
  explicit ThetaLane(const std::uint64_t (&state)[4]);
  void SaveState(std::uint64_t (&state)[4]) const;

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

  /// Uniform double in [0, 1) with 52 random bits.
  double Uniform01() { return internal::Unit(Next()); }

  /// Standard normal whose first ziggurat try is `word`. A try outside
  /// its layer's rectangle takes the wedge test or the base strip's tail
  /// draw on fresh words; a rejected try starts over on a fresh word.
  double Normal(std::uint64_t word);

  /// Gamma(shape, 1) whose first Marsaglia–Tsang attempt uses the normal
  /// word `normal_word` and the squeeze uniform `uniform_word`; rejected
  /// attempts redraw both from fresh words, and a boosted shape's
  /// U^(1/a) takes one more fresh word.
  double Gamma(const GammaShape& shape, std::uint64_t normal_word,
               std::uint64_t uniform_word);

 private:
  static std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

/// The Gamma constants of a set of Beta(S, F) arms in SoA layout — the
/// operand of BetaSampler::Draw. Arm i is the i-th live arm; the rows are
/// padded to a multiple of BetaSampler::kLanes with valid shapes so a
/// partial vector block reads initialised memory.
class BetaShapes {
 public:
  std::size_t size() const { return size_; }
  void Clear() { size_ = 0; }
  void PushBack(const BetaPosterior& posterior);
  /// Refreshes arm i from its posterior's current counts.
  void Set(std::size_t i, const BetaPosterior& posterior);
  /// Copies arm `from` into slot `to` (from >= to; compaction).
  void Move(std::size_t from, std::size_t to);
  /// Drops every arm from `size` on.
  void Truncate(std::size_t size) { size_ = size; }

  GammaShape s(std::size_t i) const { return {s_d_[i], s_c_[i], s_inv_[i]}; }
  GammaShape f(std::size_t i) const { return {f_d_[i], f_c_[i], f_inv_[i]}; }

  // Padded rows for the block kernels.
  const double* s_d() const { return s_d_.data(); }
  const double* s_c() const { return s_c_.data(); }
  const double* s_inv() const { return s_inv_.data(); }
  const double* f_d() const { return f_d_.data(); }
  const double* f_c() const { return f_c_.data(); }
  const double* f_inv() const { return f_inv_.data(); }

 private:
  void Store(std::size_t i, const GammaShape& s_shape,
             const GammaShape& f_shape);

  std::size_t size_ = 0;
  std::vector<double> s_d_, s_c_, s_inv_, f_d_, f_c_, f_inv_;
};

/// The Thompson-sampling θ stream (DESIGN.md §4.1): eight xoshiro256++
/// lanes seeded by one splitmix64 expansion of the seed, and a block
/// sampler that draws θ_i ~ Beta(S_i, F_i) for every arm at once, arm i
/// on lane i mod 8. Each arm's fast path takes four words of its lane —
/// a ziggurat normal and a squeeze uniform per Gamma — and accepts when
/// both Gammas pass the inner-rectangle and squeeze tests; an arm that
/// misses resumes the exact scalar algorithm (ThetaLane::Gamma) on its
/// lane after the pass, with its four words replayed and fresh words for
/// the rest, so every θ is exactly Beta-distributed. The AVX2 block and
/// its scalar twin run the same IEEE operations in the same order (no
/// FMA), so θ is bit-identical across kernel levels. Deliberately separate
/// from core::Rng so that drawing θ never shifts any other stream. Not
/// thread-safe; use one sampler per window.
class BetaSampler {
 public:
  static constexpr std::size_t kLanes = 8;

  explicit BetaSampler(std::uint64_t seed);

  /// θ for every arm of `shapes`, valid until the next Draw. Runs the
  /// AVX2 block when CurrentKernelLevel() is at least kAvx2 and the scalar
  /// twin below it; both return the same bits.
  std::span<const double> Draw(const BetaShapes& shapes);

  /// Arms of the last Draw that left the fast path and resumed in scalar.
  std::size_t resumed() const { return misses_.size(); }

  /// Lane l's engine as of now (tests of the per-lane stream).
  ThetaLane Lane(std::size_t l) const;

 private:
  // state_[k][l] is word k of lane l, so the AVX2 block loads four lanes'
  // word k with one aligned load.
  alignas(32) std::uint64_t state_[4][kLanes];
  std::vector<double> theta_;
  std::vector<internal::ThetaMiss> misses_;
};

/// The Thompson arg-min: the position of the smallest θ, ties to the
/// lowest position. Requires a non-empty θ without NaN (Draw never
/// returns one).
std::size_t ArgMinTheta(std::span<const double> theta);

}  // namespace tmerge::core

#endif  // TMERGE_CORE_BETA_SAMPLER_H_
