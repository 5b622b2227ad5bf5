#include "tmerge/core/beta_sampler.h"

#include <algorithm>
#include <cmath>

#include "tmerge/core/kernel_level.h"
#include "tmerge/core/status.h"

// The AVX2 block is multiversioned like the distance kernels
// (core/kernel_level.h). Its target string deliberately excludes "fma",
// and this file is built with -ffp-contract=off (src/CMakeLists.txt): a
// fused mul+add would round differently from the scalar twin.
#if TMERGE_KERNEL_MULTIVERSION
#include <immintrin.h>
#endif

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

// --- ThetaLane: the exact scalar algorithms ------------------------------

namespace {

/// The Marsaglia–Tsang acceptance test proper, for a point both squeezes
/// missed. The block's miss branch and the scalar twin call this one
/// function on the same values, so they decide alike.
inline bool LogTestAccepts(double u, double x2, double v, double d) {
  return u > 0.0 && std::log(u) < 0.5 * x2 + d * (1.0 - v + std::log(v));
}

}  // namespace

ThetaLane::ThetaLane(std::uint64_t seed) {
  for (std::uint64_t& word : s_) word = internal::SplitMix64(seed);
}

ThetaLane::ThetaLane(const std::uint64_t (&state)[4]) {
  std::copy(state, state + 4, s_);
}

void ThetaLane::SaveState(std::uint64_t (&state)[4]) const {
  std::copy(s_, s_ + 4, state);
}

double ThetaLane::Normal(std::uint64_t word) {
  using T = internal::ZigguratTable;
  const T& table = internal::Ziggurat();
  for (;; word = Next()) {
    const unsigned layer = static_cast<unsigned>(word & 0xFF);
    const double x = internal::SignedUnit(word) * table.x[layer];
    if (std::fabs(x) < table.x[layer + 1]) return x;
    if (layer == 0) {
      // Base strip beyond r: an exact tail draw (Marsaglia 1964).
      double a = 0.0, b = 0.0;
      do {
        a = -std::log(1.0 - Uniform01()) / T::kR;
        b = -std::log(1.0 - Uniform01());
      } while (b + b < a * a);
      return x < 0.0 ? -(T::kR + a) : T::kR + a;
    }
    // Wedge: accept under the density between the layer's edges.
    const double y = table.f[layer] +
                     Uniform01() * (table.f[layer + 1] - table.f[layer]);
    if (y < std::exp(-0.5 * x * x)) return x;
  }
}

double ThetaLane::Gamma(const GammaShape& shape, std::uint64_t normal_word,
                        std::uint64_t uniform_word) {
  double g = 0.0;
  for (;; normal_word = Next(), uniform_word = Next()) {
    const double x = Normal(normal_word);
    const double t = 1.0 + shape.c * x;
    if (t <= 0.0) continue;
    const double v = t * t * t;
    const double u = internal::Unit(uniform_word);
    const double x2 = x * x;
    // The squeezes accept without the log (internal::kTightSqueeze).
    if (u < 1.0 - 0.0331 * x2 * x2 ||
        (t >= 0.5 &&
         u < 1.0 - internal::kTightSqueeze * shape.c * shape.c * x2 * x2) ||
        LogTestAccepts(u, x2, v, shape.d)) {
      g = shape.d * v;
      break;
    }
  }
  if (shape.inv_shape == 0.0) return g;
  double u = Uniform01();
  while (u <= 0.0) u = Uniform01();
  return g * std::pow(u, shape.inv_shape);
}

// --- BetaShapes ------------------------------------------------------------

void BetaShapes::PushBack(const BetaPosterior& posterior) {
  if (size_ == s_d_.size()) {
    // Grow by one block of Beta(1, 1) constants: valid padding lanes.
    const GammaShape prior;
    const std::size_t padded = size_ + BetaSampler::kLanes;
    s_d_.resize(padded, prior.d);
    s_c_.resize(padded, prior.c);
    s_inv_.resize(padded, prior.inv_shape);
    f_d_.resize(padded, prior.d);
    f_c_.resize(padded, prior.c);
    f_inv_.resize(padded, prior.inv_shape);
  }
  Store(size_++, GammaShape(posterior.s()), GammaShape(posterior.f()));
}

void BetaShapes::Set(std::size_t i, const BetaPosterior& posterior) {
  TMERGE_DCHECK(i < size_);
  Store(i, GammaShape(posterior.s()), GammaShape(posterior.f()));
}

void BetaShapes::Move(std::size_t from, std::size_t to) {
  TMERGE_DCHECK(to <= from && from < size_);
  Store(to, s(from), f(from));
}

void BetaShapes::Store(std::size_t i, const GammaShape& s_shape,
                       const GammaShape& f_shape) {
  s_d_[i] = s_shape.d;
  s_c_[i] = s_shape.c;
  s_inv_[i] = s_shape.inv_shape;
  f_d_[i] = f_shape.d;
  f_c_[i] = f_shape.c;
  f_inv_[i] = f_shape.inv_shape;
}

// --- BetaSampler: the block fast path and its scalar twin ----------------

namespace {

using internal::FirstAttempt;
using internal::ThetaMiss;
using internal::ZigguratTable;
constexpr std::size_t kLanes = BetaSampler::kLanes;

/// One Gamma's first attempt on its two words, with g = d v: accepted
/// when the normal lands inside its layer's rectangle, t > 0, the shape is
/// not boosted and a squeeze or the log test accepts — ThetaLane::Gamma's
/// first attempt when it needs no further word. FastGamma4 spells the same
/// ops lane-wise up to the squeezes; its block settles squeeze misses with
/// LogTestAccepts, as this does.
inline FirstAttempt FastGamma(std::uint64_t normal_word,
                              std::uint64_t uniform_word, double d, double c,
                              double inv_shape, const ZigguratTable& table,
                              double* g) {
  const unsigned layer = static_cast<unsigned>(normal_word & 0xFF);
  const double x = internal::SignedUnit(normal_word) * table.x[layer];
  const double t = 1.0 + c * x;
  const double u = internal::Unit(uniform_word);
  const double x2 = x * x;
  const double v = t * t * t;
  *g = d * v;
  if (!(std::fabs(x) < table.x[layer + 1]) || inv_shape != 0.0) {
    return FirstAttempt::kOpen;
  }
  const bool accepted =
      t > 0.0 &&
      (u < 1.0 - 0.0331 * x2 * x2 ||
       (t >= 0.5 && u < 1.0 - internal::kTightSqueeze * c * c * x2 * x2) ||
       LogTestAccepts(u, x2, v, d));
  return accepted ? FirstAttempt::kAccepted : FirstAttempt::kRejected;
}

using LaneStates = std::uint64_t[4][kLanes];

// Lane l's engine out of, and back into, the sampler's SoA state.
ThetaLane LoadLane(const LaneStates& state, std::size_t l) {
  const std::uint64_t raw[4] = {state[0][l], state[1][l], state[2][l],
                                state[3][l]};
  return ThetaLane(raw);
}

void StoreLane(LaneStates& state, std::size_t l, const ThetaLane& lane) {
  std::uint64_t raw[4];
  lane.SaveState(raw);
  for (int k = 0; k < 4; ++k) state[k][l] = raw[k];
}

inline double Ratio(double gx, double gy) {
  const double sum = gx + gy;
  return sum > 0.0 ? gx / sum : 0.5;  // Degenerate underflow: split it.
}

/// The scalar twin of FastPassAvx2. Lanes are independent engines, so it
/// walks lane by lane; each lane draws its arms' words in arm order, as
/// the block does.
void FastPassScalar(LaneStates& state,
                    const BetaShapes& shapes, double* theta,
                    std::vector<ThetaMiss>& misses) {
  const ZigguratTable& table = internal::Ziggurat();
  const std::size_t n = shapes.size();
  for (std::size_t l = 0; l < kLanes && l < n; ++l) {
    ThetaLane lane = LoadLane(state, l);
    for (std::size_t i = l; i < n; i += kLanes) {
      // Braced initializers evaluate left to right.
      ThetaMiss draw{
          i, {lane.Next(), lane.Next(), lane.Next(), lane.Next()}, {}, {}};
      draw.first[0] =
          FastGamma(draw.words[0], draw.words[1], shapes.s_d()[i],
                    shapes.s_c()[i], shapes.s_inv()[i], table, &draw.g[0]);
      draw.first[1] =
          FastGamma(draw.words[2], draw.words[3], shapes.f_d()[i],
                    shapes.f_c()[i], shapes.f_inv()[i], table, &draw.g[1]);
      if (draw.first[0] == FirstAttempt::kAccepted &&
          draw.first[1] == FirstAttempt::kAccepted) {
        theta[i] = Ratio(draw.g[0], draw.g[1]);
      } else {
        misses.push_back(draw);
      }
    }
    StoreLane(state, l, lane);
  }
}

#if TMERGE_KERNEL_MULTIVERSION
#define TMERGE_AVX2 __attribute__((target("avx2")))

/// Four xoshiro256++ engines, one per 64-bit lane.
struct Engines4 {
  __m256i s0, s1, s2, s3;
};

template <int k>
TMERGE_AVX2 inline __m256i Rotl4(__m256i x) {
  return _mm256_or_si256(_mm256_slli_epi64(x, k), _mm256_srli_epi64(x, 64 - k));
}

TMERGE_AVX2 inline __m256i Next4(Engines4& e) {
  const __m256i result =
      _mm256_add_epi64(Rotl4<23>(_mm256_add_epi64(e.s0, e.s3)), e.s0);
  const __m256i t = _mm256_slli_epi64(e.s1, 17);
  e.s2 = _mm256_xor_si256(e.s2, e.s0);
  e.s3 = _mm256_xor_si256(e.s3, e.s1);
  e.s1 = _mm256_xor_si256(e.s1, e.s2);
  e.s0 = _mm256_xor_si256(e.s0, e.s3);
  e.s2 = _mm256_xor_si256(e.s2, t);
  e.s3 = Rotl4<45>(e.s3);
  return result;
}

TMERGE_AVX2 inline __m256i Load4(const std::uint64_t* p) {
  return _mm256_load_si256(reinterpret_cast<const __m256i*>(p));
}

TMERGE_AVX2 inline void Store4(std::uint64_t* p, __m256i v) {
  _mm256_store_si256(reinterpret_cast<__m256i*>(p), v);
}

/// Keeps `before` in the lanes `keep` marks (all-ones 64-bit lanes).
TMERGE_AVX2 inline void KeepLanes(Engines4& e, const Engines4& before,
                                  __m256i keep) {
  e.s0 = _mm256_blendv_epi8(e.s0, before.s0, keep);
  e.s1 = _mm256_blendv_epi8(e.s1, before.s1, keep);
  e.s2 = _mm256_blendv_epi8(e.s2, before.s2, keep);
  e.s3 = _mm256_blendv_epi8(e.s3, before.s3, keep);
}

struct Gamma4 {
  __m256d g;
  __m256d fast;      // All-ones where a squeeze accepted.
  __m256d log_test;  // All-ones where only the squeezes missed.
  __m256d open;      // All-ones for FirstAttempt::kOpen.
  __m256d u, x2, v;  // What the log test of a log_test lane reads.
};

/// FastGamma on four lanes, the same IEEE ops in the same order, up to
/// the squeezes; lanes the squeezes miss are marked for LogTestAccepts.
TMERGE_AVX2 inline Gamma4 FastGamma4(__m256i normal_words,
                                     __m256i uniform_words, const double* d,
                                     const double* c, const double* inv_shape,
                                     const double* table_x) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d zero = _mm256_setzero_pd();
  const __m256i layer =
      _mm256_and_si256(normal_words, _mm256_set1_epi64x(0xFF));
  const __m256d signed_unit = _mm256_sub_pd(
      _mm256_castsi256_pd(
          _mm256_or_si256(_mm256_srli_epi64(normal_words, 12),
                          _mm256_set1_epi64x(0x4000000000000000LL))),
      _mm256_set1_pd(3.0));
  const __m256d x =
      _mm256_mul_pd(signed_unit, _mm256_i64gather_pd(table_x, layer, 8));
  const __m256d inner = _mm256_cmp_pd(
      _mm256_andnot_pd(_mm256_set1_pd(-0.0), x),
      _mm256_i64gather_pd(table_x + 1, layer, 8), _CMP_LT_OQ);
  const __m256d t = _mm256_add_pd(one, _mm256_mul_pd(_mm256_loadu_pd(c), x));
  const __m256d u = _mm256_sub_pd(
      _mm256_castsi256_pd(
          _mm256_or_si256(_mm256_srli_epi64(uniform_words, 12),
                          _mm256_set1_epi64x(0x3FF0000000000000LL))),
      one);
  const __m256d x2 = _mm256_mul_pd(x, x);
  const __m256d c4 = _mm256_loadu_pd(c);
  const __m256d loose = _mm256_sub_pd(
      one, _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(0.0331), x2), x2));
  const __m256d tight = _mm256_sub_pd(
      one,
      _mm256_mul_pd(
          _mm256_mul_pd(
              _mm256_mul_pd(
                  _mm256_mul_pd(_mm256_set1_pd(internal::kTightSqueeze), c4),
                  c4),
              x2),
          x2));
  const __m256d squeeze = _mm256_or_pd(
      _mm256_cmp_pd(u, loose, _CMP_LT_OQ),
      _mm256_and_pd(_mm256_cmp_pd(t, _mm256_set1_pd(0.5), _CMP_GE_OQ),
                    _mm256_cmp_pd(u, tight, _CMP_LT_OQ)));
  const __m256d closed = _mm256_and_pd(
      inner, _mm256_cmp_pd(_mm256_loadu_pd(inv_shape), zero, _CMP_EQ_OQ));
  const __m256d attempt =
      _mm256_and_pd(closed, _mm256_cmp_pd(t, zero, _CMP_GT_OQ));
  const __m256d v = _mm256_mul_pd(_mm256_mul_pd(t, t), t);
  return {_mm256_mul_pd(_mm256_loadu_pd(d), v),
          _mm256_and_pd(attempt, squeeze),
          _mm256_andnot_pd(squeeze, attempt),
          _mm256_andnot_pd(closed, _mm256_castsi256_pd(_mm256_set1_epi64x(-1))),
          u,
          x2,
          v};
}

/// A 4-lane mask as bits 4h..4h+3 of an 8-lane block mask.
TMERGE_AVX2 inline unsigned LaneBits(__m256d mask, int h) {
  return static_cast<unsigned>(_mm256_movemask_pd(mask)) << (4 * h);
}

TMERGE_AVX2 inline __m256d Ratio4(__m256d gx, __m256d gy) {
  const __m256d sum = _mm256_add_pd(gx, gy);
  return _mm256_blendv_pd(_mm256_set1_pd(0.5), _mm256_div_pd(gx, sum),
                          _mm256_cmp_pd(sum, _mm256_setzero_pd(),
                                        _CMP_GT_OQ));
}

/// The block's slow branch, for lanes where a Gamma left the squeezes:
/// squeeze-only misses run the log test on the values they have (scalar,
/// as FastGamma does); a lane still missing queues its words and its
/// Gammas' first-attempt outcomes for the resume.
TMERGE_AVX2 void MissBranch(std::size_t base, const __m256i (&words)[4][2],
                            const Gamma4 (&gammas)[2][2],
                            const BetaShapes& shapes, unsigned miss,
                            std::vector<ThetaMiss>& misses) {
  alignas(32) double g[2][kLanes], u[2][kLanes], x2[2][kLanes],
      v[2][kLanes];
  unsigned fast[2] = {0, 0}, log_test[2] = {0, 0}, open[2] = {0, 0};
  for (int k = 0; k < 2; ++k) {
    for (int h = 0; h < 2; ++h) {
      const Gamma4& gamma = gammas[k][h];
      _mm256_store_pd(g[k] + 4 * h, gamma.g);
      _mm256_store_pd(u[k] + 4 * h, gamma.u);
      _mm256_store_pd(x2[k] + 4 * h, gamma.x2);
      _mm256_store_pd(v[k] + 4 * h, gamma.v);
      fast[k] |= LaneBits(gamma.fast, h);
      log_test[k] |= LaneBits(gamma.log_test, h);
      open[k] |= LaneBits(gamma.open, h);
    }
  }
  const double* d[2] = {shapes.s_d() + base, shapes.f_d() + base};
  alignas(32) std::uint64_t raw[4][kLanes];
  for (int k = 0; k < 4; ++k) {
    Store4(raw[k], words[k][0]);
    Store4(raw[k] + 4, words[k][1]);
  }
  do {
    const auto l = static_cast<std::size_t>(__builtin_ctz(miss));
    miss &= miss - 1;
    ThetaMiss draw{base + l,
                   {raw[0][l], raw[1][l], raw[2][l], raw[3][l]},
                   {g[0][l], g[1][l]},
                   {}};
    for (int k = 0; k < 2; ++k) {
      const unsigned bit = 1u << l;
      if ((fast[k] & bit) != 0 ||
          ((log_test[k] & bit) != 0 &&
           LogTestAccepts(u[k][l], x2[k][l], v[k][l], d[k][l]))) {
        draw.first[k] = FirstAttempt::kAccepted;
      } else {
        draw.first[k] = (open[k] & bit) != 0 ? FirstAttempt::kOpen
                                             : FirstAttempt::kRejected;
      }
    }
    if (draw.first[0] != FirstAttempt::kAccepted ||
        draw.first[1] != FirstAttempt::kAccepted) {
      misses.push_back(draw);
    }
  } while (miss != 0);
}

/// The 8-lane block: lanes 0-3 ride `lo`, 4-7 `hi`. A partial last block
/// computes all eight lanes but keeps the padded lanes' engines unmoved
/// and never queues them, so it matches the scalar twin bit for bit.
TMERGE_AVX2 void FastPassAvx2(LaneStates& state,
                              const BetaShapes& shapes, double* theta,
                              std::vector<ThetaMiss>& misses) {
  Engines4 lo{Load4(state[0]), Load4(state[1]), Load4(state[2]), Load4(state[3])};
  Engines4 hi{Load4(state[0] + 4), Load4(state[1] + 4), Load4(state[2] + 4),
              Load4(state[3] + 4)};
  const double* table_x = internal::Ziggurat().x;
  const std::size_t n = shapes.size();
  for (std::size_t base = 0; base < n; base += kLanes) {
    const Engines4 lo_before = lo, hi_before = hi;
    __m256i words[4][2];
    for (auto& word : words) {
      word[0] = Next4(lo);
      word[1] = Next4(hi);
    }
    Gamma4 gammas[2][2];  // [S, F][lo, hi]
    unsigned ok = 0;
    for (int h = 0; h < 2; ++h) {
      const std::size_t i = base + 4 * static_cast<std::size_t>(h);
      const Gamma4& gx = gammas[0][h] = FastGamma4(
          words[0][h], words[1][h], shapes.s_d() + i, shapes.s_c() + i,
          shapes.s_inv() + i, table_x);
      const Gamma4& gy = gammas[1][h] = FastGamma4(
          words[2][h], words[3][h], shapes.f_d() + i, shapes.f_c() + i,
          shapes.f_inv() + i, table_x);
      // Squeeze misses the log test accepts keep this θ: g = d v either way.
      _mm256_storeu_pd(theta + i, Ratio4(gx.g, gy.g));
      ok |= LaneBits(_mm256_and_pd(gx.fast, gy.fast), h);
    }
    const std::size_t active = std::min(kLanes, n - base);
    if (active < kLanes) {
      const __m256i live = _mm256_set1_epi64x(static_cast<long long>(active));
      KeepLanes(lo, lo_before,
                _mm256_cmpgt_epi64(_mm256_set_epi64x(4, 3, 2, 1), live));
      KeepLanes(hi, hi_before,
                _mm256_cmpgt_epi64(_mm256_set_epi64x(8, 7, 6, 5), live));
      ok |= ~((1u << active) - 1u);
    }
    unsigned miss = ~ok & 0xFFu;
    if (miss != 0) MissBranch(base, words, gammas, shapes, miss, misses);
  }
  Store4(state[0], lo.s0);
  Store4(state[1], lo.s1);
  Store4(state[2], lo.s2);
  Store4(state[3], lo.s3);
  Store4(state[0] + 4, hi.s0);
  Store4(state[1] + 4, hi.s1);
  Store4(state[2] + 4, hi.s2);
  Store4(state[3] + 4, hi.s3);
}

#undef TMERGE_AVX2
#endif  // TMERGE_KERNEL_MULTIVERSION

}  // namespace

BetaSampler::BetaSampler(std::uint64_t seed) {
  for (std::size_t l = 0; l < kLanes; ++l) {
    for (auto& word : state_) word[l] = internal::SplitMix64(seed);
  }
}

ThetaLane BetaSampler::Lane(std::size_t l) const {
  TMERGE_CHECK(l < kLanes);
  return LoadLane(state_, l);
}

std::span<const double> BetaSampler::Draw(const BetaShapes& shapes) {
  const std::size_t n = shapes.size();
  theta_.resize((n + kLanes - 1) / kLanes * kLanes);
  misses_.clear();
#if TMERGE_KERNEL_MULTIVERSION
  if (CurrentKernelLevel() >= KernelLevel::kAvx2) {
    FastPassAvx2(state_, shapes, theta_.data(), misses_);
  } else {
    FastPassScalar(state_, shapes, theta_.data(), misses_);
  }
#else
  FastPassScalar(state_, shapes, theta_.data(), misses_);
#endif
  // Resume every miss on its own lane after the pass, Gamma by Gamma: an
  // accepted first attempt keeps its value, a rejected one retries on
  // fresh words, an open one (edge test pending, or boosted) replays its
  // words. Lanes are independent and each lane's misses come in arm
  // order on both paths.
  for (const ThetaMiss& miss : misses_) {
    const std::size_t l = miss.arm % kLanes;
    ThetaLane lane = LoadLane(state_, l);
    double g[2] = {miss.g[0], miss.g[1]};
    for (int k = 0; k < 2; ++k) {
      const GammaShape shape = k == 0 ? shapes.s(miss.arm) : shapes.f(miss.arm);
      switch (miss.first[k]) {
        case FirstAttempt::kAccepted:
          break;
        case FirstAttempt::kRejected: {
          const std::uint64_t normal_word = lane.Next();
          const std::uint64_t uniform_word = lane.Next();
          g[k] = lane.Gamma(shape, normal_word, uniform_word);
          break;
        }
        case FirstAttempt::kOpen:
          g[k] = lane.Gamma(shape, miss.words[2 * k], miss.words[2 * k + 1]);
          break;
      }
    }
    StoreLane(state_, l, lane);
    theta_[miss.arm] = Ratio(g[0], g[1]);
  }
  return {theta_.data(), n};
}

std::size_t ArgMinTheta(std::span<const double> theta) {
  TMERGE_DCHECK(!theta.empty());
  // The running minimum stays in a register; re-reading theta[best] each
  // step would put a load on the loop's critical path.
  std::size_t best = 0;
  double lowest = theta[0];
  for (std::size_t i = 1; i < theta.size(); ++i) {
    if (theta[i] < lowest) {
      lowest = theta[i];
      best = i;
    }
  }
  return best;
}

}  // namespace tmerge::core
