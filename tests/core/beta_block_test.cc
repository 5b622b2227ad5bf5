// Bit-identity of the θ block sampler (core::BetaSampler::Draw) at every
// supported kernel level against a spec written out here: arm i draws four
// words on lane i mod 8 in arm order, keeps θ when both Gammas' first
// attempts land inside the rectangle with t > 0 on an unboosted shape and
// a squeeze or the log test accepts, and otherwise resumes after the pass,
// in arm order per lane, on ThetaLane::Gamma with its four words replayed. The
// shape grid forces every way off the fast path, and the test asserts
// each one fired.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tmerge/core/beta.h"
#include "tmerge/core/beta_sampler.h"
#include "tmerge/core/kernel_level.h"

namespace tmerge::core {
namespace {

/// Why a first attempt left the fast path (or did not).
struct PathCounts {
  std::int64_t fast = 0;           // Settled in the block.
  std::int64_t tight_squeeze = 0;  // Only the second squeeze accepted.
  std::int64_t base_tail = 0;    // Layer 0, |x| >= r: the tail draw.
  std::int64_t wedge = 0;        // Layers 1-255 outside the rectangle.
  std::int64_t t_nonpositive = 0;
  std::int64_t log_accept = 0;   // Squeeze miss the log test accepts.
  std::int64_t log_reject = 0;   // Squeeze miss the log test rejects.
  std::int64_t boosted = 0;      // Shape < 1: U^(1/a) needs a word.
};

/// Classifies one Gamma's first attempt from its two words; true, with
/// g, when the block settles it: inside the rectangle, t > 0, a squeeze
/// or the log test accepts, and the shape is not boosted.
bool FirstAttempt(std::uint64_t normal_word, std::uint64_t uniform_word,
                  const GammaShape& shape, PathCounts& counts, double* g) {
  const internal::ZigguratTable& table = internal::Ziggurat();
  const unsigned layer = static_cast<unsigned>(normal_word & 0xFF);
  const double x = internal::SignedUnit(normal_word) * table.x[layer];
  if (!(std::fabs(x) < table.x[layer + 1])) {
    ++(layer == 0 ? counts.base_tail : counts.wedge);
    return false;
  }
  const double t = 1.0 + shape.c * x;
  if (!(t > 0.0)) {
    ++counts.t_nonpositive;
    return false;
  }
  const double v = t * t * t;
  const double u = internal::Unit(uniform_word);
  const double x2 = x * x;
  const bool loose = u < 1.0 - 0.0331 * x2 * x2;
  const bool tight =
      t >= 0.5 &&
      u < 1.0 - internal::kTightSqueeze * shape.c * shape.c * x2 * x2;
  bool accepted = loose || tight;
  if (!accepted) {
    // Both squeezes missed: the block settles it with the log test.
    accepted =
        u > 0.0 && std::log(u) < 0.5 * x2 + shape.d * (1.0 - v + std::log(v));
    ++(accepted ? counts.log_accept : counts.log_reject);
    if (!accepted) return false;
  }
  if (shape.inv_shape != 0.0) {
    ++counts.boosted;
    return false;
  }
  ++counts.fast;
  if (!loose && tight) ++counts.tight_squeeze;
  *g = shape.d * v;
  return true;
}

double Ratio(double gx, double gy) {
  const double sum = gx + gy;
  return sum > 0.0 ? gx / sum : 0.5;
}

/// The spec: one Draw of `shapes` from lanes in `sampler`'s current state.
/// Returns θ and the number of arms resumed.
std::vector<double> SpecDraw(const BetaSampler& sampler,
                             const BetaShapes& shapes, PathCounts& counts,
                             std::size_t* resumed) {
  std::vector<ThetaLane> lanes;
  for (std::size_t l = 0; l < BetaSampler::kLanes; ++l) {
    lanes.push_back(sampler.Lane(l));
  }
  struct Pending {
    std::size_t arm;
    std::uint64_t words[4];
  };
  std::vector<Pending> misses;
  std::vector<double> theta(shapes.size());
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    ThetaLane& lane = lanes[i % BetaSampler::kLanes];
    Pending draw{i, {}};
    for (std::uint64_t& word : draw.words) word = lane.Next();
    double gx = 0.0, gy = 0.0;
    // Classify both Gammas, so each path's count is complete.
    const bool ok_x =
        FirstAttempt(draw.words[0], draw.words[1], shapes.s(i), counts, &gx);
    const bool ok_y =
        FirstAttempt(draw.words[2], draw.words[3], shapes.f(i), counts, &gy);
    if (ok_x && ok_y) {
      theta[i] = Ratio(gx, gy);
    } else {
      misses.push_back(draw);
    }
  }
  for (const Pending& miss : misses) {
    ThetaLane& lane = lanes[miss.arm % BetaSampler::kLanes];
    const double gx =
        lane.Gamma(shapes.s(miss.arm), miss.words[0], miss.words[1]);
    const double gy =
        lane.Gamma(shapes.f(miss.arm), miss.words[2], miss.words[3]);
    theta[miss.arm] = Ratio(gx, gy);
  }
  *resumed = misses.size();
  return theta;
}

/// Shapes cycling through boosted (0.3, 0.5), the prior's 1 (whose
/// c = 0.41 lets t fall to 0 beyond x = -2.45), small and large counts.
BetaShapes GridShapes(std::size_t n) {
  constexpr double kGrid[] = {1.0, 0.5, 2.0, 1.0, 40.0, 0.3, 10000.0, 3.0};
  constexpr std::size_t kSize = std::size(kGrid);
  BetaShapes shapes;
  for (std::size_t i = 0; i < n; ++i) {
    shapes.PushBack(
        BetaPosterior(kGrid[i % kSize], kGrid[(i / kSize + 3 * i) % kSize]));
  }
  return shapes;
}

/// Restores the session's kernel level on scope exit; tests pin each level
/// with SetKernelLevel in between.
class ScopedKernelLevel {
 public:
  ScopedKernelLevel() : saved_(CurrentKernelLevel()) {}
  ~ScopedKernelLevel() { SetKernelLevel(saved_); }

 private:
  KernelLevel saved_;
};

std::vector<std::size_t> ArmCounts() {
  std::vector<std::size_t> counts;
  for (std::size_t n = 1; n <= 17; ++n) counts.push_back(n);
  counts.push_back(257);
  counts.push_back(1600);
  return counts;
}

TEST(BetaBlockTest, EveryLevelMatchesSpecBitForBit) {
  ScopedKernelLevel restore;
  PathCounts counts;
  for (KernelLevel level : SupportedKernelLevels()) {
    for (std::size_t n : ArmCounts()) {
      ASSERT_TRUE(SetKernelLevel(level));
      const BetaShapes shapes = GridShapes(n);
      BetaSampler sampler(0xB10C + n);
      const int rounds = n >= 257 ? 60 : 200;
      for (int r = 0; r < rounds; ++r) {
        std::size_t spec_resumed = 0;
        const std::vector<double> spec =
            SpecDraw(sampler, shapes, counts, &spec_resumed);
        const std::span<const double> theta = sampler.Draw(shapes);
        const std::string where = std::string(KernelLevelName(level)) +
                                  " n=" + std::to_string(n) +
                                  " round=" + std::to_string(r);
        ASSERT_EQ(theta.size(), n) << where;
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(theta[i], spec[i]) << where << " arm=" << i;
        }
        ASSERT_EQ(sampler.resumed(), spec_resumed) << where;
      }
      // The lanes end where the spec's do, padded lanes included.
      ASSERT_TRUE(SetKernelLevel(KernelLevel::kScalar));
      BetaSampler replay(0xB10C + n);
      for (int r = 0; r < rounds; ++r) replay.Draw(shapes);
      for (std::size_t l = 0; l < BetaSampler::kLanes; ++l) {
        EXPECT_EQ(sampler.Lane(l).Next(), replay.Lane(l).Next())
            << KernelLevelName(level) << " n=" << n << " lane=" << l;
      }
    }
  }
  EXPECT_GT(counts.fast, 0);
  EXPECT_GT(counts.tight_squeeze, 0);
  EXPECT_GT(counts.base_tail, 0);
  EXPECT_GT(counts.wedge, 0);
  EXPECT_GT(counts.t_nonpositive, 0);
  EXPECT_GT(counts.log_accept, 0);
  EXPECT_GT(counts.log_reject, 0);
  EXPECT_GT(counts.boosted, 0);
}

// A partial block must leave its padded lanes' engines untouched: drawing
// n < 8 arms advances lanes 0..n-1 only.
TEST(BetaBlockTest, PaddedLanesKeepTheirEngines) {
  ScopedKernelLevel restore;
  for (KernelLevel level : SupportedKernelLevels()) {
    ASSERT_TRUE(SetKernelLevel(level));
    for (std::size_t n = 0; n < BetaSampler::kLanes; ++n) {
      BetaSampler sampler(77);
      const BetaSampler untouched(77);
      const BetaShapes shapes = GridShapes(n);
      EXPECT_EQ(sampler.Draw(shapes).size(), n);
      for (std::size_t l = n; l < BetaSampler::kLanes; ++l) {
        EXPECT_EQ(sampler.Lane(l).Next(), untouched.Lane(l).Next())
            << KernelLevelName(level) << " n=" << n << " lane=" << l;
      }
    }
  }
}

// The selector's shapes (S, F >= 1) rarely leave the fast path: the
// shape-free squeeze alone misses E[min(1, 0.0331 x^4)] ~ 10% of Gammas,
// the second squeeze takes most of those back, and what is left — a
// squeeze miss the log test settles, or a redraw (wedge, tail, t <= 0,
// log reject) — stays a few percent.
TEST(BetaBlockTest, PosteriorShapesRarelyLeaveTheFastPath) {
  BetaShapes shapes;
  for (int i = 0; i < 257; ++i) {
    shapes.PushBack(BetaPosterior(1.0 + i % 40, 1.0 + i % 60));
  }
  BetaSampler sampler(2024);
  PathCounts counts;
  std::size_t resumed = 0;
  constexpr int kRounds = 400;
  for (int r = 0; r < kRounds; ++r) {
    std::size_t spec_resumed = 0;
    SpecDraw(sampler, shapes, counts, &spec_resumed);
    sampler.Draw(shapes);
    ASSERT_EQ(sampler.resumed(), spec_resumed);
    resumed += spec_resumed;
  }
  const double gammas = 2.0 * kRounds * 257.0;
  auto share = [&](std::int64_t count) {
    return static_cast<double>(count) / gammas;
  };
  EXPECT_GT(share(counts.tight_squeeze), 0.05);
  EXPECT_LT(share(counts.log_accept + counts.log_reject), 0.03);
  EXPECT_LT(share(counts.wedge + counts.base_tail + counts.t_nonpositive), 0.03);
  EXPECT_EQ(counts.boosted, 0);
  EXPECT_GT(resumed, 0u);
  EXPECT_LT(static_cast<double>(resumed) / (kRounds * 257.0), 0.08);
}

// The arg-min is the first position of the minimum, ties included.
TEST(BetaBlockTest, ArgMinIsTheFirstMinimum) {
  BetaSampler sampler(99);
  for (std::size_t n : ArmCounts()) {
    const BetaShapes shapes = GridShapes(n);
    for (int r = 0; r < 20; ++r) {
      const std::span<const double> drawn = sampler.Draw(shapes);
      std::vector<double> theta(drawn.begin(), drawn.end());
      if (r % 2 == 1) {
        // A tie at the minimum: copy it to a later and an earlier spot.
        std::size_t first = 0;
        for (std::size_t i = 1; i < n; ++i) {
          if (theta[i] < theta[first]) first = i;
        }
        theta[(first + n / 2) % n] = theta[first];
        theta[first / 2] = theta[first];
      }
      const std::size_t expected = static_cast<std::size_t>(
          std::min_element(theta.begin(), theta.end()) - theta.begin());
      EXPECT_EQ(ArgMinTheta(theta), expected) << "n=" << n << " round=" << r;
    }
  }
}

// psi(y) = (1/3) Int_0^1 w^3 / (1 + y w) dw by composite Simpson; smooth
// for y >= -1/2.
double Psi(double y) {
  constexpr int kIntervals = 2000;
  auto f = [y](double w) { return w * w * w / (1.0 + y * w); };
  double sum = f(0.0) + f(1.0);
  for (int i = 1; i < kIntervals; ++i) {
    sum += (i % 2 == 1 ? 4.0 : 2.0) * f(static_cast<double>(i) / kIntervals);
  }
  return sum / (3.0 * kIntervals) / 3.0;
}

// The second squeeze's lemma (internal::kTightSqueeze): psi decreases, so
// for t >= 1/2 it stays at or below psi(-1/2) = 0.14123 < K, and
// 1 - K c^2 x^4 <= exp(-c^2 x^4 psi(y)) = exp(h(x)).
TEST(BetaBlockTest, TightSqueezeBoundHolds) {
  EXPECT_NEAR(Psi(-0.5), 0.14123, 1e-5);
  EXPECT_NEAR(Psi(0.0), 1.0 / 12.0, 1e-12);
  double previous = Psi(-0.5);
  EXPECT_LT(previous, internal::kTightSqueeze);
  for (int i = 1; i <= 400; ++i) {
    const double psi = Psi(-0.5 + i * 0.01);
    EXPECT_LT(psi, previous) << "y " << -0.5 + i * 0.01;
    previous = psi;
  }
}

// And in floating point, where the log test is well conditioned: at every
// grid point the second squeeze accepts, the log test accepts too. (For
// shapes in the thousands the log test's d (1 - v + log v) cancels to
// noise, and the lemma above is the reference.)
TEST(BetaBlockTest, TightSqueezeNeverAcceptsWhatTheLogTestRejects) {
  for (double shape : {1.0, 1.5, 2.0, 3.0, 10.0, 40.0}) {
    const GammaShape g(shape);
    for (int i = -4000; i <= 4000; ++i) {
      const double x = i * (internal::ZigguratTable::kR / 4000.0);
      const double t = 1.0 + g.c * x;
      if (t < 0.5) continue;
      const double v = t * t * t;
      const double x2 = x * x;
      const double bound =
          1.0 - internal::kTightSqueeze * g.c * g.c * x2 * x2;
      if (bound <= 0.0) continue;
      // The largest u the squeeze accepts, against the log test.
      const double u = std::nextafter(bound, 0.0);
      EXPECT_LT(std::log(u), 0.5 * x2 + g.d * (1.0 - v + std::log(v)))
          << "shape " << shape << " x " << x;
    }
  }
}

}  // namespace
}  // namespace tmerge::core
