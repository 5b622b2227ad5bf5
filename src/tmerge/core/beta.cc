#include "tmerge/core/beta.h"

#include "tmerge/core/status.h"

namespace tmerge::core {

BetaPosterior::BetaPosterior(double s, double f)
    : s_(s), f_(f), s_shape_(s), f_shape_(f) {}

void BetaPosterior::Observe(bool r) {
  if (r) {
    s_ += 1.0;
    s_shape_ = GammaShape(s_);
  } else {
    f_ += 1.0;
    f_shape_ = GammaShape(f_);
  }
}

void BetaPosterior::AddPseudoCounts(double s, double f) {
  TMERGE_CHECK(s >= 0.0 && f >= 0.0);
  s_ += s;
  f_ += f;
  s_shape_ = GammaShape(s_);
  f_shape_ = GammaShape(f_);
}

double BetaPosterior::Variance() const {
  double n = s_ + f_;
  return s_ * f_ / (n * n * (n + 1.0));
}

}  // namespace tmerge::core
