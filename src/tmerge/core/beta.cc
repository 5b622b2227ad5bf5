#include "tmerge/core/beta.h"

#include "tmerge/core/status.h"

namespace tmerge::core {

BetaPosterior::BetaPosterior(double s, double f)
    : s_(s), f_(f) {
  TMERGE_CHECK(s > 0.0 && f > 0.0);
}

void BetaPosterior::Observe(bool r) {
  if (r) {
    s_ += 1.0;
  } else {
    f_ += 1.0;
  }
}

void BetaPosterior::AddPseudoCounts(double s, double f) {
  TMERGE_CHECK(s >= 0.0 && f >= 0.0);
  s_ += s;
  f_ += f;
}

double BetaPosterior::Variance() const {
  double n = s_ + f_;
  return s_ * f_ / (n * n * (n + 1.0));
}

}  // namespace tmerge::core
