#ifndef TMERGE_CORE_BETA_H_
#define TMERGE_CORE_BETA_H_

namespace tmerge::core {

/// A Beta(S, F) posterior over a Bernoulli success probability, used by the
/// TMerge Thompson-sampling loop (paper §IV-B). `S` counts observed
/// successes (Bernoulli output r = 1) and `F` failures (r = 0); the
/// distribution is the conjugate posterior after those observations starting
/// from the prior encoded in the initial (S, F). Thompson samples of it
/// come from core::BetaSampler over its BetaShapes constants.
///
/// In TMerge a *lower* mean means "BBox contents look more alike", because
/// the Bernoulli success probability is the normalized ReID distance.
class BetaPosterior {
 public:
  /// Constructs the uninformative prior Beta(1, 1).
  BetaPosterior() : s_(1.0), f_(1.0) {}
  /// Constructs Beta(s, f); both shape parameters must be positive.
  BetaPosterior(double s, double f);

  /// Records a Bernoulli observation: r = true increments S, else F.
  void Observe(bool r);

  /// Adds pseudo-counts directly (used by BetaInit, Algorithm 3).
  void AddPseudoCounts(double s, double f);

  /// Posterior mean S / (S + F).
  double Mean() const { return s_ / (s_ + f_); }

  /// Posterior variance SF / ((S+F)^2 (S+F+1)).
  double Variance() const;

  double s() const { return s_; }
  double f() const { return f_; }

  /// Total number of recorded observations beyond the Beta(1,1) prior mass.
  double observation_count() const { return s_ + f_ - 2.0; }

 private:
  double s_;
  double f_;
};

}  // namespace tmerge::core

#endif  // TMERGE_CORE_BETA_H_
