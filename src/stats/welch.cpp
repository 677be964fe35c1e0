#include "stats/welch.hpp"

#include <cmath>
#include <limits>

#include "stats/descriptive.hpp"

namespace booterscope::stats {

namespace {

/// log Gamma via the Lanczos approximation (g = 7, n = 9).
[[nodiscard]] double log_gamma(double x) noexcept {
  static constexpr double kCoefficients[] = {
      0.99999999999980993,  676.5203681218851,   -1259.1392167224028,
      771.32342877765313,   -176.61502916214059, 12.507343278686905,
      -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7};
  if (x < 0.5) {
    // Reflection formula.
    return std::log(M_PI / std::sin(M_PI * x)) - log_gamma(1.0 - x);
  }
  x -= 1.0;
  double acc = kCoefficients[0];
  const double t = x + 7.5;
  for (int i = 1; i < 9; ++i) acc += kCoefficients[i] / (x + static_cast<double>(i));
  return 0.5 * std::log(2.0 * M_PI) + (x + 0.5) * std::log(t) - t + std::log(acc);
}

/// Continued fraction for the incomplete beta function (Numerical Recipes
/// betacf), evaluated with the modified Lentz algorithm.
[[nodiscard]] double beta_continued_fraction(double a, double b, double x) noexcept {
  constexpr int kMaxIterations = 300;
  constexpr double kEpsilon = 3e-14;
  constexpr double kTiny = 1e-300;

  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < kTiny) d = kTiny;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIterations; ++m) {
    const auto m_d = static_cast<double>(m);
    const double m2 = 2.0 * m_d;
    double aa = m_d * (b - m_d) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m_d) * (qab + m_d) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEpsilon) break;
  }
  return h;
}

/// P(T > |t|) for Student's t with `df` degrees of freedom, straight from
/// the incomplete beta: deriving it as 1 - cdf cancels to 0 once the tail
/// falls below the double epsilon.
[[nodiscard]] double student_t_tail(double t, double df) noexcept {
  return 0.5 * incomplete_beta(df / 2.0, 0.5, df / (df + t * t));
}

}  // namespace

double incomplete_beta(double a, double b, double x) noexcept {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double log_beta =
      log_gamma(a + b) - log_gamma(a) - log_gamma(b) + a * std::log(x) +
      b * std::log(1.0 - x);
  const double front = std::exp(log_beta);
  // Use the symmetry relation to pick the rapidly converging branch.
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * beta_continued_fraction(a, b, x) / a;
  }
  return 1.0 - std::exp(log_gamma(a + b) - log_gamma(a) - log_gamma(b) +
                        b * std::log(1.0 - x) + a * std::log(x)) *
                   beta_continued_fraction(b, a, 1.0 - x) / b;
}

double student_t_cdf(double t, double df) noexcept {
  if (df <= 0.0) return 0.5;
  if (std::isinf(t)) return t > 0 ? 1.0 : 0.0;
  const double tail = student_t_tail(t, df);
  return t >= 0.0 ? 1.0 - tail : tail;
}

WelchResult welch_t_test(std::span<const double> before,
                         std::span<const double> after) noexcept {
  RunningStats stats_before;
  RunningStats stats_after;
  for (const double v : before) stats_before.add(v);
  for (const double v : after) stats_after.add(v);
  return welch_t_test_from_stats(stats_before, stats_after);
}

WelchResult welch_t_test_from_stats(const RunningStats& stats_before,
                                    const RunningStats& stats_after) noexcept {
  WelchResult result;
  result.mean_before = stats_before.mean();
  result.mean_after = stats_after.mean();
  if (stats_before.count() < 2 || stats_after.count() < 2) return result;

  const double var1 = stats_before.variance();
  const double var2 = stats_after.variance();
  const auto n1 = static_cast<double>(stats_before.count());
  const auto n2 = static_cast<double>(stats_after.count());
  const double se1 = var1 / n1;
  const double se2 = var2 / n2;
  const double pooled = se1 + se2;
  if (pooled <= 0.0) {
    // Identical constants: no evidence either way unless the means differ,
    // in which case the difference is "infinitely" significant.
    if (result.mean_before != result.mean_after) {
      result.t_statistic = result.mean_before > result.mean_after
                               ? std::numeric_limits<double>::infinity()
                               : -std::numeric_limits<double>::infinity();
      result.p_value_greater = result.mean_before > result.mean_after ? 0.0 : 1.0;
      result.p_value_two_sided = 0.0;
    }
    return result;
  }

  result.t_statistic = (result.mean_before - result.mean_after) / std::sqrt(pooled);
  // Welch–Satterthwaite degrees of freedom.
  result.degrees_of_freedom =
      pooled * pooled /
      (se1 * se1 / (n1 - 1.0) + se2 * se2 / (n2 - 1.0));
  const double tail =
      student_t_tail(result.t_statistic, result.degrees_of_freedom);
  result.p_value_greater = result.t_statistic >= 0.0 ? tail : 1.0 - tail;
  result.p_value_two_sided = 2.0 * tail;
  return result;
}

}  // namespace booterscope::stats
