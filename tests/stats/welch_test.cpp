#include "stats/welch.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/rng.hpp"

namespace booterscope::stats {
namespace {

TEST(IncompleteBeta, BoundaryValues) {
  EXPECT_DOUBLE_EQ(incomplete_beta(2.0, 3.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(incomplete_beta(2.0, 3.0, 1.0), 1.0);
}

TEST(IncompleteBeta, KnownClosedForms) {
  // I_x(1, 1) = x (uniform distribution).
  for (const double x : {0.1, 0.25, 0.5, 0.9}) {
    EXPECT_NEAR(incomplete_beta(1.0, 1.0, x), x, 1e-10);
  }
  // I_x(1, b) = 1 - (1-x)^b.
  EXPECT_NEAR(incomplete_beta(1.0, 3.0, 0.2), 1.0 - std::pow(0.8, 3), 1e-10);
  // I_x(a, 1) = x^a.
  EXPECT_NEAR(incomplete_beta(4.0, 1.0, 0.7), std::pow(0.7, 4), 1e-10);
  // Symmetry: I_x(a, b) = 1 - I_{1-x}(b, a).
  EXPECT_NEAR(incomplete_beta(2.5, 4.5, 0.3),
              1.0 - incomplete_beta(4.5, 2.5, 0.7), 1e-10);
}

TEST(StudentTCdf, SymmetryAndCenter) {
  for (const double df : {1.0, 5.0, 30.0, 200.0}) {
    EXPECT_NEAR(student_t_cdf(0.0, df), 0.5, 1e-12);
    for (const double t : {0.5, 1.0, 2.5}) {
      EXPECT_NEAR(student_t_cdf(t, df) + student_t_cdf(-t, df), 1.0, 1e-10);
    }
  }
}

TEST(StudentTCdf, KnownValues) {
  // t distribution with 1 df is Cauchy: CDF(1) = 3/4.
  EXPECT_NEAR(student_t_cdf(1.0, 1.0), 0.75, 1e-9);
  // Large df approaches the standard normal: Phi(1.96) ~ 0.975.
  EXPECT_NEAR(student_t_cdf(1.96, 100000.0), 0.975, 5e-4);
  // Classic table value: t_{0.95, 10} = 1.812.
  EXPECT_NEAR(student_t_cdf(1.812, 10.0), 0.95, 1e-3);
  // t_{0.975, 5} = 2.571.
  EXPECT_NEAR(student_t_cdf(2.571, 5.0), 0.975, 1e-3);
}

TEST(Welch, DetectsObviousReduction) {
  const std::vector<double> before = {10.0, 11.0, 9.0, 10.0, 10.5, 9.5};
  const std::vector<double> after = {5.0, 5.5, 4.5, 5.0, 6.0, 4.0};
  const WelchResult result = welch_t_test(before, after);
  EXPECT_GT(result.t_statistic, 5.0);
  EXPECT_LT(result.p_value_greater, 0.001);
  EXPECT_TRUE(result.significant_reduction());
  EXPECT_NEAR(result.reduction_ratio(), 0.5, 0.02);
}

TEST(Welch, HandComputedExample) {
  // before = {10,11,9,10,10}: mean 10, var 0.5
  // after  = {8,9,8,8,7}:     mean 8,  var 0.5
  // t = 2 / sqrt(0.5/5 + 0.5/5) = 4.4721, df = 8.
  const std::vector<double> before = {10, 11, 9, 10, 10};
  const std::vector<double> after = {8, 9, 8, 8, 7};
  const WelchResult result = welch_t_test(before, after);
  EXPECT_NEAR(result.t_statistic, 4.4721, 1e-3);
  EXPECT_NEAR(result.degrees_of_freedom, 8.0, 1e-9);
  // One-tailed p for t=4.4721, df=8 is ~0.00103.
  EXPECT_NEAR(result.p_value_greater, 0.00103, 2e-4);
  EXPECT_NEAR(result.p_value_two_sided, 2 * result.p_value_greater, 1e-12);
}

/// Two samples of `n` values each (n even), alternating ±1 around their
/// means, with the means `t` standard errors apart: Welch's t is `t`, and
/// equal sizes and variances make df = 2(n - 1).
WelchResult welch_at(double t, int n) {
  const double variance = n / (n - 1.0);
  const double gap = t * std::sqrt(2.0 * variance / n);
  RunningStats before;
  RunningStats after;
  for (int i = 0; i < n; ++i) {
    const double deviation = i % 2 == 0 ? 1.0 : -1.0;
    before.add(gap + deviation);
    after.add(deviation);
  }
  return welch_t_test_from_stats(before, after);
}

TEST(Welch, FarTailPValuesKeepTheirRelativePrecision) {
  // Exact upper tails from mpmath at 50 digits. 1 - cdf cancels here: the
  // first row came out exactly 0, the second with relative error 1.5e-6.
  struct Row {
    double t;
    int n;  // per sample; df = 2(n - 1)
    double exact;
  };
  const Row rows[] = {{35.4, 30, 2.845844426929983e-41},
                      {8.0, 30, 3.062345782119425e-11},
                      {10.0, 16, 2.2876257041148085e-11}};
  for (const Row& row : rows) {
    const WelchResult result = welch_at(row.t, row.n);
    EXPECT_NEAR(result.degrees_of_freedom, 2.0 * (row.n - 1), 1e-9);
    EXPECT_NEAR(result.p_value_greater / row.exact, 1.0, 1e-12) << row.t;
    EXPECT_NEAR(result.p_value_two_sided / (2.0 * row.exact), 1.0, 1e-12)
        << row.t;
    const WelchResult reversed = welch_at(-row.t, row.n);
    EXPECT_NEAR(reversed.p_value_greater, 1.0 - row.exact, 1e-15) << row.t;
    EXPECT_NEAR(reversed.p_value_two_sided / (2.0 * row.exact), 1.0, 1e-12)
        << row.t;
  }
}

TEST(Welch, NoFalsePositiveOnIdenticalDistributions) {
  util::Rng rng(123);
  int significant = 0;
  constexpr int kTrials = 200;
  for (int trial = 0; trial < kTrials; ++trial) {
    std::vector<double> a;
    std::vector<double> b;
    for (int i = 0; i < 30; ++i) {
      a.push_back(util::normal(rng, 100.0, 15.0));
      b.push_back(util::normal(rng, 100.0, 15.0));
    }
    significant += welch_t_test(a, b).significant_reduction() ? 1 : 0;
  }
  // One-tailed alpha = 0.05 -> expect ~5% false positives.
  EXPECT_LT(significant, kTrials * 0.11);
}

TEST(Welch, OneTailedDirectionality) {
  // An *increase* must never register as a significant reduction.
  const std::vector<double> before = {1.0, 1.1, 0.9, 1.0};
  const std::vector<double> after = {5.0, 5.2, 4.8, 5.0};
  const WelchResult result = welch_t_test(before, after);
  EXPECT_FALSE(result.significant_reduction());
  EXPECT_GT(result.p_value_greater, 0.95);
  EXPECT_GT(result.reduction_ratio(), 1.0);
}

TEST(Welch, UnequalVariancesUseSatterthwaiteDf) {
  const std::vector<double> before = {10, 20, 30, 40, 50};   // var 250
  const std::vector<double> after = {24.9, 25.0, 25.1};      // var 0.01
  const WelchResult result = welch_t_test(before, after);
  // df must be close to n1-1 = 4 (the noisy sample dominates), far from
  // the pooled df of 6.
  EXPECT_LT(result.degrees_of_freedom, 4.5);
  EXPECT_GT(result.degrees_of_freedom, 3.5);
}

TEST(Welch, DegenerateInputs) {
  const std::vector<double> empty;
  const std::vector<double> one = {1.0};
  const std::vector<double> two = {2.0, 3.0};
  EXPECT_FALSE(welch_t_test(empty, empty).significant_reduction());
  EXPECT_FALSE(welch_t_test(one, two).significant_reduction());
  // Identical constants: no significance.
  const std::vector<double> fives = {5, 5, 5};
  const WelchResult same = welch_t_test(fives, fives);
  EXPECT_FALSE(same.significant_reduction());
  // Different constants: infinitely significant reduction.
  const std::vector<double> twos = {2, 2, 2};
  const WelchResult diff = welch_t_test(fives, twos);
  EXPECT_TRUE(diff.significant_reduction());
  EXPECT_DOUBLE_EQ(diff.p_value_greater, 0.0);
}

TEST(Welch, ScaleInvarianceOfSignificance) {
  util::Rng rng(77);
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < 40; ++i) {
    a.push_back(util::normal(rng, 50.0, 5.0));
    b.push_back(util::normal(rng, 40.0, 5.0));
  }
  const WelchResult raw = welch_t_test(a, b);
  for (double& x : a) x *= 1e6;
  for (double& x : b) x *= 1e6;
  const WelchResult scaled = welch_t_test(a, b);
  EXPECT_NEAR(raw.t_statistic, scaled.t_statistic, 1e-6);
  EXPECT_NEAR(raw.p_value_greater, scaled.p_value_greater, 1e-9);
}

}  // namespace
}  // namespace booterscope::stats
