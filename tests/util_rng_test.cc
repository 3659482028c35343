#include "util/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <vector>

#include "stats/running_stats.h"

namespace cloudprov {
namespace {

TEST(SplitMix64, KnownSequence) {
  // Reference values for seed 0 (Vigna's splitmix64 test vector).
  SplitMix64 sm(0);
  EXPECT_EQ(sm.next(), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(sm.next(), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(sm.next(), 0x06c45d188009454fULL);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(99);
  Rng child = parent.split();
  // The child must not replay the parent's stream.
  Rng parent_copy(99);
  (void)parent_copy.next();  // same draw used for splitting
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (child.next() == parent.next()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformPositiveNeverZero) {
  Rng rng(7);
  for (int i = 0; i < 100000; ++i) {
    EXPECT_GT(rng.uniform_positive(), 0.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
    stats.add(u);
  }
  EXPECT_NEAR(stats.mean(), 3.5, 0.02);
}

TEST(Rng, UniformIntCoversRangeUniformly) {
  Rng rng(11);
  std::vector<int> counts(6, 0);
  const int n = 60000;
  for (int i = 0; i < n; ++i) {
    const auto v = rng.uniform_int(10, 15);
    ASSERT_GE(v, 10u);
    ASSERT_LE(v, 15u);
    ++counts[v - 10];
  }
  for (int c : counts) EXPECT_NEAR(c, n / 6, 400);
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_int(42, 42), 42u);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(5);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, InvalidArgumentsThrow) {
  Rng rng(1);
  EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
  EXPECT_THROW(rng.exponential(-1.0), std::invalid_argument);
  EXPECT_THROW(rng.weibull(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(rng.weibull(1.0, -1.0), std::invalid_argument);
  EXPECT_THROW(rng.normal(0.0, -1.0), std::invalid_argument);
  EXPECT_THROW(rng.bernoulli(1.5), std::invalid_argument);
  EXPECT_THROW(rng.uniform(5.0, 2.0), std::invalid_argument);
  EXPECT_THROW(rng.uniform_int(5, 2), std::invalid_argument);
  EXPECT_THROW(rng.poisson(-1.0), std::invalid_argument);
  EXPECT_THROW(rng.gamma(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(rng.pareto(-1.0, 2.0), std::invalid_argument);
}

struct MomentCase {
  const char* name;
  double expected_mean;
  double expected_var;
  std::function<double(Rng&)> sample;
};

// Without this, gtest prints the case as raw bytes, pointers included, and
// ctest keeps that dump in the discovered test names.
void PrintTo(const MomentCase& c, std::ostream* os) {
  *os << "mean=" << c.expected_mean << " var=" << c.expected_var;
}

class VariateMomentsTest : public ::testing::TestWithParam<MomentCase> {};

TEST_P(VariateMomentsTest, MatchesClosedFormMoments) {
  const MomentCase& c = GetParam();
  Rng rng(20110917);
  RunningStats stats;
  const int n = 400000;
  for (int i = 0; i < n; ++i) stats.add(c.sample(rng));
  const double mean_tol =
      5.0 * std::sqrt(c.expected_var / n) + 1e-3 * std::abs(c.expected_mean);
  EXPECT_NEAR(stats.mean(), c.expected_mean, mean_tol) << c.name;
  EXPECT_NEAR(stats.variance(), c.expected_var,
              0.05 * c.expected_var + 1e-9)
      << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllDistributions, VariateMomentsTest,
    ::testing::Values(
        MomentCase{"exp_rate2", 0.5, 0.25,
                   [](Rng& r) { return r.exponential(2.0); }},
        MomentCase{"exp_rate01", 10.0, 100.0,
                   [](Rng& r) { return r.exponential(0.1); }},
        MomentCase{"weibull_paper_interarrival",
                   7.86 * std::tgamma(1.0 + 1.0 / 4.25),
                   7.86 * 7.86 *
                       (std::tgamma(1.0 + 2.0 / 4.25) -
                        std::pow(std::tgamma(1.0 + 1.0 / 4.25), 2)),
                   [](Rng& r) { return r.weibull(4.25, 7.86); }},
        MomentCase{"weibull_paper_size", 2.11 * std::tgamma(1.0 + 1.0 / 1.76),
                   2.11 * 2.11 *
                       (std::tgamma(1.0 + 2.0 / 1.76) -
                        std::pow(std::tgamma(1.0 + 1.0 / 1.76), 2)),
                   [](Rng& r) { return r.weibull(1.76, 2.11); }},
        MomentCase{"normal", 3.0, 4.0, [](Rng& r) { return r.normal(3.0, 2.0); }},
        MomentCase{"lognormal", std::exp(0.5), (std::exp(1.0) - 1.0) * std::exp(1.0),
                   [](Rng& r) { return r.lognormal(0.0, 1.0); }},
        MomentCase{"poisson_small", 3.0, 3.0,
                   [](Rng& r) { return static_cast<double>(r.poisson(3.0)); }},
        MomentCase{"poisson_large", 120.0, 120.0,
                   [](Rng& r) { return static_cast<double>(r.poisson(120.0)); }},
        MomentCase{"gamma_shape_lt1", 0.5 * 2.0, 0.5 * 4.0,
                   [](Rng& r) { return r.gamma(0.5, 2.0); }},
        MomentCase{"gamma_shape3", 6.0, 12.0,
                   [](Rng& r) { return r.gamma(3.0, 2.0); }}),
    [](const ::testing::TestParamInfo<MomentCase>& param_info) {
      return param_info.param.name;
    });

TEST(Rng, PoissonZeroMean) {
  Rng rng(1);
  EXPECT_EQ(rng.poisson(0.0), 0u);
}

TEST(Rng, PoissonBoundaryBetweenAlgorithms) {
  // Means just below/above the Knuth/PTRS switch should both be unbiased.
  for (double mean : {9.5, 10.5}) {
    Rng rng(17);
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(mean));
    EXPECT_NEAR(sum / n, mean, 0.05) << mean;
  }
}

TEST(Rng, ExponentialTailProbability) {
  // P(X > 1) for rate 2 is e^-2 ~ 0.1353.
  Rng rng(23);
  int over = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) over += rng.exponential(2.0) > 1.0 ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(over) / n, std::exp(-2.0), 0.005);
}

TEST(Rng, ParetoTailAndMean) {
  // Survival P(X > x) = (xm/x)^alpha. The sample variance of a Pareto with
  // alpha <= 4 does not converge (infinite fourth moment), so the tail is the
  // right property to test.
  Rng rng(31);
  const int n = 200000;
  int over2 = 0;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.pareto(1.0, 3.0);
    EXPECT_GE(x, 1.0);
    sum += x;
    over2 += x > 2.0 ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(over2) / n, 0.125, 0.005);
  EXPECT_NEAR(sum / n, 1.5, 0.03);
}

TEST(Rng, WeibullReducesToExponentialAtShapeOne) {
  Rng rng(29);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.weibull(1.0, 4.0));
  EXPECT_NEAR(stats.mean(), 4.0, 0.1);
  EXPECT_NEAR(stats.variance(), 16.0, 0.8);
}

TEST(RngEdge, GammaShapeOneIsExponential) {
  Rng rng(71);
  double sum = 0.0;
  int over = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.gamma(1.0, 0.5);  // == Exp(rate 2)
    sum += x;
    over += x > 1.0 ? 1 : 0;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
  EXPECT_NEAR(static_cast<double>(over) / n, std::exp(-2.0), 0.005);
}

}  // namespace
}  // namespace cloudprov
