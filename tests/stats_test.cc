#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <vector>

#include "stats/confidence.h"
#include "stats/quantile.h"
#include "stats/running_stats.h"
#include "stats/timeseries.h"
#include "util/rng.h"

namespace cloudprov {
namespace {

TEST(RunningStats, MatchesDirectComputation) {
  RunningStats stats;
  const std::vector<double> values{1.0, 2.0, 4.0, 8.0, 16.0};
  for (double v : values) stats.add(v);
  EXPECT_EQ(stats.count(), 5u);
  EXPECT_DOUBLE_EQ(stats.mean(), 6.2);
  // Sample variance: sum((x - 6.2)^2) / 4 = 37.2
  EXPECT_NEAR(stats.variance(), 37.2, 1e-12);
  EXPECT_EQ(stats.min(), 1.0);
  EXPECT_EQ(stats.max(), 16.0);
  EXPECT_NEAR(stats.sum(), 31.0, 1e-12);
}

TEST(RunningStats, EmptyAndSingle) {
  RunningStats stats;
  EXPECT_TRUE(stats.empty());
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
  stats.add(3.0);
  EXPECT_EQ(stats.mean(), 3.0);
  EXPECT_EQ(stats.variance(), 0.0);
  EXPECT_EQ(stats.population_variance(), 0.0);
}

TEST(RunningStats, MergeEqualsSequential) {
  Rng rng(8);
  RunningStats whole;
  RunningStats left;
  RunningStats right;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.normal(10.0, 3.0);
    whole.add(v);
    (i < 400 ? left : right).add(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-10);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-8);
  EXPECT_EQ(left.min(), whole.min());
  EXPECT_EQ(left.max(), whole.max());
}

TEST(RunningStats, MergeWithEmptySides) {
  RunningStats a;
  RunningStats b;
  b.add(1.0);
  b.add(2.0);
  a.merge(b);  // empty.merge(full)
  EXPECT_EQ(a.count(), 2u);
  RunningStats c;
  a.merge(c);  // full.merge(empty)
  EXPECT_EQ(a.count(), 2u);
}

TEST(RunningStats, NumericalStabilityWithLargeOffset) {
  // Welford must not suffer catastrophic cancellation at offset 1e9.
  RunningStats stats;
  for (int i = 0; i < 1000; ++i) stats.add(1e9 + (i % 10));
  EXPECT_NEAR(stats.mean(), 1e9 + 4.5, 1e-3);
  EXPECT_NEAR(stats.variance(), 8.25 * 1000.0 / 999.0, 0.01);
}

TEST(ExactQuantiles, InterpolatedValues) {
  ExactQuantiles q;
  for (int i = 1; i <= 5; ++i) q.add(i);  // 1..5
  EXPECT_DOUBLE_EQ(q.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(q.quantile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(q.quantile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(q.quantile(0.25), 2.0);
  EXPECT_DOUBLE_EQ(q.quantile(0.125), 1.5);
}

TEST(ExactQuantiles, Validation) {
  ExactQuantiles q;
  EXPECT_THROW(q.quantile(0.5), std::logic_error);
  q.add(1.0);
  EXPECT_THROW(q.quantile(1.5), std::invalid_argument);
}

struct P2Case {
  const char* name;
  double quantile;
  std::function<double(Rng&)> sample;
  std::function<double()> truth;
};

// Without this, gtest prints the case as raw bytes, and the name pointer's
// address-randomised bytes leak into the discovered ctest test names.
void PrintTo(const P2Case& c, std::ostream* os) { *os << "q=" << c.quantile; }

class P2QuantileTest : public ::testing::TestWithParam<P2Case> {};

TEST_P(P2QuantileTest, ConvergesToTrueQuantile) {
  const P2Case& c = GetParam();
  Rng rng(99);
  P2Quantile estimator(c.quantile);
  for (int i = 0; i < 200000; ++i) estimator.add(c.sample(rng));
  const double truth = c.truth();
  EXPECT_NEAR(estimator.value(), truth, 0.03 * std::abs(truth) + 1e-3) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Distributions, P2QuantileTest,
    ::testing::Values(
        P2Case{"uniform_median", 0.5, [](Rng& r) { return r.uniform(); },
               [] { return 0.5; }},
        P2Case{"uniform_p95", 0.95, [](Rng& r) { return r.uniform(); },
               [] { return 0.95; }},
        P2Case{"exponential_p90", 0.9, [](Rng& r) { return r.exponential(2.0); },
               [] { return -std::log(0.1) / 2.0; }},
        P2Case{"normal_p99", 0.99, [](Rng& r) { return r.normal(0.0, 1.0); },
               [] { return 2.3263; }}),
    [](const ::testing::TestParamInfo<P2Case>& param_info) { return param_info.param.name; });

TEST(P2Quantile, ExactForFewSamples) {
  P2Quantile q(0.5);
  q.add(3.0);
  EXPECT_EQ(q.value(), 3.0);
  q.add(1.0);
  q.add(2.0);
  EXPECT_EQ(q.value(), 2.0);  // exact median of {1,2,3}
}

TEST(P2Quantile, RejectsDegenerateQuantiles) {
  EXPECT_THROW(P2Quantile(0.0), std::invalid_argument);
  EXPECT_THROW(P2Quantile(1.0), std::invalid_argument);
}

TEST(TimeWeightedValue, IntegralAndAverage) {
  TimeWeightedValue v(0.0, 2.0);
  v.update(10.0, 4.0);   // 2.0 held for 10 s
  v.update(15.0, 0.0);   // 4.0 held for 5 s
  v.advance(20.0);       // 0.0 held for 5 s
  EXPECT_DOUBLE_EQ(v.integral(), 2.0 * 10 + 4.0 * 5);
  EXPECT_DOUBLE_EQ(v.time_average(), 40.0 / 20.0);
  EXPECT_EQ(v.min(), 0.0);
  EXPECT_EQ(v.max(), 4.0);
  EXPECT_EQ(v.observed_duration(), 20.0);
}

TEST(TimeWeightedValue, RejectsTimeTravel) {
  TimeWeightedValue v(5.0, 1.0);
  v.update(6.0, 2.0);
  EXPECT_THROW(v.update(5.5, 3.0), std::invalid_argument);
}

TEST(TimeWeightedValue, EmptyWindowReturnsCurrent) {
  TimeWeightedValue v(0.0, 7.0);
  EXPECT_EQ(v.time_average(), 7.0);
}

TEST(SampledSeries, DownsamplesUniformly) {
  SampledSeries series(3);
  for (int i = 0; i < 10; ++i) series.add(i, i * 2.0);
  EXPECT_EQ(series.seen(), 10u);
  ASSERT_EQ(series.recorded(), 4u);  // indices 0, 3, 6, 9
  EXPECT_EQ(series.points()[1].time, 3.0);
}

TEST(SampledSeries, WindowMean) {
  SampledSeries series;
  series.add(0.0, 1.0);
  series.add(1.0, 2.0);
  series.add(2.0, 3.0);
  EXPECT_DOUBLE_EQ(series.window_mean(0.0, 2.0), 1.5);
  EXPECT_TRUE(std::isnan(series.window_mean(10.0, 20.0)));
}

TEST(NormalQuantile, MatchesKnownValues) {
  EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-8);
  EXPECT_NEAR(normal_quantile(0.975), 1.959964, 1e-5);
  EXPECT_NEAR(normal_quantile(0.995), 2.575829, 1e-5);
  EXPECT_NEAR(normal_quantile(0.025), -1.959964, 1e-5);
  EXPECT_NEAR(normal_quantile(0.0001), -3.719016, 1e-4);
}

TEST(StudentT, MatchesTableValues) {
  // Two-sided 95% critical values (p = 0.975).
  EXPECT_NEAR(student_t_quantile(0.975, 1), 12.706, 0.01);
  EXPECT_NEAR(student_t_quantile(0.975, 2), 4.303, 0.005);
  EXPECT_NEAR(student_t_quantile(0.975, 5), 2.571, 0.01);
  EXPECT_NEAR(student_t_quantile(0.975, 9), 2.262, 0.005);
  EXPECT_NEAR(student_t_quantile(0.975, 30), 2.042, 0.003);
  EXPECT_NEAR(student_t_quantile(0.975, 1000), 1.962, 0.002);
}

TEST(StudentT, Validation) {
  EXPECT_THROW(student_t_quantile(0.0, 5), std::invalid_argument);
  EXPECT_THROW(student_t_quantile(0.975, 0), std::invalid_argument);
}

TEST(MeanConfidenceInterval, TenReplications) {
  // The paper's methodology: 10 runs, mean +- t-based CI.
  const std::vector<double> samples{10, 11, 9, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10};
  const auto ci = mean_confidence_interval(samples, 0.95);
  EXPECT_NEAR(ci.mean, 10.0, 0.01);
  EXPECT_GT(ci.half_width, 0.0);
  EXPECT_LT(ci.half_width, 0.5);
  EXPECT_LT(ci.lower(), ci.mean);
  EXPECT_GT(ci.upper(), ci.mean);
}

TEST(MeanConfidenceInterval, DegenerateInputs) {
  EXPECT_EQ(mean_confidence_interval({}).half_width, 0.0);
  const auto single = mean_confidence_interval({5.0});
  EXPECT_EQ(single.mean, 5.0);
  EXPECT_EQ(single.half_width, 0.0);
}

TEST(MeanConfidenceInterval, CoverageProperty) {
  // ~95% of CIs built from N(0,1) samples should contain 0.
  Rng rng(4242);
  int covered = 0;
  const int trials = 2000;
  for (int t = 0; t < trials; ++t) {
    std::vector<double> samples;
    for (int i = 0; i < 10; ++i) samples.push_back(rng.normal(0.0, 1.0));
    const auto ci = mean_confidence_interval(samples, 0.95);
    if (ci.lower() <= 0.0 && 0.0 <= ci.upper()) ++covered;
  }
  EXPECT_NEAR(static_cast<double>(covered) / trials, 0.95, 0.02);
}

TEST(P2QuantileEdge, ConstantStreamIsExact) {
  P2Quantile q(0.9);
  for (int i = 0; i < 1000; ++i) q.add(4.2);
  EXPECT_DOUBLE_EQ(q.value(), 4.2);
}

TEST(TimeWeightedEdge, SameTimeUpdatesKeepLastValue) {
  TimeWeightedValue v(0.0, 1.0);
  v.update(5.0, 2.0);
  v.update(5.0, 3.0);  // zero-width interval: legal, no integral change
  v.advance(10.0);
  EXPECT_DOUBLE_EQ(v.integral(), 1.0 * 5.0 + 3.0 * 5.0);
  EXPECT_EQ(v.max(), 3.0);
}

}  // namespace
}  // namespace cloudprov
