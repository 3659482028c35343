#include <gtest/gtest.h>

#include <cmath>

#include "predict/ar_model.h"
#include "predict/ewma.h"
#include "predict/moving_average.h"
#include "predict/oracle.h"
#include "predict/periodic_profile.h"
#include "predict/qrsm.h"
#include "workload/poisson_source.h"

namespace cloudprov {
namespace {

constexpr double kHour = 3600.0;
constexpr double kDay = 86400.0;

// ------------------------------------------------------------ profiles

TEST(PeriodicProfile, LookupWithinDay) {
  std::vector<ProfileEntry> entries{
      {-1, 0.0, 10.0},
      {-1, 8 * kHour, 50.0},
      {-1, 17 * kHour, 20.0},
  };
  PeriodicProfilePredictor p(std::move(entries), 1);
  EXPECT_EQ(p.predict(1.0), 10.0);
  EXPECT_EQ(p.predict(8 * kHour), 50.0);
  EXPECT_EQ(p.predict(12 * kHour), 50.0);
  EXPECT_EQ(p.predict(17 * kHour), 20.0);
  EXPECT_EQ(p.predict(23 * kHour), 20.0);
  // Next day wraps around.
  EXPECT_EQ(p.predict(kDay + 1.0), 10.0);
}

TEST(PeriodicProfile, PerDayEntriesAndWrapAcrossMidnight) {
  // Day 0 has an evening entry; day 1 has no entry before 6:00, so early
  // day-1 queries must inherit day 0's last entry.
  std::vector<ProfileEntry> entries{
      {0, 0.0, 5.0},
      {0, 20 * kHour, 99.0},
      {1, 6 * kHour, 7.0},
  };
  PeriodicProfilePredictor p(std::move(entries), 2);
  EXPECT_EQ(p.predict(21 * kHour), 99.0);
  EXPECT_EQ(p.predict(kDay + kHour), 99.0);  // day 1, 1:00 -> inherited
  EXPECT_EQ(p.predict(kDay + 7 * kHour), 7.0);
}

TEST(PeriodicProfile, Validation) {
  EXPECT_THROW(PeriodicProfilePredictor({}, 1), std::invalid_argument);
  EXPECT_THROW(PeriodicProfilePredictor({{5, 0.0, 1.0}}, 2),
               std::invalid_argument);
  EXPECT_THROW(PeriodicProfilePredictor({{-1, -5.0, 1.0}}, 1),
               std::invalid_argument);
  EXPECT_THROW(PeriodicProfilePredictor({{-1, 0.0, -1.0}}, 1),
               std::invalid_argument);
}

TEST(WebProfile, SixPeriodsMatchPaperEnvelope) {
  const WebWorkloadConfig config;
  const auto p = web_six_period_profile(config);
  // 6 periods x 7 days.
  EXPECT_EQ(p.entries().size(), 42u);
  // Monday peak period (11:30-12:30) must predict Rmax = 1000.
  EXPECT_NEAR(p.predict(11.6 * kHour), 1000.0, 1.0);
  // Tuesday peak: 1200.
  EXPECT_NEAR(p.predict(kDay + 12 * kHour), 1200.0, 1.0);
  // Increasing morning period 7:00-11:30 predicts the period-end rate
  // (conservative envelope): rate(11:30) on Monday.
  WebWorkload model(config);
  const double expected = model.expected_rate(11.49 * kHour);
  EXPECT_NEAR(p.predict(9 * kHour), expected, 5.0);
  // Envelope property: prediction >= true rate at all times.
  for (double t = 0.0; t < 7 * kDay; t += 600.0) {
    EXPECT_GE(p.predict(t) + 1e-6, model.expected_rate(t)) << t;
  }
}

TEST(WebProfile, FineProfileTracksTheDiurnalCurve) {
  const WebWorkloadConfig config;
  const auto p = web_profile_predictor(config, 1800.0);
  const WebWorkload model(config);
  // 48 windows x 7 days.
  EXPECT_EQ(p.entries().size(), 48u * 7u);
  // Envelope property still holds everywhere...
  for (double t = 0.0; t < 7 * kDay; t += 300.0) {
    EXPECT_GE(p.predict(t) + 1e-6, model.expected_rate(t)) << t;
  }
  // ...but unlike the six-period envelope it tracks the trough: the
  // midnight prediction is near Rmin, which is what lets the pool shrink to
  // the paper's reported minimum of ~55 instances.
  EXPECT_LT(p.predict(10.0), 560.0);                 // Monday midnight
  EXPECT_LT(p.predict(6 * kDay + 10.0), 460.0);      // Sunday midnight
  // Peak windows still predict Rmax.
  EXPECT_NEAR(p.predict(12 * kHour), 1000.0, 5.0);
  // The six-period envelope cannot shrink below ~650.
  const auto coarse = web_six_period_profile(config);
  EXPECT_GT(coarse.predict(10.0), 600.0);
}

// What-if clones copy the live world's profile predictor instead of
// re-deriving its 10,416 Equation 2 samples: a copy shares the table.
TEST(WebProfile, CopiesShareOneTable) {
  const auto p = web_profile_predictor(WebWorkloadConfig{});
  const PeriodicProfilePredictor copy = p;
  EXPECT_EQ(&copy.entries(), &p.entries());
  for (double t = 0.0; t < 7 * kDay; t += 900.0) {
    EXPECT_EQ(copy.predict(t), p.predict(t)) << t;
  }
}

TEST(BotProfile, PaperPredictionValues) {
  const BotWorkloadConfig config;
  const auto p = bot_profile_predictor(config);
  // Peak: (1.309 * 1.2) / 7.379 ~ 0.2129 req/s (Section V-B2).
  EXPECT_NEAR(p.predict(12 * kHour), 0.2129, 0.002);
  // Off-peak: (15.298 * 2.6) * (1.309 * 1.2) / 1800 ~ 0.0347 req/s — the
  // estimate that yields the paper's reported minimum of 13 instances.
  EXPECT_NEAR(p.predict(3 * kHour), 0.0347, 0.0008);
  EXPECT_NEAR(p.predict(20 * kHour), 0.0347, 0.0008);
}

TEST(BotProfile, EstimateQualityAgainstRealizedRate) {
  // Off-peak, the x2.6 inflated mode over-estimates the realized mean rate
  // (the paper's deliberate safety margin). At peak, the inflated mode-based
  // rate (0.2129) sits ~6% *below* the realized mean (0.226) because the
  // Weibull means exceed the modes; the paper's own numbers (80 peak VMs at
  // ~0.89 per-instance load, zero rejection) reflect exactly this operating
  // point — the multi-instance admission control absorbs the gap.
  const BotWorkloadConfig config;
  const BotWorkload model(config);
  const auto p = bot_profile_predictor(config);
  EXPECT_GT(p.predict(3 * kHour), model.expected_rate(3 * kHour));
  EXPECT_NEAR(p.predict(12 * kHour) / model.expected_rate(12 * kHour), 0.94,
              0.05);
}

// ------------------------------------------------------------ history-based

TEST(Ewma, ConvergesToConstantSignal) {
  EwmaPredictor p(0.5, 0.0);
  for (int i = 0; i < 50; ++i) p.observe(i, i + 1.0, 40.0);
  EXPECT_NEAR(p.predict(100.0), 40.0, 1e-6);
}

TEST(Ewma, FirstObservationPrimes) {
  EwmaPredictor p(0.1, 0.0);
  p.observe(0, 1, 100.0);
  EXPECT_EQ(p.predict(2.0), 100.0);
}

TEST(Ewma, HeadroomInflates) {
  EwmaPredictor p(1.0, 0.2);
  p.observe(0, 1, 50.0);
  EXPECT_NEAR(p.predict(2.0), 60.0, 1e-9);
}

TEST(Ewma, LagsBehindStep) {
  EwmaPredictor p(0.3, 0.0);
  for (int i = 0; i < 10; ++i) p.observe(i, i + 1.0, 10.0);
  p.observe(10, 11, 100.0);
  const double after_one = p.predict(12.0);
  EXPECT_GT(after_one, 10.0);
  EXPECT_LT(after_one, 50.0);  // has not caught up yet
}

TEST(Ewma, Validation) {
  EXPECT_THROW(EwmaPredictor(0.0), std::invalid_argument);
  EXPECT_THROW(EwmaPredictor(1.5), std::invalid_argument);
  EXPECT_THROW(EwmaPredictor(0.5, -0.1), std::invalid_argument);
}

TEST(MovingAverage, MeanAndMaxModes) {
  MovingAveragePredictor mean_p(3, MovingAveragePredictor::Mode::kMean, 0.0);
  MovingAveragePredictor max_p(3, MovingAveragePredictor::Mode::kMax, 0.0);
  for (double v : {10.0, 20.0, 60.0}) {
    mean_p.observe(0, 1, v);
    max_p.observe(0, 1, v);
  }
  EXPECT_NEAR(mean_p.predict(0), 30.0, 1e-9);
  EXPECT_NEAR(max_p.predict(0), 60.0, 1e-9);
  // Window slides: oldest (10) drops out.
  mean_p.observe(0, 1, 30.0);
  EXPECT_NEAR(mean_p.predict(0), (20.0 + 60.0 + 30.0) / 3.0, 1e-9);
}

TEST(MovingAverage, EmptyPredictsZero) {
  MovingAveragePredictor p(5);
  EXPECT_EQ(p.predict(0), 0.0);
}

TEST(ArPredictor, LearnsLinearTrend) {
  // x_t = 5 + t is AR(1): x_t = x_{t-1} + 1 exactly.
  ArPredictor p(1, 30, 0.0);
  for (int t = 0; t < 25; ++t) p.observe(t, t + 1.0, 5.0 + t);
  // Next value should be ~30.
  EXPECT_NEAR(p.predict(25.0), 30.0, 0.2);
}

TEST(ArPredictor, LearnsSinusoid) {
  // A sinusoid satisfies an exact AR(2) recurrence.
  ArPredictor p(2, 100, 0.0);
  const double omega = 2.0 * M_PI / 24.0;
  int t = 0;
  for (; t < 80; ++t) p.observe(t, t + 1.0, 100.0 + 50.0 * std::sin(omega * t));
  const double truth = 100.0 + 50.0 * std::sin(omega * t);
  EXPECT_NEAR(p.predict(t), truth, 1.0);
}

TEST(ArPredictor, ColdStartFallsBackToLastObservation) {
  ArPredictor p(4, 60, 0.0);
  p.observe(0, 1, 33.0);
  EXPECT_NEAR(p.predict(2.0), 33.0, 1e-9);
}

TEST(ArPredictor, NeverPredictsNegative) {
  ArPredictor p(2, 30, 0.0);
  for (int t = 0; t < 20; ++t) p.observe(t, t + 1.0, std::max(0.0, 100.0 - 10.0 * t));
  EXPECT_GE(p.predict(20.0), 0.0);
}

TEST(SolveLinearSystem, KnownSolution) {
  // 2x + y = 5; x - y = 1 -> x = 2, y = 1.
  const auto x = solve_linear_system({{2.0, 1.0}, {1.0, -1.0}}, {5.0, 1.0});
  ASSERT_EQ(x.size(), 2u);
  EXPECT_NEAR(x[0], 2.0, 1e-12);
  EXPECT_NEAR(x[1], 1.0, 1e-12);
}

TEST(SolveLinearSystem, PivotingHandlesZeroDiagonal) {
  // Leading zero forces a row swap.
  const auto x = solve_linear_system({{0.0, 1.0}, {1.0, 0.0}}, {3.0, 4.0});
  EXPECT_NEAR(x[0], 4.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(SolveLinearSystem, SingularThrows) {
  EXPECT_THROW(solve_linear_system({{1.0, 2.0}, {2.0, 4.0}}, {1.0, 2.0}),
               std::invalid_argument);
  EXPECT_THROW(solve_linear_system({{1.0}}, {1.0, 2.0}), std::invalid_argument);
}

TEST(Qrsm, FitsQuadraticExactly) {
  // rate(t) = 2 + 3t + 0.5 t^2 observed over unit windows.
  QrsmPredictor p(10, 0.0);
  auto truth = [](double t) { return 2.0 + 3.0 * t + 0.5 * t * t; };
  for (int t = 0; t < 8; ++t) {
    p.observe(t, t + 1.0, truth(t + 0.5));
  }
  EXPECT_NEAR(p.predict(9.5), truth(9.5), 0.05);
}

TEST(Qrsm, ClampsNegativeExtrapolation) {
  QrsmPredictor p(10, 0.0);
  for (int t = 0; t < 6; ++t) p.observe(t, t + 1.0, 50.0 - 10.0 * t);
  EXPECT_GE(p.predict(20.0), 0.0);
}

TEST(Qrsm, FallbackBeforeThreeObservations) {
  QrsmPredictor p(10, 0.0);
  p.observe(0, 1, 42.0);
  EXPECT_NEAR(p.predict(5.0), 42.0, 1e-9);
}

TEST(Oracle, ReadsGroundTruthWithMargin) {
  PoissonSource source(10.0, std::make_shared<DeterministicDistribution>(1.0),
                       0.0, 100.0);
  OraclePredictor p(source, 0.1);
  EXPECT_NEAR(p.predict(50.0), 11.0, 1e-9);
  EXPECT_EQ(p.predict(200.0), 0.0);  // beyond horizon
}

}  // namespace
}  // namespace cloudprov
