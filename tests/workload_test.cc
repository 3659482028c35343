#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <vector>

#include "stats/running_stats.h"
#include "util/units.h"
#include "workload/bot_workload.h"
#include "workload/poisson_source.h"
#include "workload/trace.h"
#include "workload/web_workload.h"

namespace cloudprov {
namespace {

std::vector<Arrival> drain(RequestSource& source, Rng& rng,
                           std::size_t limit = SIZE_MAX) {
  std::vector<Arrival> arrivals;
  while (arrivals.size() < limit) {
    auto a = source.next(rng);
    if (!a) break;
    arrivals.push_back(*a);
  }
  return arrivals;
}

void expect_nondecreasing(const std::vector<Arrival>& arrivals) {
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    ASSERT_LE(arrivals[i - 1].time, arrivals[i].time) << "at index " << i;
  }
}

// ---------------------------------------------------------------- Poisson

TEST(PoissonSource, RateAndHorizonRespected) {
  Rng rng(1);
  PoissonSource source(10.0, std::make_shared<DeterministicDistribution>(0.5),
                       0.0, 1000.0);
  const auto arrivals = drain(source, rng);
  expect_nondecreasing(arrivals);
  EXPECT_NEAR(static_cast<double>(arrivals.size()), 10000.0, 500.0);
  for (const Arrival& a : arrivals) {
    EXPECT_LT(a.time, 1000.0);
    EXPECT_EQ(a.service_demand, 0.5);
  }
}

TEST(PoissonSource, ZeroRateProducesNothing) {
  Rng rng(1);
  PoissonSource source(0.0, std::make_shared<DeterministicDistribution>(1.0));
  EXPECT_FALSE(source.next(rng).has_value());
}

TEST(PoissonSource, InterarrivalsAreExponential) {
  Rng rng(2);
  PoissonSource source(4.0, std::make_shared<DeterministicDistribution>(1.0),
                       0.0, 50000.0);
  RunningStats gaps;
  double last = 0.0;
  while (auto a = source.next(rng)) {
    gaps.add(a->time - last);
    last = a->time;
  }
  EXPECT_NEAR(gaps.mean(), 0.25, 0.005);
  EXPECT_NEAR(gaps.variance(), 0.0625, 0.004);  // exp: var = mean^2
}

// ---------------------------------------------------------------- Web

TEST(WebWorkload, Equation2AtLandmarks) {
  WebWorkload w{};
  // Simulation starts Monday: Rmin 500, Rmax 1000 (Table II).
  EXPECT_NEAR(w.expected_rate(0.0), 500.0, 1e-9);                       // midnight
  EXPECT_NEAR(w.expected_rate(12 * 3600.0), 1000.0, 1e-9);              // noon
  EXPECT_NEAR(w.expected_rate(6 * 3600.0), 500.0 + 500.0 / std::sqrt(2.0),
              1e-6);                                                    // 6 a.m.
}

TEST(WebWorkload, TableTwoDayMapping) {
  WebWorkload w{};
  const double noon = 12 * 3600.0;
  const double day = 86400.0;
  EXPECT_NEAR(w.expected_rate(0 * day + noon), 1000.0, 1e-9);  // Monday
  EXPECT_NEAR(w.expected_rate(1 * day + noon), 1200.0, 1e-9);  // Tuesday
  EXPECT_NEAR(w.expected_rate(4 * day + noon), 1200.0, 1e-9);  // Friday
  EXPECT_NEAR(w.expected_rate(5 * day + noon), 1000.0, 1e-9);  // Saturday
  EXPECT_NEAR(w.expected_rate(6 * day + noon), 900.0, 1e-9);   // Sunday
  EXPECT_NEAR(w.expected_rate(6 * day), 400.0, 1e-9);          // Sunday trough
}

TEST(WebWorkload, RateIsZeroOutsideHorizon) {
  WebWorkload w{};
  EXPECT_EQ(w.expected_rate(-1.0), 0.0);
  EXPECT_EQ(w.expected_rate(7 * 86400.0), 0.0);
}

TEST(WebWorkload, ScaleMultipliesRate) {
  WebWorkloadConfig config;
  config.scale = 0.1;
  WebWorkload w(config);
  EXPECT_NEAR(w.expected_rate(12 * 3600.0), 100.0, 1e-9);
}

TEST(WebWorkload, ArrivalsMatchExpectedCountInWindow) {
  // One hour around Monday noon at 1% scale: expected ~0.01*1000*3600 = 36000?
  // Use a tighter window: rate ~ Rmax near noon.
  WebWorkloadConfig config;
  config.scale = 0.01;
  WebWorkload w(config);
  Rng rng(5);
  std::size_t in_window = 0;
  const double t0 = 11.5 * 3600.0;
  const double t1 = 12.5 * 3600.0;
  while (auto a = w.next(rng)) {
    if (a->time >= t1) break;
    if (a->time >= t0) ++in_window;
  }
  // Mean rate over the hour ~ 9.98 req/s at scale 0.01 => ~35900 arrivals.
  const double expected = 0.01 * 3600.0 * 997.0;
  EXPECT_NEAR(static_cast<double>(in_window), expected, 0.05 * expected);
}

TEST(WebWorkload, ServiceDemandWithinHeterogeneityBand) {
  WebWorkloadConfig config;
  config.scale = 0.001;
  WebWorkload w(config);
  Rng rng(6);
  const auto arrivals = drain(w, rng, 5000);
  ASSERT_GE(arrivals.size(), 1000u);
  for (const Arrival& a : arrivals) {
    EXPECT_GE(a.service_demand, 0.100);
    EXPECT_LE(a.service_demand, 0.110);
  }
}

TEST(WebWorkload, ArrivalsNondecreasingAndWithinHorizon) {
  WebWorkloadConfig config;
  config.scale = 0.001;
  WebWorkload w(config);
  Rng rng(7);
  const auto arrivals = drain(w, rng);
  expect_nondecreasing(arrivals);
  ASSERT_FALSE(arrivals.empty());
  EXPECT_LT(arrivals.back().time, config.horizon);
  // ~0.1% of 500M = ~500k arrivals for the whole week.
  EXPECT_NEAR(static_cast<double>(arrivals.size()), 500e3, 50e3);
}

TEST(WebWorkload, DeterministicForSameSeed) {
  WebWorkloadConfig config;
  config.scale = 0.001;
  WebWorkload a(config);
  WebWorkload b(config);
  Rng rng_a(11);
  Rng rng_b(11);
  for (int i = 0; i < 10000; ++i) {
    const auto x = a.next(rng_a);
    const auto y = b.next(rng_b);
    ASSERT_EQ(x.has_value(), y.has_value());
    if (!x) break;
    ASSERT_EQ(x->time, y->time);
    ASSERT_EQ(x->service_demand, y->service_demand);
  }
}

TEST(WebWorkload, ValidatesConfig) {
  WebWorkloadConfig config;
  config.rate_interval = 0.0;
  EXPECT_THROW(WebWorkload{config}, std::invalid_argument);
  config = {};
  config.scale = -1.0;
  EXPECT_THROW(WebWorkload{config}, std::invalid_argument);
  config = {};
  config.week[0] = {100.0, 200.0};  // max < min
  EXPECT_THROW(WebWorkload{config}, std::invalid_argument);
}

// ---------------------------------------------------------------- BoT

TEST(BotWorkload, PaperModes) {
  BotWorkload w{};
  EXPECT_NEAR(w.interarrival_mode(), 7.379, 0.01);
  EXPECT_NEAR(w.offpeak_count_mode(), 15.298, 0.01);
  EXPECT_NEAR(w.size_mode(), 1.309, 0.01);
}

TEST(BotWorkload, MeanTasksPerJobMatchesNumericalIntegral) {
  BotWorkload w{};
  // Monte-Carlo cross-check of E[max(1, floor(S))].
  Rng rng(13);
  double sum = 0.0;
  const int n = 400000;
  for (int i = 0; i < n; ++i) {
    sum += std::max(1.0, std::floor(rng.weibull(1.76, 2.11)));
  }
  EXPECT_NEAR(w.mean_tasks_per_job(), sum / n, 0.01);
}

TEST(BotWorkload, ExpectedRateHigherInPeak) {
  BotWorkload w{};
  const double offpeak = w.expected_rate(3 * 3600.0);
  const double peak = w.expected_rate(12 * 3600.0);
  EXPECT_GT(peak, 5.0 * offpeak);
  // Peak: E[max(1, floor(S))] ~ 1.617 tasks / 7.155 s ~ 0.226 req/s.
  EXPECT_NEAR(peak, 0.226, 0.005);
  // Off-peak: ~21.0 floored jobs * 1.617 tasks / 1800 s ~ 0.0189 req/s.
  EXPECT_NEAR(offpeak, 0.0189, 0.001);
}

TEST(BotWorkload, DailyRequestCountMatchesPaperScale) {
  // The paper reports ~8286 requests/day on average; the realized-task-count
  // model should land in that neighbourhood (see DESIGN.md).
  RunningStats counts;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    BotWorkload w{};
    Rng rng(seed + 100);
    counts.add(static_cast<double>(drain(w, rng).size()));
  }
  EXPECT_NEAR(counts.mean(), 8286.0, 1500.0);
}

TEST(BotWorkload, ArrivalsNondecreasingWithBatches) {
  BotWorkload w{};
  Rng rng(15);
  const auto arrivals = drain(w, rng);
  expect_nondecreasing(arrivals);
  ASSERT_FALSE(arrivals.empty());
  EXPECT_LT(arrivals.back().time, 86400.0);
  // BoT jobs arrive as simultaneous task batches: there must be ties.
  bool has_tie = false;
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    if (arrivals[i].time == arrivals[i - 1].time) {
      has_tie = true;
      break;
    }
  }
  EXPECT_TRUE(has_tie);
}

TEST(BotWorkload, PeakWindowDensityHigher) {
  BotWorkload w{};
  Rng rng(16);
  std::size_t peak_count = 0;
  std::size_t offpeak_count = 0;
  for (const Arrival& a : drain(w, rng)) {
    const double tod = a.time;
    if (tod >= 8 * 3600.0 && tod < 17 * 3600.0) {
      ++peak_count;
    } else {
      ++offpeak_count;
    }
  }
  // Peak covers 9 of 24 hours but should carry the large majority of tasks.
  EXPECT_GT(peak_count, 4 * offpeak_count);
}

TEST(BotWorkload, ServiceDemandWithinBand) {
  BotWorkload w{};
  Rng rng(17);
  for (const Arrival& a : drain(w, rng, 2000)) {
    EXPECT_GE(a.service_demand, 300.0);
    EXPECT_LE(a.service_demand, 330.0);
  }
}

TEST(BotWorkload, OffpeakJobsEvenlySpacedWithinWindow) {
  // With the peak disabled (peak window of zero length is invalid; instead
  // look only at the first off-peak window), consecutive distinct arrival
  // times inside one 30-min window are equally spaced.
  BotWorkload w{};
  Rng rng(18);
  std::vector<double> distinct;
  for (const Arrival& a : drain(w, rng, 500)) {
    if (a.time >= 1800.0) break;
    if (distinct.empty() || a.time != distinct.back()) distinct.push_back(a.time);
  }
  ASSERT_GE(distinct.size(), 3u);
  const double gap = distinct[1] - distinct[0];
  for (std::size_t i = 2; i < distinct.size(); ++i) {
    EXPECT_NEAR(distinct[i] - distinct[i - 1], gap, 1e-6);
  }
}

TEST(BotWorkload, ScaleChangesIntensity) {
  BotWorkloadConfig config;
  config.scale = 2.0;
  BotWorkload doubled(config);
  BotWorkload baseline{};
  Rng rng_a(19);
  Rng rng_b(19);
  const auto a = drain(doubled, rng_a).size();
  const auto b = drain(baseline, rng_b).size();
  EXPECT_NEAR(static_cast<double>(a) / static_cast<double>(b), 2.0, 0.3);
}

TEST(BotWorkload, ValidatesConfig) {
  BotWorkloadConfig config;
  config.peak_start = -1.0;
  EXPECT_THROW(BotWorkload{config}, std::invalid_argument);
  config = {};
  config.peak_end = config.peak_start;
  EXPECT_THROW(BotWorkload{config}, std::invalid_argument);
  config = {};
  config.scale = 0.0;
  EXPECT_THROW(BotWorkload{config}, std::invalid_argument);
}

// ---------------------------------------------------------------- Trace

TEST(Trace, RecordAndReplayIdentical) {
  Rng rng(21);
  PoissonSource source(5.0, std::make_shared<ScaledUniformDistribution>(0.1, 0.1),
                       0.0, 100.0);
  WorkloadTrace trace = WorkloadTrace::record(source, rng);
  ASSERT_FALSE(trace.arrivals.empty());

  TraceSource replay(trace);
  Rng unused(0);
  for (const Arrival& original : trace.arrivals) {
    const auto a = replay.next(unused);
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(a->time, original.time);
    EXPECT_EQ(a->service_demand, original.service_demand);
  }
  EXPECT_FALSE(replay.next(unused).has_value());
}

TEST(Trace, CsvRoundTrip) {
  WorkloadTrace trace;
  trace.arrivals.push_back(Arrival{1.5, 0.25, 2, 99.0});
  trace.arrivals.push_back(Arrival{2.75, 0.5});
  std::ostringstream out;
  trace.write_csv(out);
  std::istringstream in(out.str());
  const WorkloadTrace loaded = WorkloadTrace::read_csv(in);
  ASSERT_EQ(loaded.arrivals.size(), 2u);
  EXPECT_EQ(loaded.arrivals[0].time, 1.5);
  EXPECT_EQ(loaded.arrivals[0].service_demand, 0.25);
  EXPECT_EQ(loaded.arrivals[0].priority, 2);
  EXPECT_EQ(loaded.arrivals[0].deadline, 99.0);
  EXPECT_EQ(loaded.arrivals[1].time, 2.75);
  EXPECT_TRUE(std::isinf(loaded.arrivals[1].deadline));
}

TEST(Trace, UnsortedCsvRejected) {
  std::istringstream in("time,service_demand\n5.0,1.0\n1.0,1.0\n");
  EXPECT_THROW(WorkloadTrace::read_csv(in), std::invalid_argument);
}

TEST(TraceSource, ExpectedRateFromWindowCounts) {
  WorkloadTrace trace;
  // 10 arrivals/second for 10 seconds.
  for (int i = 0; i < 100; ++i) {
    trace.arrivals.push_back(Arrival{i * 0.1, 1.0});
  }
  TraceSource source(trace, /*rate_window=*/2.0);
  EXPECT_NEAR(source.expected_rate(5.0), 10.0, 0.6);
  EXPECT_NEAR(source.expected_rate(100.0), 0.0, 1e-9);
}

TEST(TraceSource, RemainingCountsDown) {
  WorkloadTrace trace;
  trace.arrivals.push_back(Arrival{1.0, 1.0});
  trace.arrivals.push_back(Arrival{2.0, 1.0});
  TraceSource source(trace);
  Rng rng(1);
  EXPECT_EQ(source.remaining(), 2u);
  (void)source.next(rng);
  EXPECT_EQ(source.remaining(), 1u);
}

TEST(WebWorkloadEdge, FlatWeekProducesUniformRate) {
  WebWorkloadConfig config;
  for (auto& day : config.week) day = DayRates{100.0, 100.0};  // Rmin == Rmax
  const WebWorkload w(config);
  for (double t : {0.0, 6.0 * 3600.0, 12.0 * 3600.0, 3.5 * 86400.0}) {
    EXPECT_NEAR(w.expected_rate(t), 100.0, 1e-9) << t;
  }
}

TEST(BotWorkloadEdge, TwoDayHorizonRepeatsTheDailyCycle) {
  BotWorkloadConfig config;
  config.horizon = 2.0 * 86400.0;
  BotWorkload w(config);
  // Expected rate is periodic with the day.
  EXPECT_EQ(w.expected_rate(12.0 * 3600.0), w.expected_rate(36.0 * 3600.0));
  Rng rng(73);
  std::size_t day1_peak = 0;
  std::size_t day2_peak = 0;
  while (auto a = w.next(rng)) {
    const double tod = seconds_into_day(a->time);
    if (tod >= 8 * 3600.0 && tod < 17 * 3600.0) {
      (a->time < 86400.0 ? day1_peak : day2_peak) += 1;
    }
  }
  EXPECT_GT(day1_peak, 5000u);
  EXPECT_GT(day2_peak, 5000u);
}

}  // namespace
}  // namespace cloudprov
