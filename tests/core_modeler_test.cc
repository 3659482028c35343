#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "core/performance_modeler.h"
#include "core/qos.h"
#include "queueing/mm1k.h"

namespace cloudprov {
namespace {

QosTargets web_qos() {
  QosTargets qos;
  qos.max_response_time = 0.250;
  qos.max_rejection_rate = 0.0;
  qos.min_utilization = 0.80;
  return qos;
}

ModelerConfig default_config() {
  ModelerConfig config;
  config.max_vms = 1000;
  config.rejection_tolerance = 0.30;
  return config;
}

TEST(QueueBound, Equation1) {
  EXPECT_EQ(queue_bound(0.250, 0.105), 2u);  // web scenario
  EXPECT_EQ(queue_bound(700.0, 315.0), 2u);  // scientific scenario
  EXPECT_EQ(queue_bound(1.0, 0.1), 10u);
  EXPECT_EQ(queue_bound(0.05, 0.1), 1u);  // clamped to >= 1
  EXPECT_THROW(queue_bound(0.0, 0.1), std::invalid_argument);
  EXPECT_THROW(queue_bound(1.0, 0.0), std::invalid_argument);
}

TEST(PerformanceModeler, PaperWebPeakOperatingPoint) {
  // lambda = 1200 req/s, Tm = 105 ms, k = 2: the paper lands at ~153
  // instances (Section V-C1). With the [0.8, ~0.9] offered-load band the
  // decision must fall in [lambda*Tm/0.9, lambda*Tm/0.8] = [140, 158].
  PerformanceModeler modeler(web_qos(), default_config());
  const ModelerDecision d = modeler.required_instances(100, 1200.0, 0.105, 2);
  EXPECT_GE(d.instances, 140u);
  EXPECT_LE(d.instances, 158u);
  EXPECT_LE(d.predicted_response_time, 0.250);
  EXPECT_LE(d.predicted_rejection, 0.30);
}

TEST(PerformanceModeler, PaperWebOffPeakOperatingPoint) {
  // Sunday trough: lambda = 400 -> ~42 erlangs -> m in [47, 53].
  PerformanceModeler modeler(web_qos(), default_config());
  const ModelerDecision d = modeler.required_instances(150, 400.0, 0.105, 2);
  EXPECT_GE(d.instances, 46u);
  EXPECT_LE(d.instances, 55u);
}

TEST(PerformanceModeler, PaperScientificPeakOperatingPoint) {
  // lambda = 0.2129 req/s, Tm = 315 s -> 67 erlangs -> m in [74, 84]
  // (paper: 80 at peak).
  QosTargets qos;
  qos.max_response_time = 700.0;
  qos.min_utilization = 0.80;
  PerformanceModeler modeler(qos, default_config());
  const ModelerDecision d = modeler.required_instances(10, 0.2129, 315.0, 2);
  EXPECT_GE(d.instances, 74u);
  EXPECT_LE(d.instances, 85u);
}

TEST(PerformanceModeler, ConvergenceFromAnyStartingPoint) {
  // Algorithm 1 must reach the same operating band regardless of the seed m.
  PerformanceModeler modeler(web_qos(), default_config());
  for (std::size_t start : {1u, 5u, 50u, 150u, 500u, 1000u}) {
    const ModelerDecision d = modeler.required_instances(start, 1200.0, 0.105, 2);
    EXPECT_GE(d.instances, 140u) << "start=" << start;
    EXPECT_LE(d.instances, 165u) << "start=" << start;
  }
}

TEST(PerformanceModeler, MonotoneInArrivalRate) {
  PerformanceModeler modeler(web_qos(), default_config());
  std::size_t previous = 0;
  for (double lambda : {50.0, 100.0, 200.0, 400.0, 800.0, 1200.0}) {
    const ModelerDecision d = modeler.required_instances(10, lambda, 0.105, 2);
    EXPECT_GE(d.instances, previous) << lambda;
    previous = d.instances;
  }
}

TEST(PerformanceModeler, ZeroRateScalesToMinimum) {
  PerformanceModeler modeler(web_qos(), default_config());
  const ModelerDecision d = modeler.required_instances(50, 0.0, 0.105, 2);
  // The paper's bisection is conservative near the lower bound; it must get
  // within a factor ~2 of the floor and never return 0.
  EXPECT_GE(d.instances, 1u);
  EXPECT_LE(d.instances, 3u);
}

TEST(PerformanceModeler, RespectsMaxVms) {
  ModelerConfig config = default_config();
  config.max_vms = 100;
  PerformanceModeler modeler(web_qos(), config);
  const ModelerDecision d = modeler.required_instances(10, 1200.0, 0.105, 2);
  EXPECT_EQ(d.instances, 100u);  // capacity-capped
  EXPECT_GT(d.predicted_rejection, 0.30);  // and the model knows QoS fails
}

TEST(PerformanceModeler, RespectsMinVms) {
  ModelerConfig config = default_config();
  config.min_vms = 5;
  PerformanceModeler modeler(web_qos(), config);
  const ModelerDecision d = modeler.required_instances(1, 0.1, 0.105, 2);
  EXPECT_GE(d.instances, 5u);
}

TEST(PerformanceModeler, TerminatesWithinIterationCap) {
  PerformanceModeler modeler(web_qos(), default_config());
  for (double lambda : {0.0, 1.0, 10.0, 100.0, 1000.0, 10000.0}) {
    for (std::size_t start : {1u, 100u, 1000u}) {
      const ModelerDecision d = modeler.required_instances(start, lambda, 0.105, 2);
      EXPECT_LT(d.iterations, default_config().max_iterations) << lambda;
      EXPECT_FALSE(d.tested.empty());
    }
  }
}

TEST(PerformanceModeler, RevisitsAreBoundedByMinMaxGuards) {
  // The min/max guards exist to "avoid the system to try a number of
  // virtualized application instances that ... has been tested before".
  // The published algorithm can legally re-test the current upper bound
  // (a growth step clamps to it), but never more than a couple of times,
  // and the search must stay comfortably inside the iteration cap.
  PerformanceModeler modeler(web_qos(), default_config());
  for (std::size_t start : {1u, 7u, 80u, 153u, 400u}) {
    const ModelerDecision d = modeler.required_instances(start, 900.0, 0.105, 2);
    std::map<std::size_t, int> visits;
    for (std::size_t i = 0; i + 1 < d.tested.size(); ++i) ++visits[d.tested[i]];
    for (const auto& [candidate, count] : visits) {
      EXPECT_LE(count, 3) << "m=" << candidate << " from start " << start;
    }
    EXPECT_LE(d.iterations, 30u) << "start=" << start;
  }
}

TEST(PerformanceModeler, GrowthStepIsFiftyPercent) {
  // From a clearly undersized pool the first step must be m + m/2 (line 10).
  PerformanceModeler modeler(web_qos(), default_config());
  const ModelerDecision d = modeler.required_instances(40, 1200.0, 0.105, 2);
  ASSERT_GE(d.tested.size(), 2u);
  EXPECT_EQ(d.tested[0], 40u);
  EXPECT_EQ(d.tested[1], 60u);
}

TEST(PerformanceModeler, PublishedTypoRegression) {
  // Algorithm 1 line 11 as printed ("min <- m + 1" after the increase) would
  // set min to 1.5*oldm + 1, so the bisection could never consider the new
  // candidate range. Our implementation sets min = oldm + 1: from start 40
  // with lambda requiring ~47, the search must be able to return values in
  // (40, 60), which the published pseudocode would skip.
  PerformanceModeler modeler(web_qos(), default_config());
  // lambda * Tm = 40.95 erlangs -> band [45.5, 51.2].
  const ModelerDecision d = modeler.required_instances(40, 390.0, 0.105, 2);
  EXPECT_GT(d.instances, 40u);
  EXPECT_LT(d.instances, 60u);
}

TEST(PerformanceModeler, DecisionLandsInUtilizationBand) {
  // Property over a lambda sweep: whenever neither bound binds, the offered
  // per-instance load of the decision lies in [min_util, rho(tolerance)].
  PerformanceModeler modeler(web_qos(), default_config());
  for (double lambda = 50.0; lambda <= 2000.0; lambda += 37.0) {
    const ModelerDecision d = modeler.required_instances(20, lambda, 0.105, 2);
    const double rho = lambda * 0.105 / static_cast<double>(d.instances);
    EXPECT_GT(rho, 0.70) << lambda;  // not wildly over-provisioned
    EXPECT_LT(rho, 0.95) << lambda;  // not saturated
  }
}

TEST(PerformanceModeler, LargerQueueBoundNeedsFewerInstances) {
  // With a deeper per-instance queue, the same blocking tolerance is met at
  // higher utilization.
  QosTargets qos = web_qos();
  qos.max_response_time = 1.0;  // allow k up to 9
  PerformanceModeler modeler(qos, default_config());
  const ModelerDecision k2 = modeler.required_instances(100, 1000.0, 0.105, 2);
  const ModelerDecision k6 = modeler.required_instances(100, 1000.0, 0.105, 6);
  EXPECT_LE(k6.instances, k2.instances);
}

TEST(PerformanceModeler, ValidatesArguments) {
  PerformanceModeler modeler(web_qos(), default_config());
  EXPECT_THROW(modeler.required_instances(1, -1.0, 0.1, 2), std::invalid_argument);
  EXPECT_THROW(modeler.required_instances(1, 1.0, 0.0, 2), std::invalid_argument);
  EXPECT_THROW(modeler.required_instances(1, 1.0, 0.1, 0), std::invalid_argument);
  ModelerConfig bad = default_config();
  bad.min_vms = 10;
  bad.max_vms = 5;
  EXPECT_THROW(PerformanceModeler(web_qos(), bad), std::invalid_argument);
  bad = default_config();
  bad.rejection_tolerance = 1.5;
  EXPECT_THROW(PerformanceModeler(web_qos(), bad), std::invalid_argument);
}

TEST(PerformanceModeler, PredictionsMatchUnderlyingQueueModel) {
  PerformanceModeler modeler(web_qos(), default_config());
  const ModelerDecision d = modeler.required_instances(10, 500.0, 0.105, 2);
  const auto q = queueing::mm1k(500.0 / static_cast<double>(d.instances),
                                1.0 / 0.105, 2);
  EXPECT_NEAR(d.predicted_rejection, q.blocking_probability, 1e-12);
  EXPECT_NEAR(d.predicted_response_time, q.mean_response_time, 1e-12);
}

TEST(ModelerEdge, ResponseTimeCheckCanBeTheBindingConstraint) {
  // Deep queue (k = 10) with Ts = 0.55 s and Tm = 0.1 s: blocking at rho
  // near 1 stays small, but Tq approaches k * Tm = 1.0 s > Ts, so the
  // response check must drive the scale-up.
  QosTargets qos;
  qos.max_response_time = 0.55;
  qos.min_utilization = 0.5;
  ModelerConfig config;
  config.max_vms = 1000;
  config.rejection_tolerance = 0.9;  // effectively disable the blocking check
  config.max_offered_load = 10.0;    // and the saturation guard
  PerformanceModeler modeler(qos, config);
  const ModelerDecision d = modeler.required_instances(1, 100.0, 0.1, 10);
  // The decision's predicted response must honour Ts.
  EXPECT_LE(d.predicted_response_time, 0.55);
  // And the pool must be large enough that rho < 1 comfortably.
  EXPECT_GT(d.instances, 10u);
}

}  // namespace
}  // namespace cloudprov
