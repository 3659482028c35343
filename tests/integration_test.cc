// Cross-module integration tests.
//
// The most important suite here validates the discrete-event simulator
// against the closed-form queueing models — the same methodological link the
// paper depends on (its modeler assumes the simulated system behaves like
// the Figure-2 queueing network).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>
#include <utility>

#include "cloud/broker.h"
#include "core/adaptive_policy.h"
#include "core/application_provisioner.h"
#include "core/provisioning_policy.h"
#include "predict/ewma.h"
#include "predict/hybrid.h"
#include "predict/moving_average.h"
#include "predict/oracle.h"
#include "predict/periodic_profile.h"
#include "queueing/mm1.h"
#include "queueing/mm1k.h"
#include "queueing/mmc.h"
#include "workload/bot_workload.h"
#include "workload/mmpp_source.h"
#include "workload/poisson_source.h"
#include "workload/trace.h"

namespace cloudprov {
namespace {

struct World {
  Simulation sim;
  Datacenter datacenter;
  ApplicationProvisioner provisioner;

  World(QosTargets qos, ProvisionerConfig config, std::size_t hosts = 64)
      : datacenter(sim, make_dc(hosts), std::make_unique<LeastLoadedPlacement>()),
        provisioner(sim, datacenter, qos, config) {}

  static DatacenterConfig make_dc(std::size_t hosts) {
    DatacenterConfig config;
    config.host_count = hosts;
    return config;
  }
};

// ----------------------------------------------------------------------
// Simulated M/M/1/k vs closed form: one instance with exponential service,
// Poisson arrivals, and the provisioner's k-bound admission control.
// ----------------------------------------------------------------------

struct Mm1kCase {
  double lambda;
  double mu;
  std::size_t k;
};

// Without this, gtest prints the case as raw bytes and ctest names each test
// after that dump.
void PrintTo(const Mm1kCase& c, std::ostream* os) {
  *os << "lambda=" << c.lambda << " mu=" << c.mu << " k=" << c.k;
}

class SimulatedMm1kTest : public ::testing::TestWithParam<Mm1kCase> {};

TEST_P(SimulatedMm1kTest, RejectionAndResponseMatchTheory) {
  const Mm1kCase& c = GetParam();
  QosTargets qos;
  // Force queue bound k via the fixed override; Ts only matters for
  // violation counting here.
  qos.max_response_time = 1e9;
  ProvisionerConfig config;
  config.fixed_queue_bound = c.k;
  config.initial_service_time_estimate = 1.0 / c.mu;
  World world(qos, config);
  world.provisioner.scale_to(1);

  const double horizon = 400000.0 / c.lambda;  // ~400k offered requests
  PoissonSource source(
      c.lambda, std::make_shared<ExponentialDistribution>(c.mu), 0.0, horizon);
  Broker broker(world.sim, source, world.provisioner, Rng(c.k * 1000 + 7));
  broker.start();
  world.sim.run();

  const auto theory = queueing::mm1k(c.lambda, c.mu, c.k);
  EXPECT_NEAR(world.provisioner.rejection_rate(), theory.blocking_probability,
              0.01 + 0.05 * theory.blocking_probability);
  EXPECT_NEAR(world.provisioner.response_time_stats().mean(),
              theory.mean_response_time, 0.03 * theory.mean_response_time);
  // Server utilization = busy fraction = 1 - P0.
  EXPECT_NEAR(world.datacenter.utilization(), theory.server_utilization,
              0.02);
}

INSTANTIATE_TEST_SUITE_P(
    LoadSweep, SimulatedMm1kTest,
    ::testing::Values(Mm1kCase{2.0, 10.0, 2},   // light load
                      Mm1kCase{8.0, 10.0, 2},   // the paper's rho ~ 0.8, k = 2
                      Mm1kCase{9.5, 10.0, 3},   // heavy load
                      Mm1kCase{15.0, 10.0, 2},  // overload
                      Mm1kCase{5.0, 10.0, 1})); // loss system

TEST(SimulatedPool, GlobalAdmissionBeatsIndependentSplitModel) {
  // The paper's conservatism argument (DESIGN.md): with m instances and
  // round-robin + reject-only-when-all-full admission, simulated rejection is
  // far below the per-instance M/M/1/k model's prediction.
  QosTargets qos;
  qos.max_response_time = 1e9;
  ProvisionerConfig config;
  config.fixed_queue_bound = 2;
  config.initial_service_time_estimate = 0.1;
  World world(qos, config);
  const std::size_t m = 20;
  world.provisioner.scale_to(m);

  const double mu = 10.0;
  const double lambda = 0.85 * mu * static_cast<double>(m);  // rho = 0.85
  PoissonSource source(lambda, std::make_shared<ExponentialDistribution>(mu),
                       0.0, 5000.0);
  Broker broker(world.sim, source, world.provisioner, Rng(77));
  broker.start();
  world.sim.run();

  const double model_rejection =
      queueing::mm1k(lambda / static_cast<double>(m), mu, 2).blocking_probability;
  EXPECT_GT(model_rejection, 0.25);  // the model is pessimistic...
  EXPECT_LT(world.provisioner.rejection_rate(), 0.05);  // ...the system is not
}

TEST(SimulatedPool, ErlangLossSystemMatchesMmck) {
  // m instances with k = 1 behave as M/M/m/m (Erlang loss): global admission
  // sends a request to any idle instance and rejects only when all are busy.
  QosTargets qos;
  qos.max_response_time = 1e9;
  ProvisionerConfig config;
  config.fixed_queue_bound = 1;
  config.initial_service_time_estimate = 0.2;
  World world(qos, config);
  world.provisioner.scale_to(5);

  const double lambda = 20.0;
  const double mu = 5.0;
  PoissonSource source(lambda, std::make_shared<ExponentialDistribution>(mu),
                       0.0, 20000.0);
  Broker broker(world.sim, source, world.provisioner, Rng(31));
  broker.start();
  world.sim.run();

  const auto theory = queueing::mmck(lambda, mu, 5, 5);
  EXPECT_NEAR(world.provisioner.rejection_rate(), theory.blocking_probability,
              0.015);
  // No queueing is possible with k = 1: response time == service time.
  EXPECT_NEAR(world.provisioner.response_time_stats().mean(), 1.0 / mu,
              0.01 / mu);
}

// ----------------------------------------------------------------------
// End-to-end adaptive behavior on miniature scenarios.
// ----------------------------------------------------------------------

TEST(EndToEnd, AdmissionControlPreventsQosViolations) {
  // Paper (Figures 5/6 captions): "Admission control mechanism in place in
  // all scenarios successfully prevented QoS violations." With k = Ts/Tr and
  // bounded demands, no accepted request can exceed Ts.
  QosTargets qos;
  qos.max_response_time = 0.250;
  ProvisionerConfig config;
  config.initial_service_time_estimate = 0.105;
  World world(qos, config);
  world.provisioner.scale_to(3);  // deliberately undersized: heavy rejection

  PoissonSource source(
      60.0, std::make_shared<ScaledUniformDistribution>(0.100, 0.10), 0.0,
      2000.0);
  Broker broker(world.sim, source, world.provisioner, Rng(5));
  broker.start();
  world.sim.run();

  EXPECT_GT(world.provisioner.rejected(), 0u);
  EXPECT_EQ(world.provisioner.qos_violations(), 0u);
  EXPECT_LE(world.provisioner.response_time_stats().max(),
            qos.max_response_time);
}

TEST(EndToEnd, AdaptiveTracksLoadStepUpAndDown) {
  QosTargets qos;
  qos.max_response_time = 0.250;
  qos.min_utilization = 0.8;
  ProvisionerConfig config;
  config.initial_service_time_estimate = 0.105;
  World world(qos, config);

  // Piecewise Poisson via trace: 20 req/s for 600 s, 80 req/s for 600 s,
  // 10 req/s for 600 s.
  WorkloadTrace trace;
  Rng gen(11);
  double t = 0.0;
  auto extend = [&](double rate, double until) {
    while (true) {
      t += gen.exponential(rate);
      if (t >= until) {
        t = until;
        break;
      }
      trace.arrivals.push_back(Arrival{t, 0.1 * gen.uniform(1.0, 1.1)});
    }
  };
  extend(20.0, 600.0);
  extend(80.0, 1200.0);
  extend(10.0, 1800.0);
  TraceSource source(trace, 60.0);

  ModelerConfig modeler;
  modeler.max_vms = 200;
  AnalyzerConfig analyzer;
  analyzer.analysis_interval = 30.0;
  analyzer.lead_time = 30.0;
  AdaptivePolicy policy(world.sim,
                        std::make_shared<OraclePredictor>(source, 0.05), modeler,
                        analyzer);
  Broker broker(world.sim, source, world.provisioner, Rng(12));
  policy.attach(world.provisioner);
  broker.start();
  world.sim.run(1800.0);

  // Pool sizes seen: ~3 at 20 req/s, ~10 at 80 req/s, ~2 at 10 req/s.
  TimeWeightedValue history = world.provisioner.instance_history();
  history.advance(1800.0);
  EXPECT_GE(history.max(), 9.0);
  EXPECT_LE(history.max(), 13.0);
  EXPECT_LE(history.current(), 4.0);  // scaled back down at the end
  EXPECT_LT(world.provisioner.rejection_rate(), 0.02);
  EXPECT_EQ(world.provisioner.qos_violations(), 0u);
}

TEST(EndToEnd, AdaptiveUsesFewerVmHoursThanPeakStatic) {
  // The core economic claim: adaptive ~ matches the QoS of the largest
  // static pool at materially lower VM-hours.
  auto run_policy = [](std::unique_ptr<ProvisioningPolicy> policy,
                       Simulation& sim, World& world) {
    WorkloadTrace trace;
    Rng gen(21);
    double t = 0.0;
    while (t < 1200.0) {
      const double rate = (t < 600.0) ? 10.0 : 60.0;
      t += gen.exponential(rate);
      if (t < 1200.0) trace.arrivals.push_back(Arrival{t, 0.1});
    }
    TraceSource source(trace, 60.0);
    Broker broker(sim, source, world.provisioner, Rng(22));
    policy->attach(world.provisioner);
    broker.start();
    sim.run(1200.0);
    return world.datacenter.vm_hours();
  };

  QosTargets qos;
  qos.max_response_time = 0.3;
  ProvisionerConfig config;
  config.initial_service_time_estimate = 0.1;

  World adaptive_world(qos, config);
  ModelerConfig modeler;
  AnalyzerConfig analyzer_config;
  analyzer_config.analysis_interval = 30.0;
  // EWMA-free: use profile of the known steps.
  auto predictor = std::make_shared<PeriodicProfilePredictor>(
      std::vector<ProfileEntry>{{-1, 0.0, 11.0}, {-1, 570.0, 66.0}}, 1);
  const double adaptive_hours = run_policy(
      std::make_unique<AdaptivePolicy>(adaptive_world.sim, predictor, modeler,
                                       analyzer_config),
      adaptive_world.sim, adaptive_world);

  World static_world(qos, config);
  const double static_hours = run_policy(std::make_unique<StaticPolicy>(9),
                                         static_world.sim, static_world);

  EXPECT_LT(static_world.provisioner.rejection_rate(), 0.01);
  EXPECT_LT(adaptive_world.provisioner.rejection_rate(), 0.01);
  EXPECT_LT(adaptive_hours, 0.8 * static_hours);
}

TEST(EndToEnd, DeterministicAcrossRuns) {
  auto run_once = [] {
    QosTargets qos;
    qos.max_response_time = 0.25;
    ProvisionerConfig config;
    config.initial_service_time_estimate = 0.105;
    World world(qos, config);
    world.provisioner.scale_to(4);
    PoissonSource source(30.0,
                         std::make_shared<ScaledUniformDistribution>(0.1, 0.1),
                         0.0, 500.0);
    Broker broker(world.sim, source, world.provisioner, Rng(123));
    broker.start();
    world.sim.run();
    return std::tuple{world.provisioner.accepted(), world.provisioner.rejected(),
                      world.provisioner.response_time_stats().mean(),
                      world.sim.executed_events()};
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(BurstyProvisioning, HybridAbsorbsMmppBursts) {
  // MMPP ON/OFF load with 20x rate swings, provisioned adaptively with the
  // hybrid predictor (there is no valid profile for an MMPP): rejection must
  // stay moderate and the pool must swing with the bursts.
  Simulation sim;
  DatacenterConfig dc;
  dc.host_count = 16;
  Datacenter datacenter(sim, dc, std::make_unique<LeastLoadedPlacement>());
  QosTargets qos;
  qos.max_response_time = 0.25;
  ProvisionerConfig prov_config;
  prov_config.initial_service_time_estimate = 0.105;
  ApplicationProvisioner provisioner(sim, datacenter, qos, prov_config);

  MmppConfig mmpp;
  mmpp.states = {MmppState{100.0, 600.0}, MmppState{5.0, 600.0}};
  mmpp.service_demand = std::make_shared<ScaledUniformDistribution>(0.1, 0.1);
  mmpp.horizon = 20000.0;
  MmppSource source(mmpp);
  Broker broker(sim, source, provisioner, Rng(5));

  AnalyzerConfig analyzer;
  analyzer.analysis_interval = 30.0;
  analyzer.lead_time = 0.0;  // nothing to look ahead to
  ModelerConfig modeler;
  modeler.max_vms = 100;
  auto hybrid = std::make_shared<HybridPredictor>(
      std::make_shared<EwmaPredictor>(0.5, 0.3),
      std::make_shared<MovingAveragePredictor>(
          5, MovingAveragePredictor::Mode::kMax, 0.1));
  AdaptivePolicy policy(sim, hybrid, modeler, analyzer);
  policy.attach(provisioner);
  broker.start();
  sim.run(mmpp.horizon);

  TimeWeightedValue history = provisioner.instance_history();
  history.advance(sim.now());
  EXPECT_GE(history.max(), 10.0);   // sized up for ON bursts
  EXPECT_LE(history.min(), 4.0);    // shrank in OFF periods
  EXPECT_LT(provisioner.rejection_rate(), 0.08);  // burst onsets only
  EXPECT_EQ(provisioner.qos_violations(), 0u);
}

TEST(TraceDriven, PoliciesComparableOnIdenticalArrivals) {
  // Record one BoT day, then replay the identical trace under two static
  // sizes: every run sees the same arrivals, so the comparison is paired.
  BotWorkload workload{};
  Rng gen(9);
  const WorkloadTrace trace = WorkloadTrace::record(workload, gen);
  ASSERT_GT(trace.arrivals.size(), 5000u);

  auto run = [&](std::size_t instances) {
    Simulation sim;
    DatacenterConfig dc;
    dc.host_count = 32;
    Datacenter datacenter(sim, dc, std::make_unique<LeastLoadedPlacement>());
    QosTargets qos;
    qos.max_response_time = 700.0;
    ProvisionerConfig config;
    config.initial_service_time_estimate = 315.0;
    ApplicationProvisioner provisioner(sim, datacenter, qos, config);
    provisioner.scale_to(instances);
    TraceSource source(trace);
    Broker broker(sim, source, provisioner, Rng(1));
    broker.start();
    sim.run();
    return std::pair{provisioner.total_arrivals(), provisioner.rejected()};
  };

  const auto [offered_small, rejected_small] = run(30);
  const auto [offered_large, rejected_large] = run(90);
  EXPECT_EQ(offered_small, offered_large);  // identical arrival sequence
  EXPECT_EQ(offered_small, trace.arrivals.size());
  EXPECT_GT(rejected_small, 10u * std::max<std::uint64_t>(rejected_large, 1));
}

}  // namespace
}  // namespace cloudprov
