#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/adaptive_policy.h"
#include "core/application_provisioner.h"
#include "core/vertical_policy.h"
#include "core/workload_analyzer.h"
#include "predict/ewma.h"
#include "predict/periodic_profile.h"

namespace cloudprov {
namespace {

struct Fixture {
  Simulation sim;
  Datacenter datacenter{sim, dc_config(), std::make_unique<LeastLoadedPlacement>()};
  ApplicationProvisioner provisioner{sim, datacenter, QosTargets{}, prov_config()};

  static DatacenterConfig dc_config() {
    DatacenterConfig config;
    config.host_count = 8;
    return config;
  }
  static ProvisionerConfig prov_config() {
    ProvisionerConfig config;
    config.initial_service_time_estimate = 0.1;
    return config;
  }

  void inject_requests(std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      Request r;
      r.id = i + 1;
      r.arrival_time = sim.now();
      r.service_demand = 0.1;
      provisioner.on_request(r);
    }
  }
};

TEST(WorkloadAnalyzer, IssuesInitialAlertOnStart) {
  Fixture f;
  auto predictor = std::make_shared<EwmaPredictor>(0.5, 0.0);
  AnalyzerConfig config;
  WorkloadAnalyzer analyzer(f.sim, f.provisioner, predictor, config);
  std::vector<std::pair<SimTime, double>> alerts;
  analyzer.start([&](SimTime t, double rate) { alerts.emplace_back(t, rate); });
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].first, 0.0);
}

TEST(WorkloadAnalyzer, FeedsObservedWindowRatesToPredictor) {
  Fixture f;
  f.provisioner.scale_to(8);
  auto predictor = std::make_shared<EwmaPredictor>(1.0, 0.0);  // mirror last
  AnalyzerConfig config;
  config.analysis_interval = 10.0;
  WorkloadAnalyzer analyzer(f.sim, f.provisioner, predictor, config);
  analyzer.start([](SimTime, double) {});
  // 50 arrivals in the first 10-second window -> observed rate 5/s.
  f.sim.schedule_at(1.0, [&] { f.inject_requests(50); });
  f.sim.run(10.5);
  EXPECT_NEAR(predictor->current(), 5.0, 1e-9);
}

TEST(WorkloadAnalyzer, AlertsEveryIntervalWithoutEpsilon) {
  Fixture f;
  auto predictor = std::make_shared<EwmaPredictor>(0.5, 0.0);
  AnalyzerConfig config;
  config.analysis_interval = 5.0;
  WorkloadAnalyzer analyzer(f.sim, f.provisioner, predictor, config);
  int alerts = 0;
  analyzer.start([&](SimTime, double) { ++alerts; });
  f.sim.run(24.9);
  EXPECT_EQ(alerts, 1 + 4);  // initial + t = 5, 10, 15, 20
}

TEST(WorkloadAnalyzer, EpsilonSuppressesUnchangedPredictions) {
  Fixture f;
  // Constant-profile predictor: rate never changes after the first alert.
  auto predictor = std::make_shared<PeriodicProfilePredictor>(
      std::vector<ProfileEntry>{{-1, 0.0, 100.0}}, 1);
  AnalyzerConfig config;
  config.analysis_interval = 5.0;
  config.change_epsilon = 0.01;
  WorkloadAnalyzer analyzer(f.sim, f.provisioner, predictor, config);
  int alerts = 0;
  analyzer.start([&](SimTime, double) { ++alerts; });
  f.sim.run(100.0);
  EXPECT_EQ(alerts, 1);  // only the initial alert
}

TEST(WorkloadAnalyzer, LeadTimeLooksAhead) {
  Fixture f;
  // Profile: 10 req/s until t = 100, then 50 req/s.
  auto predictor = std::make_shared<PeriodicProfilePredictor>(
      std::vector<ProfileEntry>{{-1, 0.0, 10.0}, {-1, 100.0, 50.0}}, 1);
  AnalyzerConfig config;
  config.analysis_interval = 10.0;
  config.lead_time = 20.0;
  WorkloadAnalyzer analyzer(f.sim, f.provisioner, predictor, config);
  std::vector<std::pair<SimTime, double>> alerts;
  analyzer.start([&](SimTime t, double rate) { alerts.emplace_back(t, rate); });
  f.sim.run(120.0);
  // The alert carrying the 50 req/s rate must fire at t = 80 (lead 20 s).
  bool found = false;
  for (const auto& [t, rate] : alerts) {
    if (rate == 50.0) {
      EXPECT_EQ(t, 80.0);
      found = true;
      break;
    }
  }
  EXPECT_TRUE(found);
}

TEST(WorkloadAnalyzer, StopHaltsAlerts) {
  Fixture f;
  auto predictor = std::make_shared<EwmaPredictor>(0.5, 0.0);
  AnalyzerConfig config;
  config.analysis_interval = 5.0;
  WorkloadAnalyzer analyzer(f.sim, f.provisioner, predictor, config);
  int alerts = 0;
  analyzer.start([&](SimTime, double) { ++alerts; });
  f.sim.schedule_at(12.0, [&] { analyzer.stop(); });
  f.sim.run(100.0);
  EXPECT_EQ(alerts, 3);  // t = 0, 5, 10
}

TEST(AdaptivePolicy, ScalesPoolOnAlerts) {
  Fixture f;
  // Step profile: 10 req/s, then 40 req/s from t = 60.
  auto predictor = std::make_shared<PeriodicProfilePredictor>(
      std::vector<ProfileEntry>{{-1, 0.0, 10.0}, {-1, 60.0, 40.0}}, 1);
  ModelerConfig modeler;
  modeler.max_vms = 64;
  AnalyzerConfig analyzer_config;
  analyzer_config.analysis_interval = 10.0;
  analyzer_config.lead_time = 10.0;
  AdaptivePolicy policy(f.sim, predictor, modeler, analyzer_config);
  policy.attach(f.provisioner);
  // Initial sizing for 10 req/s * 0.1 s = 1 erlang -> 1-2 instances.
  const std::size_t initial = f.provisioner.active_instances();
  EXPECT_GE(initial, 1u);
  EXPECT_LE(initial, 2u);
  f.sim.run(120.0);
  // After the step the pool must reach 40 * 0.1 / [0.8, 0.9] ~ 5 instances.
  EXPECT_GE(f.provisioner.active_instances(), 4u);
  EXPECT_LE(f.provisioner.active_instances(), 6u);
  EXPECT_FALSE(policy.decisions().empty());
  EXPECT_EQ(policy.name(), "Adaptive");
}

TEST(AdaptivePolicy, AttachTwiceThrows) {
  Fixture f;
  auto predictor = std::make_shared<EwmaPredictor>(0.5, 0.0);
  AdaptivePolicy policy(f.sim, predictor, ModelerConfig{}, AnalyzerConfig{});
  policy.attach(f.provisioner);
  EXPECT_THROW(policy.attach(f.provisioner), std::logic_error);
}

TEST(VerticalPolicy, AdjustsInstanceSpeedToTrackLoad) {
  Fixture f;
  auto predictor = std::make_shared<PeriodicProfilePredictor>(
      std::vector<ProfileEntry>{{-1, 0.0, 20.0}, {-1, 50.0, 80.0}}, 1);
  VerticalScalingConfig config;
  config.instances = 4;
  config.target_utilization = 0.8;
  config.base_service_time = 0.1;
  config.min_speed = 0.25;
  config.max_speed = 8.0;
  AnalyzerConfig analyzer_config;
  analyzer_config.analysis_interval = 10.0;
  analyzer_config.lead_time = 0.0;
  VerticalScalingPolicy policy(f.sim, predictor, config, analyzer_config);
  policy.attach(f.provisioner);
  EXPECT_EQ(f.provisioner.active_instances(), 4u);
  // At 20 req/s: speed = 20 * 0.1 / (4 * 0.8) = 0.625.
  double speed = 0.0;
  f.provisioner.for_each_instance([&](Vm& vm) { speed = vm.spec().speed; });
  EXPECT_NEAR(speed, 0.625, 1e-9);
  f.sim.run(60.0);
  // At 80 req/s: speed = 80 * 0.1 / (4 * 0.8) = 2.5.
  f.provisioner.for_each_instance([&](Vm& vm) { speed = vm.spec().speed; });
  EXPECT_NEAR(speed, 2.5, 1e-9);
  EXPECT_GE(policy.history().size(), 2u);
}

TEST(VerticalPolicy, ClampsSpeedRange) {
  Fixture f;
  auto predictor = std::make_shared<PeriodicProfilePredictor>(
      std::vector<ProfileEntry>{{-1, 0.0, 10000.0}}, 1);
  VerticalScalingConfig config;
  config.instances = 2;
  config.max_speed = 3.0;
  VerticalScalingPolicy policy(f.sim, predictor, config, AnalyzerConfig{});
  policy.attach(f.provisioner);
  double speed = 0.0;
  f.provisioner.for_each_instance([&](Vm& vm) { speed = vm.spec().speed; });
  EXPECT_EQ(speed, 3.0);
}

TEST(VerticalConfig, QosFloorAboveMaxSpeedThrows) {
  Simulation sim;
  DatacenterConfig dc;
  dc.host_count = 2;
  Datacenter datacenter(sim, dc, std::make_unique<LeastLoadedPlacement>());
  QosTargets qos;
  qos.max_response_time = 0.1;  // needs speed >= 1.0 * (1+margin) for 0.1 s work
  ProvisionerConfig prov_config;
  prov_config.initial_service_time_estimate = 0.1;
  ApplicationProvisioner provisioner(sim, datacenter, qos, prov_config);
  VerticalScalingConfig config;
  config.instances = 1;
  config.base_service_time = 0.1;
  config.max_speed = 1.0;  // below the QoS floor 1.15
  VerticalScalingPolicy policy(
      sim, std::make_shared<EwmaPredictor>(0.5, 0.0), config, AnalyzerConfig{});
  EXPECT_THROW(policy.attach(provisioner), std::invalid_argument);
}

}  // namespace
}  // namespace cloudprov
