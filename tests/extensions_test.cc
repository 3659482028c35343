// Tests for the future-work extensions: failure injection, pricing models,
// the hybrid predictor, and the flash-crowd overlay.
#include <gtest/gtest.h>

#include <memory>

#include "fault/fault_injector.h"
#include "market/pricing.h"
#include "predict/ewma.h"
#include "predict/hybrid.h"
#include "predict/periodic_profile.h"
#include "workload/poisson_source.h"
#include "workload/spike_overlay.h"

namespace cloudprov {
namespace {

struct World {
  Simulation sim;
  Datacenter datacenter;

  explicit World(std::size_t hosts = 32)
      : datacenter(sim, make_dc(hosts), std::make_unique<LeastLoadedPlacement>()) {}

  static DatacenterConfig make_dc(std::size_t hosts) {
    DatacenterConfig config;
    config.host_count = hosts;
    return config;
  }
};

Request make_request(std::uint64_t id, SimTime t, double demand) {
  Request r;
  r.id = id;
  r.arrival_time = t;
  r.service_demand = demand;
  return r;
}

// ---------------------------------------------------------------- failures

TEST(Failure, VmFailLosesInFlightWork) {
  Simulation sim;
  Vm vm(sim, 1, VmSpec{});
  vm.submit(make_request(1, 0.0, 5.0));
  vm.submit(make_request(2, 0.0, 5.0));
  sim.run(1.0);
  const auto lost = vm.fail();
  ASSERT_EQ(lost.size(), 2u);
  EXPECT_EQ(vm.state(), VmState::kDestroyed);
  EXPECT_DOUBLE_EQ(vm.busy_seconds(), 1.0);  // partial work counted
  sim.run();  // cancelled completion must not fire
  EXPECT_EQ(vm.completed_requests(), 0u);
}

TEST(Failure, ProvisionerAccountsLostRequests) {
  World world;
  QosTargets qos;
  qos.max_response_time = 10.0;
  ProvisionerConfig config;
  config.initial_service_time_estimate = 1.0;
  ApplicationProvisioner provisioner(world.sim, world.datacenter, qos, config);
  provisioner.scale_to(2);
  provisioner.on_request(make_request(1, 0.0, 5.0));
  provisioner.on_request(make_request(2, 0.0, 5.0));
  const std::size_t lost = provisioner.inject_instance_failure(0);
  EXPECT_EQ(lost, 1u);
  EXPECT_EQ(provisioner.lost_to_failures(), 1u);
  EXPECT_EQ(provisioner.instance_failures(), 1u);
  EXPECT_EQ(provisioner.active_instances(), 1u);
  EXPECT_EQ(world.datacenter.live_vm_count(), 1u);
  // The surviving instance still completes its request.
  world.sim.run();
  EXPECT_EQ(provisioner.completed(), 1u);
}

TEST(Failure, FailedCapacityCanBeReprovisioned) {
  World world(1);  // 8 slots
  QosTargets qos;
  ProvisionerConfig config;
  ApplicationProvisioner provisioner(world.sim, world.datacenter, qos, config);
  provisioner.scale_to(8);
  provisioner.inject_instance_failure(3);
  EXPECT_EQ(provisioner.scale_to(8), 8u);  // host slot was released
}

TEST(Failure, InjectorFailsAtConfiguredRate) {
  World world;
  QosTargets qos;
  ProvisionerConfig config;
  ApplicationProvisioner provisioner(world.sim, world.datacenter, qos, config);
  provisioner.scale_to(10);
  FaultPlan plan;
  plan.vm_mtbf = 1000.0;  // 10 instances -> ~1 failure / 100 s
  FaultInjector injector(world.sim, world.datacenter, provisioner, plan, 11);
  injector.start();
  // Keep the pool at 10 via a reconciler, so the rate stays constant.
  PeriodicProcess reconcile(world.sim, 50.0, 50.0,
                            [&](SimTime) { provisioner.scale_to(10); });
  world.sim.run(20000.0);
  // Expect ~200 failures; allow generous slack.
  EXPECT_GT(injector.vm_crashes(), 140u);
  EXPECT_LT(injector.vm_crashes(), 270u);
  EXPECT_EQ(provisioner.instance_failures(), injector.vm_crashes());
}

TEST(Failure, InjectorSurvivesEmptyPool) {
  World world;
  QosTargets qos;
  ProvisionerConfig config;
  ApplicationProvisioner provisioner(world.sim, world.datacenter, qos, config);
  FaultPlan plan;
  plan.vm_mtbf = 10.0;
  FaultInjector injector(world.sim, world.datacenter, provisioner, plan, 12);
  injector.start();
  world.sim.run(500.0);
  EXPECT_EQ(injector.vm_crashes(), 0u);
}

// ---------------------------------------------------------------- pricing

TEST(Pricing, HourlyQuantumRoundsUp) {
  PricingPolicy hourly;
  hourly.billing_quantum = 3600.0;
  hourly.price_per_hour = 2.0;
  EXPECT_DOUBLE_EQ(billed_cost(1.0, hourly), 2.0);        // 1 s -> 1 h
  EXPECT_DOUBLE_EQ(billed_cost(3600.0, hourly), 2.0);     // exactly 1 h
  EXPECT_DOUBLE_EQ(billed_cost(3661.0, hourly), 4.0);     // 61 min -> 2 h
}

TEST(Pricing, PerSecondWithMinimum) {
  PricingPolicy per_second;
  per_second.billing_quantum = 1.0;
  per_second.minimum_billed = 60.0;
  EXPECT_NEAR(billed_cost(10.0, per_second), 60.0 / 3600.0, 1e-12);
  EXPECT_NEAR(billed_cost(7200.0, per_second), 2.0, 1e-12);
}

TEST(Pricing, ZeroLengthLifetime) {
  // A VM created and destroyed at the same instant bills nothing without a
  // minimum, and exactly the minimum with one.
  PricingPolicy hourly;  // quantum 3600, no minimum
  EXPECT_DOUBLE_EQ(billed_cost(0.0, hourly), 0.0);
  PricingPolicy per_second;
  per_second.billing_quantum = 1.0;
  EXPECT_DOUBLE_EQ(billed_cost(0.0, per_second), 0.0);
  PricingPolicy with_minimum;
  with_minimum.billing_quantum = 1.0;
  with_minimum.minimum_billed = 60.0;
  EXPECT_NEAR(billed_cost(0.0, with_minimum), 60.0 / 3600.0, 1e-12);
}

TEST(Pricing, LifetimeShorterThanMinimumBillsTheMinimum) {
  PricingPolicy policy;
  policy.billing_quantum = 3600.0;
  policy.minimum_billed = 3600.0;
  policy.price_per_hour = 3.0;
  EXPECT_DOUBLE_EQ(billed_cost(10.0, policy), 3.0);    // lifted to 1 h
  EXPECT_DOUBLE_EQ(billed_cost(3600.0, policy), 3.0);  // exactly the minimum
  EXPECT_DOUBLE_EQ(billed_cost(3601.0, policy), 6.0);  // past it: next quantum
}

TEST(Pricing, MinimumNotAMultipleOfTheQuantumRoundsUpFromTheMinimum) {
  // minimum 90 s with a 60 s quantum: the minimum itself is quantized, so
  // the shortest possible bill is 120 s, not 90.
  PricingPolicy policy;
  policy.billing_quantum = 60.0;
  policy.minimum_billed = 90.0;
  EXPECT_NEAR(billed_cost(0.0, policy), 120.0 / 3600.0, 1e-12);
  EXPECT_NEAR(billed_cost(89.0, policy), 120.0 / 3600.0, 1e-12);
  EXPECT_NEAR(billed_cost(100.0, policy), 120.0 / 3600.0, 1e-12);  // < 2 quanta
  EXPECT_NEAR(billed_cost(121.0, policy), 180.0 / 3600.0, 1e-12);
}

TEST(Pricing, RawCostEqualsVmHours) {
  PricingPolicy unit;
  const std::vector<SimTime> lifetimes{3600.0, 1800.0, 900.0};
  EXPECT_NEAR(raw_cost(lifetimes, unit), 1.75, 1e-12);
  // Billed cost under coarse quantum always >= raw cost.
  PricingPolicy hourly;
  hourly.billing_quantum = 3600.0;
  EXPECT_GE(billed_cost(lifetimes, hourly), raw_cost(lifetimes, unit));
  EXPECT_DOUBLE_EQ(billed_cost(lifetimes, hourly), 3.0);
}

TEST(Pricing, Validation) {
  PricingPolicy bad;
  bad.billing_quantum = 0.0;
  EXPECT_THROW(billed_cost(1.0, bad), std::invalid_argument);
  EXPECT_THROW(billed_cost(-1.0, PricingPolicy{}), std::invalid_argument);
}

// ---------------------------------------------------------------- hybrid

TEST(Hybrid, TakesMaxOfComponents) {
  auto profile = std::make_shared<PeriodicProfilePredictor>(
      std::vector<ProfileEntry>{{-1, 0.0, 50.0}}, 1);
  auto reactive = std::make_shared<EwmaPredictor>(1.0, 0.0);
  HybridPredictor hybrid(profile, reactive);
  // Observed load below profile: profile wins.
  hybrid.observe(0.0, 60.0, 20.0);
  EXPECT_NEAR(hybrid.predict(100.0), 50.0, 1e-12);
  // Flash crowd above profile: reactive wins.
  hybrid.observe(60.0, 120.0, 300.0);
  EXPECT_NEAR(hybrid.predict(130.0), 300.0, 1e-12);
}

TEST(Hybrid, FeedsObservationsToBothComponents) {
  auto reactive_a = std::make_shared<EwmaPredictor>(1.0, 0.0);
  auto reactive_b = std::make_shared<EwmaPredictor>(1.0, 0.0);
  HybridPredictor hybrid(reactive_a, reactive_b);
  hybrid.observe(0.0, 60.0, 10.0);
  EXPECT_EQ(reactive_a->current(), 10.0);
  EXPECT_EQ(reactive_b->current(), 10.0);
}

// ---------------------------------------------------------------- spikes

TEST(Spike, OverlayAddsArrivalsOnlyInWindow) {
  auto base = std::make_unique<PoissonSource>(
      5.0, std::make_shared<DeterministicDistribution>(0.1), 0.0, 3000.0);
  SpikeConfig spike;
  spike.start = 1000.0;
  spike.end = 2000.0;
  spike.extra_rate = 20.0;
  spike.service_demand = std::make_shared<DeterministicDistribution>(0.1);
  SpikeOverlaySource source(std::move(base), spike);

  Rng rng(13);
  std::size_t before = 0;
  std::size_t during = 0;
  std::size_t after = 0;
  SimTime last = 0.0;
  while (auto arrival = source.next(rng)) {
    ASSERT_GE(arrival->time, last);  // merged stream stays sorted
    last = arrival->time;
    if (arrival->time < 1000.0) {
      ++before;
    } else if (arrival->time < 2000.0) {
      ++during;
    } else {
      ++after;
    }
  }
  EXPECT_NEAR(static_cast<double>(before), 5000.0, 350.0);
  EXPECT_NEAR(static_cast<double>(during), 25000.0, 800.0);
  EXPECT_NEAR(static_cast<double>(after), 5000.0, 350.0);
}

TEST(Spike, ExpectedRateHidesTheSpike) {
  auto base = std::make_unique<PoissonSource>(
      5.0, std::make_shared<DeterministicDistribution>(0.1), 0.0, 3000.0);
  SpikeConfig spike;
  spike.start = 1000.0;
  spike.end = 2000.0;
  spike.extra_rate = 20.0;
  spike.service_demand = std::make_shared<DeterministicDistribution>(0.1);
  SpikeOverlaySource source(std::move(base), spike);
  EXPECT_EQ(source.expected_rate(1500.0), 5.0);   // model view
  EXPECT_EQ(source.true_rate(1500.0), 25.0);      // reality
  EXPECT_EQ(source.true_rate(500.0), 5.0);
}

TEST(SpikeOverlay, BaseExhaustionStillDrainsSpike) {
  // Base ends before the spike window: spike arrivals must still be emitted.
  auto base = std::make_unique<PoissonSource>(
      5.0, std::make_shared<DeterministicDistribution>(0.1), 0.0, 10.0);
  SpikeConfig spike;
  spike.start = 50.0;
  spike.end = 60.0;
  spike.extra_rate = 10.0;
  spike.service_demand = std::make_shared<DeterministicDistribution>(0.1);
  SpikeOverlaySource source(std::move(base), spike);
  Rng rng(11);
  std::size_t in_spike = 0;
  while (auto a = source.next(rng)) {
    if (a->time >= 50.0 && a->time < 60.0) ++in_spike;
  }
  EXPECT_NEAR(static_cast<double>(in_spike), 100.0, 40.0);
}

}  // namespace
}  // namespace cloudprov
