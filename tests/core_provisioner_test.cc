#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/application_provisioner.h"
#include "core/provisioning_policy.h"

namespace cloudprov {
namespace {

struct Fixture {
  Simulation sim;
  Datacenter datacenter;
  ApplicationProvisioner provisioner;

  explicit Fixture(QosTargets qos = make_qos(), ProvisionerConfig config = make_config(),
                   std::unique_ptr<AdmissionPolicy> admission =
                       std::make_unique<KBoundAdmission>())
      : datacenter(sim, small_dc(), std::make_unique<LeastLoadedPlacement>()),
        provisioner(sim, datacenter, qos, config, std::move(admission)) {}

  static DatacenterConfig small_dc() {
    DatacenterConfig config;
    config.host_count = 4;  // 32 VM slots
    return config;
  }
  static QosTargets make_qos() {
    QosTargets qos;
    qos.max_response_time = 0.250;  // with Tm ~ 0.1 => k = 2
    return qos;
  }
  static ProvisionerConfig make_config() {
    ProvisionerConfig config;
    config.initial_service_time_estimate = 0.1;
    return config;
  }

  Request request(std::uint64_t id, double demand = 0.1) {
    Request r;
    r.id = id;
    r.arrival_time = sim.now();
    r.service_demand = demand;
    return r;
  }
};

TEST(Provisioner, QueueBoundFromEquationOne) {
  Fixture f;
  EXPECT_EQ(f.provisioner.current_queue_bound(), 2u);  // floor(0.25/0.1)
}

TEST(Provisioner, FixedQueueBoundOverrides) {
  ProvisionerConfig config = Fixture::make_config();
  config.fixed_queue_bound = 7;
  Fixture f(Fixture::make_qos(), config);
  EXPECT_EQ(f.provisioner.current_queue_bound(), 7u);
}

TEST(Provisioner, RejectsEverythingWithNoInstances) {
  Fixture f;
  f.provisioner.on_request(f.request(1));
  EXPECT_EQ(f.provisioner.rejected(), 1u);
  EXPECT_EQ(f.provisioner.accepted(), 0u);
}

TEST(Provisioner, RoundRobinSpreadsLoad) {
  Fixture f;
  f.provisioner.scale_to(3);
  // Three requests must land on three distinct instances.
  for (std::uint64_t i = 1; i <= 3; ++i) f.provisioner.on_request(f.request(i));
  std::vector<std::size_t> loads;
  f.provisioner.for_each_instance(
      [&](Vm& vm) { loads.push_back(vm.load()); });
  EXPECT_EQ(loads, (std::vector<std::size_t>{1, 1, 1}));
}

TEST(Provisioner, AdmissionRejectsWhenAllInstancesAtBound) {
  Fixture f;
  f.provisioner.scale_to(2);
  // k = 2, so capacity is 4 concurrent requests.
  for (std::uint64_t i = 1; i <= 4; ++i) f.provisioner.on_request(f.request(i));
  EXPECT_EQ(f.provisioner.accepted(), 4u);
  f.provisioner.on_request(f.request(5));
  EXPECT_EQ(f.provisioner.rejected(), 1u);
  // After one service completes a slot frees up again.
  f.sim.run(0.15);
  f.provisioner.on_request(f.request(6));
  EXPECT_EQ(f.provisioner.accepted(), 5u);
}

TEST(Provisioner, RoundRobinSkipsFullInstances) {
  Fixture f;
  f.provisioner.scale_to(2);
  // Fill instance 1 (the RR cursor moves 1 -> 2 -> 1...).
  f.provisioner.on_request(f.request(1));  // vm A
  f.provisioner.on_request(f.request(2));  // vm B
  f.provisioner.on_request(f.request(3));  // vm A (full now)
  f.provisioner.on_request(f.request(4));  // vm B (full now)
  std::vector<std::size_t> loads;
  f.provisioner.for_each_instance([&](Vm& vm) { loads.push_back(vm.load()); });
  EXPECT_EQ(loads, (std::vector<std::size_t>{2, 2}));
}

TEST(Provisioner, ScaleUpCreatesVmsInDatacenter) {
  Fixture f;
  EXPECT_EQ(f.provisioner.scale_to(5), 5u);
  EXPECT_EQ(f.datacenter.live_vm_count(), 5u);
  EXPECT_EQ(f.provisioner.active_instances(), 5u);
}

TEST(Provisioner, ScaleUpCappedByDatacenterCapacity) {
  Fixture f;
  EXPECT_EQ(f.provisioner.scale_to(100), 32u);  // 4 hosts x 8 cores
  EXPECT_EQ(f.datacenter.live_vm_count(), 32u);
}

TEST(Provisioner, ScaleDownDestroysIdleInstancesImmediately) {
  Fixture f;
  f.provisioner.scale_to(5);
  f.provisioner.scale_to(2);
  EXPECT_EQ(f.provisioner.active_instances(), 2u);
  EXPECT_EQ(f.provisioner.draining_instances(), 0u);  // idle => destroyed now
  EXPECT_EQ(f.datacenter.live_vm_count(), 2u);
}

TEST(Provisioner, ScaleDownDrainsBusyInstances) {
  Fixture f;
  f.provisioner.scale_to(2);
  f.provisioner.on_request(f.request(1, 1.0));
  f.provisioner.on_request(f.request(2, 1.0));
  f.provisioner.scale_to(1);
  // Both instances are busy: one keeps serving as active, one drains.
  EXPECT_EQ(f.provisioner.active_instances(), 1u);
  EXPECT_EQ(f.provisioner.draining_instances(), 1u);
  EXPECT_EQ(f.provisioner.live_instances(), 2u);
  f.sim.run();  // let requests finish
  EXPECT_EQ(f.provisioner.draining_instances(), 0u);
  EXPECT_EQ(f.datacenter.live_vm_count(), 1u);
  EXPECT_EQ(f.provisioner.completed(), 2u);  // drained VM finished its work
}

TEST(Provisioner, DrainingInstanceAcceptsNoNewRequests) {
  Fixture f;
  f.provisioner.scale_to(2);
  f.provisioner.on_request(f.request(1, 1.0));
  f.provisioner.on_request(f.request(2, 1.0));
  f.provisioner.scale_to(1);
  // k = 2: the single active instance has one slot left; next two requests:
  // one accepted there, one rejected (the draining instance must not take it).
  f.provisioner.on_request(f.request(3, 1.0));
  f.provisioner.on_request(f.request(4, 1.0));
  EXPECT_EQ(f.provisioner.accepted(), 3u);
  EXPECT_EQ(f.provisioner.rejected(), 1u);
}

TEST(Provisioner, ScaleUpResurrectsDrainingInstanceBeforeCreating) {
  Fixture f;
  f.provisioner.scale_to(2);
  f.provisioner.on_request(f.request(1, 10.0));
  f.provisioner.on_request(f.request(2, 10.0));
  f.provisioner.scale_to(1);
  EXPECT_EQ(f.provisioner.draining_instances(), 1u);
  const auto created_before = f.datacenter.total_vms_created();
  f.provisioner.scale_to(2);
  // No new VM was created; the draining one was resurrected.
  EXPECT_EQ(f.datacenter.total_vms_created(), created_before);
  EXPECT_EQ(f.provisioner.active_instances(), 2u);
  EXPECT_EQ(f.provisioner.draining_instances(), 0u);
}

TEST(Provisioner, ScaleDownPrefersIdleThenLeastLoaded) {
  Fixture g;
  g.provisioner.scale_to(3);
  g.provisioner.on_request(g.request(1, 5.0));  // vm0
  g.provisioner.on_request(g.request(2, 5.0));  // vm1
  // vm2 idle. Scaling to 2 must destroy the idle instance, keeping both busy
  // ones active.
  g.provisioner.scale_to(2);
  EXPECT_EQ(g.provisioner.draining_instances(), 0u);
  std::size_t busy = 0;
  g.provisioner.for_each_instance([&](Vm& vm) { busy += vm.load(); });
  EXPECT_EQ(busy, 2u);
}

TEST(Provisioner, ResponseStatsAndViolations) {
  QosTargets qos;
  qos.max_response_time = 0.15;  // k = floor(0.15/0.1) = 1: no queueing
  Fixture f(qos);
  f.provisioner.scale_to(1);
  f.provisioner.on_request(f.request(1, 0.1));
  f.sim.run();
  EXPECT_EQ(f.provisioner.completed(), 1u);
  EXPECT_NEAR(f.provisioner.response_time_stats().mean(), 0.1, 1e-12);
  EXPECT_EQ(f.provisioner.qos_violations(), 0u);
  // A demand exceeding Ts is a violation even without queueing.
  f.provisioner.on_request(f.request(2, 0.2));
  f.sim.run();
  EXPECT_EQ(f.provisioner.qos_violations(), 1u);
}

TEST(Provisioner, MonitoredServiceTimeTracksCompletions) {
  Fixture f;
  EXPECT_EQ(f.provisioner.monitored_service_time(), 0.1);  // initial estimate
  f.provisioner.scale_to(1);
  f.provisioner.on_request(f.request(1, 0.2));
  f.sim.run();
  EXPECT_NEAR(f.provisioner.monitored_service_time(), 0.2, 1e-12);
}

TEST(Provisioner, WindowArrivalCounter) {
  Fixture f;
  f.provisioner.scale_to(1);
  for (std::uint64_t i = 1; i <= 5; ++i) f.provisioner.on_request(f.request(i));
  EXPECT_EQ(f.provisioner.take_window_arrivals(), 5u);
  EXPECT_EQ(f.provisioner.take_window_arrivals(), 0u);
}

TEST(Provisioner, InstanceHistoryTracksScaling) {
  Fixture f;
  f.provisioner.scale_to(4);
  f.sim.schedule_at(10.0, [&] { f.provisioner.scale_to(1); });
  f.sim.run(20.0);
  TimeWeightedValue history = f.provisioner.instance_history();
  history.advance(20.0);
  EXPECT_EQ(history.max(), 4.0);
  EXPECT_EQ(history.min(), 1.0);  // history starts at the first scale action
  EXPECT_EQ(history.current(), 1.0);
  EXPECT_NEAR(history.time_average(), (10.0 * 4.0 + 10.0 * 1.0) / 20.0, 1e-9);
}

TEST(StaticPolicy, ProvisionsFixedPool) {
  Fixture f;
  StaticPolicy policy(7);
  policy.attach(f.provisioner);
  EXPECT_EQ(f.provisioner.active_instances(), 7u);
  EXPECT_EQ(policy.name(), "Static-7");
}

TEST(PriorityAdmission, ReservesSlotsForHighPriority) {
  auto admission = std::make_unique<PriorityAwareAdmission>(
      /*reserved_slots=*/2, /*priority_threshold=*/5);
  Fixture f(Fixture::make_qos(), Fixture::make_config(), std::move(admission));
  f.provisioner.scale_to(2);  // 4 slots total
  // Two low-priority requests fill half the pool: 2 slots remain, which is
  // at the reservation threshold -> further low-priority traffic is refused.
  f.provisioner.on_request(f.request(1, 1.0));
  f.provisioner.on_request(f.request(2, 1.0));
  Request low = f.request(3, 1.0);
  low.priority = 0;
  f.provisioner.on_request(low);
  EXPECT_EQ(f.provisioner.rejected(), 1u);
  Request high = f.request(4, 1.0);
  high.priority = 9;
  f.provisioner.on_request(high);
  EXPECT_EQ(f.provisioner.accepted(), 3u);
}

TEST(Provisioner, CapacityCapClampsAndRegrows) {
  Fixture f;
  // Uncapped behavior: desire == commanded.
  f.provisioner.scale_to(6);
  EXPECT_EQ(f.provisioner.active_instances(), 6u);
  EXPECT_EQ(f.provisioner.desired_target(), 6u);
  EXPECT_EQ(f.provisioner.commanded_target(), 6u);
  EXPECT_EQ(f.provisioner.capacity_clips(), 0u);

  // A tighter cap drains the pool down but preserves the raw desire.
  f.provisioner.set_capacity_cap(4);
  EXPECT_EQ(f.provisioner.active_instances(), 4u);
  EXPECT_EQ(f.provisioner.desired_target(), 6u);
  EXPECT_EQ(f.provisioner.commanded_target(), 4u);

  // scale_to above the cap clips (and counts the shortfall)...
  f.provisioner.scale_to(10);
  EXPECT_EQ(f.provisioner.active_instances(), 4u);
  EXPECT_EQ(f.provisioner.desired_target(), 10u);
  EXPECT_EQ(f.provisioner.capacity_clips(), 1u);
  EXPECT_EQ(f.provisioner.capacity_denied(), 6u);

  // ...and raising the cap regrows toward the remembered desire.
  f.provisioner.set_capacity_cap(8);
  EXPECT_EQ(f.provisioner.active_instances(), 8u);
  EXPECT_EQ(f.provisioner.commanded_target(), 8u);
  EXPECT_EQ(f.provisioner.desired_target(), 10u);

  // Below-cap requests pass through unclipped.
  f.provisioner.scale_to(3);
  EXPECT_EQ(f.provisioner.active_instances(), 3u);
  EXPECT_EQ(f.provisioner.capacity_clips(), 1u);
}

TEST(PriorityAdmission, RejectsInfeasibleDeadlines) {
  auto admission = std::make_unique<PriorityAwareAdmission>(0, 0);
  Fixture f(Fixture::make_qos(), Fixture::make_config(), std::move(admission));
  f.provisioner.scale_to(1);
  Request feasible = f.request(1, 0.1);
  feasible.deadline = 0.5;  // ~0.1 s of work, plenty of time
  f.provisioner.on_request(feasible);
  EXPECT_EQ(f.provisioner.accepted(), 1u);
  Request infeasible = f.request(2, 0.1);
  infeasible.deadline = 0.05;  // cannot finish before the deadline
  f.provisioner.on_request(infeasible);
  EXPECT_EQ(f.provisioner.rejected(), 1u);
}

}  // namespace
}  // namespace cloudprov
