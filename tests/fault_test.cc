// Fault-domain failure model and self-healing reconciler tests (src/fault):
// host-crash cascades, boot failures/timeouts, outage windows, degradation,
// reconciler retry/backoff/abort semantics, and the determinism guarantees
// (fault streams independent of the workload stream; telemetry observational).
#include <gtest/gtest.h>

#include <memory>

#include "core/application_provisioner.h"
#include "experiment/runner.h"
#include "fault/fault_injector.h"
#include "fault/reconciler.h"
#include "metrics_equality.h"

namespace cloudprov {
namespace {

struct World {
  Simulation sim;
  Datacenter datacenter;

  explicit World(std::size_t hosts = 4, SimTime boot_delay = 0.0)
      : datacenter(sim, make_config(hosts, boot_delay),
                   std::make_unique<LeastLoadedPlacement>()) {}

  static DatacenterConfig make_config(std::size_t hosts, SimTime boot_delay) {
    DatacenterConfig config;
    config.host_count = hosts;
    config.vm_boot_delay = boot_delay;
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

ProvisionerConfig provisioner_config() {
  ProvisionerConfig config;
  config.initial_service_time_estimate = 0.1;
  return config;
}

QosTargets lenient_qos() {
  QosTargets qos;
  qos.max_response_time = 10.0;
  return qos;
}

// ---------------------------------------------------------------- host crash

TEST(HostCrash, KillsEveryResidentVmAndStopsAcceptingPlacements) {
  World world(2);  // 2 x 8 cores
  ApplicationProvisioner provisioner(world.sim, world.datacenter, lenient_qos(),
                                     provisioner_config());
  provisioner.scale_to(10);  // least-loaded: 5 per host

  const std::size_t killed = world.datacenter.fail_host(0);
  EXPECT_EQ(killed, 5u);
  EXPECT_EQ(provisioner.active_instances(), 5u);
  EXPECT_EQ(world.datacenter.live_vm_count(), 5u);
  EXPECT_EQ(world.datacenter.failed_hosts(), 1u);
  EXPECT_EQ(provisioner.failures_by_cause(FaultCause::kHostCrash), 5u);
  // The failed host is out of the placement pool: only 3 free slots remain.
  EXPECT_EQ(world.datacenter.remaining_capacity(VmSpec{}), 3u);
  EXPECT_EQ(provisioner.scale_to(10), 8u);
  // Crashing an already-failed host is a no-op.
  EXPECT_EQ(world.datacenter.fail_host(0), 0u);
  EXPECT_EQ(world.datacenter.failed_hosts(), 1u);
}

TEST(HostCrash, LostInFlightRequestsAreAttributedToTheHostCause) {
  World world(1);
  ApplicationProvisioner provisioner(world.sim, world.datacenter, lenient_qos(),
                                     provisioner_config());
  provisioner.scale_to(2);
  provisioner.on_request(make_request(1, 0.0, 5.0));
  provisioner.on_request(make_request(2, 0.0, 5.0));

  EXPECT_EQ(world.datacenter.fail_host(0), 2u);
  EXPECT_EQ(provisioner.lost_to_failures(), 2u);
  EXPECT_EQ(provisioner.lost_by_cause(FaultCause::kHostCrash), 2u);
  EXPECT_EQ(provisioner.lost_by_cause(FaultCause::kVmCrash), 0u);
  EXPECT_EQ(provisioner.active_instances(), 0u);
  world.sim.run();  // cancelled completions must not fire
  EXPECT_EQ(provisioner.completed(), 0u);
}

// ---------------------------------------------------------------- boot faults

TEST(BootFault, PlannedBootFailureFiresCallbackExactlyOnce) {
  Simulation sim;
  Vm vm(sim, 1, VmSpec{}, /*boot_delay=*/0.0, /*fail_boot=*/true);
  EXPECT_EQ(vm.state(), VmState::kBooting);  // even with zero delay
  EXPECT_TRUE(vm.boot_failure_planned());
  int calls = 0;
  FaultCause seen = FaultCause::kVmCrash;
  vm.set_failure_callback(
      [&](Vm&, FaultCause cause, const std::vector<Request>&) {
        ++calls;
        seen = cause;
      });
  sim.run();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(seen, FaultCause::kBootFailure);
  EXPECT_EQ(vm.state(), VmState::kDestroyed);
  // A destroyed VM cannot fail again; the callback never re-fires.
  EXPECT_THROW((void)vm.fail(), std::logic_error);
  EXPECT_EQ(calls, 1);
}

TEST(BootFault, ProvisionerDropsBootFailedInstanceAndCanReplaceIt) {
  World world(1);
  ApplicationProvisioner provisioner(world.sim, world.datacenter, lenient_qos(),
                                     provisioner_config());
  // First boot is planned to fail; subsequent ones are clean.
  int boots = 0;
  world.datacenter.set_boot_fault_sampler(
      [&boots](SimTime, SimTime base) {
        return Datacenter::BootOutcome{base, boots++ == 0};
      });
  provisioner.scale_to(1);
  EXPECT_EQ(provisioner.active_instances(), 1u);  // booting
  world.sim.run();
  EXPECT_EQ(provisioner.active_instances(), 0u);
  EXPECT_EQ(provisioner.failures_by_cause(FaultCause::kBootFailure), 1u);
  EXPECT_EQ(world.datacenter.live_vm_count(), 0u);  // resources released
  EXPECT_EQ(provisioner.scale_to(1), 1u);           // replacement placeable
}

TEST(BootFault, WatchdogFailsInstancesStuckInBoot) {
  World world(1, /*boot_delay=*/100.0);
  ProvisionerConfig config = provisioner_config();
  config.boot_timeout = 10.0;
  ApplicationProvisioner provisioner(world.sim, world.datacenter, lenient_qos(),
                                     config);
  provisioner.scale_to(1);
  world.sim.run();
  EXPECT_EQ(provisioner.boot_timeouts(), 1u);
  EXPECT_EQ(provisioner.active_instances(), 0u);
  EXPECT_EQ(world.datacenter.live_vm_count(), 0u);
}

TEST(BootFault, WatchdogPlusReconcilerReplacesStragglerBoot) {
  World world(1, /*boot_delay=*/1.0);
  ProvisionerConfig config = provisioner_config();
  config.boot_timeout = 10.0;
  ApplicationProvisioner provisioner(world.sim, world.datacenter, lenient_qos(),
                                     config);
  // First boot straggles far beyond the watchdog; replacements are normal.
  int boots = 0;
  world.datacenter.set_boot_fault_sampler(
      [&boots](SimTime, SimTime base) {
        return Datacenter::BootOutcome{boots++ == 0 ? 1000.0 : base, false};
      });
  ReconcilerConfig rc;
  rc.enabled = true;
  rc.interval = 5.0;
  Reconciler reconciler(world.sim, provisioner, rc);
  provisioner.scale_to(1);
  reconciler.start();
  world.sim.run(50.0);
  EXPECT_EQ(provisioner.boot_timeouts(), 1u);
  ASSERT_EQ(provisioner.active_instances(), 1u);
  provisioner.for_each_instance(
      [](Vm& vm) { EXPECT_EQ(vm.state(), VmState::kRunning); });
  reconciler.stop();
}

// ------------------------------------------------------- draining interactions

TEST(DrainFault, CrashOfDrainingInstanceDoesNotResurrectIt) {
  World world(1);
  ApplicationProvisioner provisioner(world.sim, world.datacenter, lenient_qos(),
                                     provisioner_config());
  provisioner.scale_to(2);
  provisioner.on_request(make_request(1, 0.0, 5.0));
  provisioner.on_request(make_request(2, 0.0, 5.0));
  provisioner.scale_to(1);  // both busy: one drains
  ASSERT_EQ(provisioner.draining_instances(), 1u);

  // Crash the draining instance (live index 1: actives first).
  EXPECT_EQ(provisioner.inject_instance_failure(1), 1u);
  EXPECT_EQ(provisioner.draining_instances(), 0u);
  EXPECT_EQ(provisioner.active_instances(), 1u);
  // Scale-up must create a fresh VM, not resurrect the crashed one.
  EXPECT_EQ(provisioner.scale_to(2), 2u);
  EXPECT_EQ(world.datacenter.total_vms_created(), 3u);
  world.sim.run();
  EXPECT_EQ(provisioner.completed(), 1u);  // the survivor's request
}

// ---------------------------------------------------------- fault injector

TEST(FaultInjectorTest, VmCrashStreamMatchesConfiguredRate) {
  World world;
  ApplicationProvisioner provisioner(world.sim, world.datacenter, lenient_qos(),
                                     provisioner_config());
  provisioner.scale_to(10);
  FaultPlan plan;
  plan.vm_mtbf = 1000.0;  // 10 instances -> ~1 failure / 100 s
  FaultInjector injector(world.sim, world.datacenter, provisioner, plan, 11);
  injector.start();
  // Keep the pool at 10 so the rate stays constant.
  PeriodicProcess heal(world.sim, 50.0, 50.0,
                       [&](SimTime) { provisioner.scale_to(10); });
  world.sim.run(20000.0);
  EXPECT_GT(injector.vm_crashes(), 140u);
  EXPECT_LT(injector.vm_crashes(), 270u);
  EXPECT_EQ(provisioner.instance_failures(), injector.vm_crashes());
  injector.stop();
  heal.stop();
}

TEST(FaultInjectorTest, IdleStreamsRetryWithoutFiring) {
  World world;
  ApplicationProvisioner provisioner(world.sim, world.datacenter, lenient_qos(),
                                     provisioner_config());
  FaultPlan plan;
  plan.vm_mtbf = 10.0;
  plan.host_mtbf = 10.0;  // no occupied hosts either
  FaultInjector injector(world.sim, world.datacenter, provisioner, plan, 12);
  injector.start();
  world.sim.run(500.0);
  EXPECT_EQ(injector.vm_crashes(), 0u);
  EXPECT_EQ(injector.host_crashes(), 0u);
  injector.stop();
}

TEST(FaultInjectorTest, StopWithPendingEventsIsSafeAndRestartable) {
  World world;
  ApplicationProvisioner provisioner(world.sim, world.datacenter, lenient_qos(),
                                     provisioner_config());
  provisioner.scale_to(4);
  FaultPlan plan;
  plan.vm_mtbf = 10.0;
  plan.outages.push_back({100.0, 200.0});
  FaultInjector injector(world.sim, world.datacenter, provisioner, plan, 13);
  injector.start();
  injector.stop();  // cancels the pending crash and both outage edges
  world.sim.run(1000.0);
  EXPECT_EQ(injector.vm_crashes(), 0u);
  EXPECT_EQ(provisioner.instance_failures(), 0u);
  EXPECT_FALSE(world.datacenter.allocation_suspended());

  injector.start();  // restartable; outage edges are in the past now
  world.sim.run(2000.0);
  EXPECT_GT(injector.vm_crashes(), 0u);
  injector.stop();
}

TEST(FaultInjectorTest, OutageWindowSuspendsAndRestoresAllocation) {
  World world(1);
  ApplicationProvisioner provisioner(world.sim, world.datacenter, lenient_qos(),
                                     provisioner_config());
  FaultPlan plan;
  plan.outages.push_back({100.0, 200.0});
  FaultInjector injector(world.sim, world.datacenter, provisioner, plan, 14);
  injector.start();

  world.sim.run(150.0);
  EXPECT_TRUE(world.datacenter.allocation_suspended());
  EXPECT_EQ(provisioner.scale_to(3), 0u);  // API down, not capacity
  world.sim.run(250.0);
  EXPECT_FALSE(world.datacenter.allocation_suspended());
  EXPECT_EQ(provisioner.scale_to(3), 3u);
  injector.stop();
}

TEST(FaultInjectorTest, ScriptedHostCrashFiresAtTheScriptedTime) {
  World world(2);
  ApplicationProvisioner provisioner(world.sim, world.datacenter, lenient_qos(),
                                     provisioner_config());
  provisioner.scale_to(8);  // 4 per host
  FaultPlan plan;
  plan.scripted.push_back({ScriptedFault::Kind::kHostCrash, 100.0, 0});
  FaultInjector injector(world.sim, world.datacenter, provisioner, plan, 15);
  injector.start();
  world.sim.run(99.0);
  EXPECT_EQ(world.datacenter.failed_hosts(), 0u);
  world.sim.run(101.0);
  EXPECT_EQ(world.datacenter.failed_hosts(), 1u);
  EXPECT_EQ(provisioner.active_instances(), 4u);
  EXPECT_EQ(provisioner.failures_by_cause(FaultCause::kHostCrash), 4u);
  injector.stop();
}

TEST(FaultInjectorTest, DegradedInstanceSlowsDownThenRecovers) {
  World world(1);
  ApplicationProvisioner provisioner(world.sim, world.datacenter, lenient_qos(),
                                     provisioner_config());
  provisioner.scale_to(1);
  Vm* vm = nullptr;
  provisioner.for_each_instance([&vm](Vm& v) { vm = &v; });
  ASSERT_NE(vm, nullptr);

  FaultPlan plan;
  plan.degraded_mtbf = 10000.0;
  plan.degraded_factor = 0.5;
  plan.degraded_duration = 5.0;
  FaultInjector injector(world.sim, world.datacenter, provisioner, plan, 16);
  injector.start();
  // Step until the (exponentially-timed) degradation hits.
  while (vm->spec().speed == 1.0 && world.sim.now() < 1e6) {
    ASSERT_TRUE(world.sim.step());
  }
  EXPECT_DOUBLE_EQ(vm->spec().speed, 0.5);
  EXPECT_EQ(injector.degradations(), 1u);
  // Restored after the degradation episode (mtbf is huge, so no second
  // episode lands in this window).
  world.sim.run(world.sim.now() + plan.degraded_duration + 0.1);
  EXPECT_DOUBLE_EQ(vm->spec().speed, 1.0);
  injector.stop();
}

// -------------------------------------------------------------- reconciler

TEST(ReconcilerTest, ReplacesCrashedInstanceWithinOneInterval) {
  World world(2);
  ApplicationProvisioner provisioner(world.sim, world.datacenter, lenient_qos(),
                                     provisioner_config());
  provisioner.scale_to(5);
  ReconcilerConfig rc;
  rc.enabled = true;
  rc.interval = 30.0;
  Reconciler reconciler(world.sim, provisioner, rc);
  reconciler.start();
  world.sim.schedule_at(40.0,
                        [&] { provisioner.inject_instance_failure(0); });
  world.sim.run(200.0);
  EXPECT_EQ(provisioner.active_instances(), 5u);
  EXPECT_EQ(reconciler.heals(), 1u);
  EXPECT_EQ(reconciler.retries(), 0u);
  // Deficit opened at t=40, healed at the t=60 tick: one 20 s MTTR sample.
  ASSERT_EQ(provisioner.recovery_time_stats().count(), 1u);
  EXPECT_DOUBLE_EQ(provisioner.recovery_time_stats().mean(), 20.0);
  EXPECT_DOUBLE_EQ(provisioner.deficit_seconds(), 20.0);
  reconciler.stop();
}

TEST(ReconcilerTest, BoundedBackoffAbortsThenHealsAfterOutage) {
  World world(1);
  ApplicationProvisioner provisioner(world.sim, world.datacenter, lenient_qos(),
                                     provisioner_config());
  provisioner.scale_to(4);
  FaultPlan plan;
  plan.outages.push_back({5.0, 300.0});
  FaultInjector injector(world.sim, world.datacenter, provisioner, plan, 17);
  ReconcilerConfig rc;
  rc.enabled = true;
  rc.interval = 10.0;
  rc.backoff_base = 5.0;
  rc.backoff_factor = 2.0;
  rc.backoff_max = 60.0;
  rc.max_retries = 3;
  Reconciler reconciler(world.sim, provisioner, rc);
  injector.start();
  reconciler.start();
  world.sim.schedule_at(22.0,
                        [&] { provisioner.inject_instance_failure(0); });
  world.sim.run(400.0);
  // Heals during the outage fall short -> 3 backoff retries, one abort,
  // then interval-cadence checking heals the pool once the outage lifts.
  EXPECT_EQ(reconciler.retries(), 3u);
  EXPECT_EQ(reconciler.aborts(), 1u);
  EXPECT_FALSE(reconciler.in_aborted_state());
  EXPECT_EQ(provisioner.active_instances(), 4u);
  ASSERT_EQ(provisioner.recovery_time_stats().count(), 1u);
  EXPECT_GT(provisioner.recovery_time_stats().mean(), 275.0);
  injector.stop();
  reconciler.stop();
}

// Regression: a commanded-target change mid-deficit (the adaptive policy
// re-sizing while the IaaS allocation API is down) must not reset the backoff
// ladder — otherwise every policy tick restarts fast retries and the
// reconciler hammers the provider for the whole outage.
TEST(ReconcilerTest, TargetChangeDuringOutageKeepsBackoffLadder) {
  World world(1);
  ApplicationProvisioner provisioner(world.sim, world.datacenter, lenient_qos(),
                                     provisioner_config());
  provisioner.scale_to(4);
  FaultPlan plan;
  plan.outages.push_back({5.0, 300.0});
  FaultInjector injector(world.sim, world.datacenter, provisioner, plan, 17);
  ReconcilerConfig rc;
  rc.enabled = true;
  rc.interval = 10.0;
  rc.backoff_base = 5.0;
  rc.backoff_factor = 2.0;
  rc.backoff_max = 60.0;
  rc.max_retries = 3;
  Reconciler reconciler(world.sim, provisioner, rc);
  injector.start();
  reconciler.start();
  world.sim.schedule_at(22.0,
                        [&] { provisioner.inject_instance_failure(0); });
  // Ladder so far: tick t=30 (heal falls short, retry in 5), retry t=35
  // (short, retry in 10). The target change lands between retries...
  world.sim.schedule_at(40.0, [&] { provisioner.scale_to(5); });
  world.sim.run(400.0);
  // ...and the t=45 retry must continue the escalation (attempt 3, then the
  // abort) rather than opening a fresh episode with its budget refilled.
  EXPECT_EQ(reconciler.retries(), rc.max_retries);
  EXPECT_EQ(reconciler.aborts(), 1u);
  EXPECT_FALSE(reconciler.in_aborted_state());
  EXPECT_EQ(provisioner.active_instances(), 5u);
  injector.stop();
  reconciler.stop();
}

TEST(ReconcilerTest, AvailabilityReflectsDeficitTime) {
  World world(1);
  ApplicationProvisioner provisioner(world.sim, world.datacenter, lenient_qos(),
                                     provisioner_config());
  provisioner.scale_to(4);
  ReconcilerConfig rc;
  rc.enabled = true;
  rc.interval = 10.0;
  Reconciler reconciler(world.sim, provisioner, rc);
  reconciler.start();
  world.sim.schedule_at(15.0,
                        [&] { provisioner.inject_instance_failure(0); });
  world.sim.run(100.0);
  // Deficit from t=15 to the t=20 tick.
  EXPECT_DOUBLE_EQ(provisioner.deficit_seconds(), 5.0);
  reconciler.stop();
}

// ---------------------------------------------------------------- fault plan

TEST(FaultPlanTest, EnabledAndValidation) {
  FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  plan.validate();  // defaults are valid
  plan.vm_mtbf = 3600.0;
  EXPECT_TRUE(plan.enabled());
  plan.boot_fail_prob = 1.5;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.boot_fail_prob = 0.0;
  plan.outages.push_back({200.0, 100.0});
  EXPECT_THROW(plan.validate(), std::invalid_argument);
}

TEST(FaultPlanTest, ParseOutageWindows) {
  const auto one = parse_outage_windows("100:200");
  ASSERT_EQ(one.size(), 1u);
  EXPECT_DOUBLE_EQ(one[0].begin, 100.0);
  EXPECT_DOUBLE_EQ(one[0].end, 200.0);

  const auto two = parse_outage_windows("0:1.5,3600:7200");
  ASSERT_EQ(two.size(), 2u);
  EXPECT_DOUBLE_EQ(two[0].end, 1.5);
  EXPECT_DOUBLE_EQ(two[1].begin, 3600.0);

  EXPECT_THROW(parse_outage_windows("abc"), std::invalid_argument);
  EXPECT_THROW(parse_outage_windows("100"), std::invalid_argument);
  EXPECT_THROW(parse_outage_windows("200:100"), std::invalid_argument);
  EXPECT_THROW(parse_outage_windows("100:200x"), std::invalid_argument);
}

// ------------------------------------------------------------- determinism

ScenarioConfig faulted_scenario() {
  ScenarioConfig config = scientific_scenario(1.0);
  config.horizon = 6.0 * 3600.0;
  config.bot.horizon = config.horizon;
  config.datacenter.vm_boot_delay = 30.0;
  config.boot_timeout = 120.0;
  config.fault.vm_mtbf = 2.0 * 3600.0;
  config.fault.host_mtbf = 12.0 * 3600.0;
  config.fault.boot_fail_prob = 0.05;
  config.fault.straggler_prob = 0.05;
  config.fault.outages.push_back({2.0 * 3600.0, 2.5 * 3600.0});
  config.reconciler.enabled = true;
  return config;
}

TEST(FaultDeterminism, SameSeedSameMetricsAndTelemetryIsObservational) {
  const ScenarioConfig config = faulted_scenario();
  const RunMetrics first =
      run_scenario(config, PolicySpec::adaptive(), 4242).metrics;
  const RunMetrics repeat =
      run_scenario(config, PolicySpec::adaptive(), 4242).metrics;
  expect_same_metrics(first, repeat, {"wall_seconds"});

  TelemetryOptions opts;
  opts.trace_capacity = 1 << 14;
  const RunMetrics traced =
      run_scenario(config, PolicySpec::adaptive(), 4242, opts).metrics;
  expect_same_metrics(first, traced, {"wall_seconds"});

  // The plan actually exercised the fault machinery.
  EXPECT_GT(first.instance_failures, 0u);
  EXPECT_GT(first.reconciler_heals, 0u);
  EXPECT_LT(first.availability, 1.0);
  EXPECT_GE(first.availability, 0.0);
}

TEST(FaultDeterminism, FaultStreamIsIndependentOfTheWorkloadStream) {
  // Enabling faults must not perturb the workload: the generated request
  // count is identical with and without the fault plan for the same seed.
  ScenarioConfig faulted = faulted_scenario();
  ScenarioConfig clean = faulted;
  clean.fault = FaultPlan{};
  clean.reconciler.enabled = false;
  clean.boot_timeout = 0.0;
  clean.datacenter.vm_boot_delay = 0.0;
  const RunMetrics with_faults =
      run_scenario(faulted, PolicySpec::adaptive(), 777).metrics;
  const RunMetrics without =
      run_scenario(clean, PolicySpec::adaptive(), 777).metrics;
  EXPECT_EQ(with_faults.generated, without.generated);
  EXPECT_EQ(without.instance_failures, 0u);
  EXPECT_DOUBLE_EQ(without.availability, 1.0);
}

TEST(FaultDeterminism, StaticPolicyHealsOnlyWithTheReconciler) {
  ScenarioConfig config = faulted_scenario();
  config.fault = FaultPlan{};
  config.datacenter.vm_boot_delay = 0.0;
  config.boot_timeout = 0.0;
  config.horizon = 2.0 * 3600.0;
  config.bot.horizon = config.horizon;
  config.fault.scripted.push_back(
      {ScriptedFault::Kind::kVmCrash, 1800.0, 0});
  config.fault.scripted.push_back(
      {ScriptedFault::Kind::kVmCrash, 1900.0, 1});

  const PolicySpec static15 = PolicySpec::fixed(15);
  config.reconciler.enabled = false;
  const RunMetrics bare = run_scenario(config, static15, 99).metrics;
  config.reconciler.enabled = true;
  const RunMetrics healed = run_scenario(config, static15, 99).metrics;

  EXPECT_EQ(bare.final_instances, 13u);  // permanent loss
  EXPECT_EQ(healed.final_instances, 15u);
  EXPECT_GE(healed.reconciler_heals, 2u);
  EXPECT_GT(bare.availability, 0.0);
  EXPECT_GT(healed.availability, bare.availability);
}

}  // namespace
}  // namespace cloudprov
