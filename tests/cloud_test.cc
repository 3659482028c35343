#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cloud/broker.h"
#include "cloud/datacenter.h"
#include "cloud/host.h"
#include "cloud/placement.h"
#include "cloud/vm.h"
#include "workload/poisson_source.h"

namespace cloudprov {
namespace {

Request make_request(std::uint64_t id, SimTime arrival, double demand) {
  Request r;
  r.id = id;
  r.arrival_time = arrival;
  r.service_demand = demand;
  return r;
}

// ------------------------------------------------------------------- Vm

TEST(Vm, ServesFifoAndMeasuresResponseTime) {
  Simulation sim;
  Vm vm(sim, 1, VmSpec{});
  std::vector<std::pair<std::uint64_t, double>> completions;
  vm.set_completion_callback([&](Vm&, const Request& r, double response) {
    completions.emplace_back(r.id, response);
  });
  vm.submit(make_request(1, 0.0, 2.0));
  vm.submit(make_request(2, 0.0, 3.0));
  EXPECT_EQ(vm.load(), 2u);
  sim.run();
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_EQ(completions[0].first, 1u);
  EXPECT_DOUBLE_EQ(completions[0].second, 2.0);
  EXPECT_EQ(completions[1].first, 2u);
  EXPECT_DOUBLE_EQ(completions[1].second, 5.0);  // waited 2 s, served 3 s
  EXPECT_TRUE(vm.idle());
  EXPECT_DOUBLE_EQ(vm.busy_seconds(), 5.0);
  EXPECT_EQ(vm.completed_requests(), 2u);
}

TEST(Vm, SpeedScalesServiceTime) {
  Simulation sim;
  Vm vm(sim, 1, VmSpec{1, 2.0, 2.0});  // double speed
  double response = -1.0;
  vm.set_completion_callback(
      [&](Vm&, const Request&, double r) { response = r; });
  vm.submit(make_request(1, 0.0, 3.0));
  sim.run();
  EXPECT_DOUBLE_EQ(response, 1.5);
}

TEST(Vm, SetSpeedAppliesToSubsequentRequests) {
  Simulation sim;
  Vm vm(sim, 1, VmSpec{});
  std::vector<double> responses;
  vm.set_completion_callback(
      [&](Vm&, const Request&, double r) { responses.push_back(r); });
  vm.submit(make_request(1, 0.0, 1.0));
  vm.set_speed(4.0);  // in-flight request keeps old speed
  vm.submit(make_request(2, 0.0, 1.0));
  sim.run();
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_DOUBLE_EQ(responses[0], 1.0);
  EXPECT_DOUBLE_EQ(responses[1], 1.25);  // waited 1.0, served 0.25
}

TEST(Vm, BootDelayGatesAcceptance) {
  Simulation sim;
  Vm vm(sim, 1, VmSpec{}, /*boot_delay=*/5.0);
  EXPECT_EQ(vm.state(), VmState::kBooting);
  sim.run(4.0);
  EXPECT_EQ(vm.state(), VmState::kBooting);
  sim.run(5.0);
  EXPECT_EQ(vm.state(), VmState::kRunning);
}

TEST(Vm, SubmitWhileBootingIsAnError) {
  Simulation sim;
  Vm vm(sim, 1, VmSpec{}, 5.0);
  EXPECT_THROW(vm.submit(make_request(1, 0.0, 1.0)), std::logic_error);
}

TEST(Vm, DrainOnIdleInstanceFiresImmediately) {
  Simulation sim;
  Vm vm(sim, 1, VmSpec{});
  bool drained = false;
  vm.set_drained_callback([&](Vm&) { drained = true; });
  vm.drain();
  EXPECT_TRUE(drained);
  EXPECT_EQ(vm.state(), VmState::kDraining);
}

TEST(Vm, DrainWaitsForQueuedWork) {
  Simulation sim;
  Vm vm(sim, 1, VmSpec{});
  double drained_at = -1.0;
  vm.set_drained_callback([&](Vm& v) { drained_at = v.sim().now(); });
  vm.submit(make_request(1, 0.0, 1.0));
  vm.submit(make_request(2, 0.0, 1.0));
  vm.drain();
  EXPECT_THROW(vm.submit(make_request(3, 0.0, 1.0)), std::logic_error);
  sim.run();
  EXPECT_DOUBLE_EQ(drained_at, 2.0);  // after both requests finished
}

TEST(Vm, UndrainResumesAcceptance) {
  Simulation sim;
  Vm vm(sim, 1, VmSpec{});
  int drained_calls = 0;
  vm.set_drained_callback([&](Vm&) { ++drained_calls; });
  vm.submit(make_request(1, 0.0, 1.0));
  vm.drain();
  vm.undrain();
  EXPECT_EQ(vm.state(), VmState::kRunning);
  vm.submit(make_request(2, 0.0, 1.0));
  sim.run();
  EXPECT_EQ(drained_calls, 0);
  EXPECT_EQ(vm.completed_requests(), 2u);
}

TEST(Vm, DestroyRequiresIdle) {
  Simulation sim;
  Vm vm(sim, 1, VmSpec{});
  vm.submit(make_request(1, 0.0, 1.0));
  EXPECT_THROW(vm.destroy(), std::logic_error);
  sim.run();
  vm.destroy();
  EXPECT_EQ(vm.state(), VmState::kDestroyed);
  EXPECT_THROW(vm.destroy(), std::logic_error);
}

TEST(Vm, LifetimeAccounting) {
  Simulation sim;
  sim.schedule_at(10.0, [] {});
  sim.run();
  Vm vm(sim, 1, VmSpec{});
  sim.schedule_at(25.0, [&vm] { vm.destroy(); });
  sim.run();
  EXPECT_DOUBLE_EQ(vm.lifetime_seconds(100.0), 15.0);  // frozen at destruction
  ASSERT_TRUE(vm.destruction_time().has_value());
  EXPECT_DOUBLE_EQ(*vm.destruction_time(), 25.0);
}

TEST(Vm, BusySecondsIncludesInFlightWork) {
  Simulation sim;
  Vm vm(sim, 1, VmSpec{});
  vm.submit(make_request(1, 0.0, 4.0));
  sim.schedule_at(1.0, [&] { EXPECT_DOUBLE_EQ(vm.busy_seconds(), 1.0); });
  sim.run(1.0);
}

// ------------------------------------------------------------------- Host

TEST(Host, CapacityChecks) {
  Host host(0, HostSpec{8, 16.0});
  const VmSpec vm{1, 2.0, 1.0};
  EXPECT_TRUE(host.can_fit(vm));
  for (int i = 0; i < 8; ++i) host.allocate(vm);
  EXPECT_EQ(host.free_cores(), 0u);
  EXPECT_FALSE(host.can_fit(vm));
  EXPECT_EQ(host.vm_count(), 8u);
  host.release(vm);
  EXPECT_TRUE(host.can_fit(vm));
}

TEST(Host, RamCanBeTheBindingConstraint) {
  Host host(0, HostSpec{8, 4.0});
  const VmSpec vm{1, 2.0, 1.0};
  host.allocate(vm);
  host.allocate(vm);
  EXPECT_EQ(host.free_cores(), 6u);
  EXPECT_FALSE(host.can_fit(vm));  // out of RAM, not cores
}

TEST(Host, AllocateWithoutCapacityThrows) {
  Host host(0, HostSpec{1, 2.0});
  const VmSpec vm{1, 2.0, 1.0};
  host.allocate(vm);
  EXPECT_THROW(host.allocate(vm), std::logic_error);
  host.release(vm);
  EXPECT_THROW(host.release(vm), std::logic_error);
}

// ------------------------------------------------------------------- Placement

std::vector<Host> make_hosts(std::size_t n) {
  std::vector<Host> hosts;
  for (std::size_t i = 0; i < n; ++i) hosts.emplace_back(i, HostSpec{});
  return hosts;
}

TEST(Placement, LeastLoadedSpreadsVms) {
  auto hosts = make_hosts(3);
  LeastLoadedPlacement policy;
  const VmSpec vm{};
  for (int i = 0; i < 6; ++i) {
    Host* host = policy.select(hosts, vm);
    ASSERT_NE(host, nullptr);
    host->allocate(vm);
  }
  for (const Host& host : hosts) EXPECT_EQ(host.vm_count(), 2u);
}

TEST(Placement, FirstFitPacksDensely) {
  auto hosts = make_hosts(3);
  FirstFitPlacement policy;
  const VmSpec vm{};
  for (int i = 0; i < 8; ++i) {
    Host* host = policy.select(hosts, vm);
    ASSERT_NE(host, nullptr);
    host->allocate(vm);
  }
  EXPECT_EQ(hosts[0].vm_count(), 8u);
  EXPECT_EQ(hosts[1].vm_count(), 0u);
  Host* ninth = policy.select(hosts, vm);
  EXPECT_EQ(ninth, &hosts[1]);
}

TEST(Placement, RandomOnlyPicksFittingHosts) {
  auto hosts = make_hosts(3);
  const VmSpec vm{};
  // Fill host 0 completely.
  for (int i = 0; i < 8; ++i) hosts[0].allocate(vm);
  RandomPlacement policy{Rng(5)};
  for (int i = 0; i < 50; ++i) {
    Host* host = policy.select(hosts, vm);
    ASSERT_NE(host, nullptr);
    EXPECT_NE(host, &hosts[0]);
  }
}

TEST(Placement, AllPoliciesReturnNullWhenFull) {
  auto hosts = make_hosts(1);
  const VmSpec vm{};
  for (int i = 0; i < 8; ++i) hosts[0].allocate(vm);
  LeastLoadedPlacement least;
  FirstFitPlacement first;
  RandomPlacement random{Rng(1)};
  EXPECT_EQ(least.select(hosts, vm), nullptr);
  EXPECT_EQ(first.select(hosts, vm), nullptr);
  EXPECT_EQ(random.select(hosts, vm), nullptr);
}

// ------------------------------------------------------------------- Datacenter

TEST(Datacenter, CreateDestroyAccounting) {
  Simulation sim;
  DatacenterConfig config;
  config.host_count = 2;
  Datacenter dc(sim, config, std::make_unique<LeastLoadedPlacement>());
  EXPECT_EQ(dc.remaining_capacity(VmSpec{}), 16u);

  Vm* a = dc.create_vm(VmSpec{});
  Vm* b = dc.create_vm(VmSpec{});
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(dc.live_vm_count(), 2u);
  EXPECT_EQ(dc.remaining_capacity(VmSpec{}), 14u);

  sim.schedule_at(3600.0, [&] { dc.destroy_vm(*a); });
  sim.run(7200.0);
  EXPECT_EQ(dc.live_vm_count(), 1u);
  // a lived 1 h, b is still alive at 2 h => 3 VM hours total.
  EXPECT_NEAR(dc.vm_hours(), 3.0, 1e-9);
  EXPECT_EQ(dc.total_vms_created(), 2u);
}

TEST(Datacenter, UtilizationIsBusyOverLifetime) {
  Simulation sim;
  DatacenterConfig config;
  config.host_count = 1;
  Datacenter dc(sim, config, std::make_unique<LeastLoadedPlacement>());
  Vm* vm = dc.create_vm(VmSpec{});
  ASSERT_NE(vm, nullptr);
  vm->submit(make_request(1, 0.0, 1800.0));  // busy half of the first hour
  sim.run(3600.0);
  EXPECT_NEAR(dc.utilization(), 0.5, 1e-9);
}

TEST(Datacenter, ReturnsNullWhenFull) {
  Simulation sim;
  DatacenterConfig config;
  config.host_count = 1;
  Datacenter dc(sim, config, std::make_unique<FirstFitPlacement>());
  for (int i = 0; i < 8; ++i) ASSERT_NE(dc.create_vm(VmSpec{}), nullptr);
  EXPECT_EQ(dc.create_vm(VmSpec{}), nullptr);
  EXPECT_EQ(dc.live_vm_count(), 8u);
}

TEST(Datacenter, DestroyFreesHostCapacity) {
  Simulation sim;
  DatacenterConfig config;
  config.host_count = 1;
  Datacenter dc(sim, config, std::make_unique<FirstFitPlacement>());
  std::vector<Vm*> vms;
  for (int i = 0; i < 8; ++i) vms.push_back(dc.create_vm(VmSpec{}));
  dc.destroy_vm(*vms[3]);
  EXPECT_NE(dc.create_vm(VmSpec{}), nullptr);
}

TEST(Datacenter, BootDelayPropagatesToVms) {
  Simulation sim;
  DatacenterConfig config;
  config.host_count = 1;
  config.vm_boot_delay = 30.0;
  Datacenter dc(sim, config, std::make_unique<LeastLoadedPlacement>());
  Vm* vm = dc.create_vm(VmSpec{});
  ASSERT_NE(vm, nullptr);
  EXPECT_EQ(vm->state(), VmState::kBooting);
  sim.run(31.0);
  EXPECT_EQ(vm->state(), VmState::kRunning);
}

// ------------------------------------------------------------------- Broker

class CollectingSink : public RequestSink {
 public:
  void on_request(const Request& request) override { requests.push_back(request); }
  std::vector<Request> requests;
};

TEST(Broker, DeliversArrivalsAtTheirTimes) {
  Simulation sim;
  PoissonSource source(2.0, std::make_shared<DeterministicDistribution>(0.5),
                       0.0, 100.0);
  CollectingSink sink;
  Broker broker(sim, source, sink, Rng(9));
  broker.start();
  sim.run();
  EXPECT_GT(sink.requests.size(), 100u);
  EXPECT_EQ(broker.generated(), sink.requests.size());
  for (std::size_t i = 0; i < sink.requests.size(); ++i) {
    EXPECT_EQ(sink.requests[i].id, i + 1);
    if (i > 0) {
      EXPECT_GE(sink.requests[i].arrival_time, sink.requests[i - 1].arrival_time);
    }
  }
}

TEST(Broker, OnlyOneArrivalPendingAtATime) {
  // The broker must not pre-materialize the whole workload into the queue.
  Simulation sim;
  PoissonSource source(100.0, std::make_shared<DeterministicDistribution>(0.5),
                       0.0, 1000.0);
  CollectingSink sink;
  Broker broker(sim, source, sink, Rng(10));
  broker.start();
  for (int i = 0; i < 50; ++i) sim.step();
  EXPECT_LE(sim.queue().size(), 1u);
}

TEST(Broker, SinkReceivesSourceRate) {
  Simulation sim;
  PoissonSource source(20.0, std::make_shared<DeterministicDistribution>(0.5),
                       0.0, 500.0);
  CollectingSink sink;
  Broker broker(sim, source, sink, Rng(11));
  broker.start();
  sim.run();
  EXPECT_EQ(broker.generated(), sink.requests.size());
  EXPECT_NEAR(static_cast<double>(sink.requests.size()) / 500.0, 20.0, 1.0);
}

}  // namespace
}  // namespace cloudprov
