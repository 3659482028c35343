// Request-path resilience tests (src/resilience): retry gateway semantics
// (attempts, backoff, deadline, token-bucket budget), circuit-breaker state
// machine, client timeouts and wasted completions, server-side load shedding
// (deadline + brownout), the strict-no-op guarantee of a neutral-enabled
// layer, and determinism under a retry storm.
#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "core/application_provisioner.h"
#include "experiment/runner.h"
#include "metrics_equality.h"
#include "resilience/retry_gateway.h"
#include "resilience/shedding_admission.h"

namespace cloudprov {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct TestWorld {
  Simulation sim;
  Datacenter datacenter;

  explicit TestWorld(std::size_t hosts = 2)
      : datacenter(sim, make_dc(hosts),
                   std::make_unique<LeastLoadedPlacement>()) {}

  static DatacenterConfig make_dc(std::size_t hosts) {
    DatacenterConfig config;
    config.host_count = hosts;
    return config;
  }
};

ProvisionerConfig prov_config(std::size_t queue_bound = 0) {
  ProvisionerConfig config;
  config.fixed_queue_bound = queue_bound;
  return config;
}

Request make_request(std::uint64_t id, SimTime arrival, double demand,
                     int priority = 0, SimTime deadline = kInf) {
  Request request;
  request.id = id;
  request.arrival_time = arrival;
  request.service_demand = demand;
  request.priority = priority;
  request.deadline = deadline;
  return request;
}

/// Schedules gateway.on_request at the request's arrival time.
void send(Simulation& sim, RetryGateway& gateway, const Request& request) {
  sim.schedule_at(request.arrival_time,
                  [&gateway, request] { gateway.on_request(request); });
}

// ------------------------------------------------------------ retry gateway

TEST(RetryGateway, NeutralGatewayForwardsAndCountsOnly) {
  TestWorld world;
  ApplicationProvisioner provisioner(world.sim, world.datacenter, QosTargets{},
                                     prov_config());
  provisioner.scale_to(1);
  ResilienceConfig config;
  config.enabled = true;  // every feature at its neutral default
  RetryGateway gateway(world.sim, provisioner, config, Rng(1));
  send(world.sim, gateway, make_request(1, 0.0, 0.05));
  world.sim.run();
  EXPECT_EQ(provisioner.completed(), 1u);
  EXPECT_EQ(gateway.client_requests(), 1u);
  EXPECT_EQ(gateway.client_attempts(), 1u);
  EXPECT_EQ(gateway.client_succeeded(), 1u);
  EXPECT_EQ(gateway.client_retries(), 0u);
  EXPECT_EQ(gateway.client_failed(), 0u);
}

TEST(RetryGateway, RejectedAttemptRetriesAndSucceeds) {
  TestWorld world;
  ApplicationProvisioner provisioner(world.sim, world.datacenter, QosTargets{},
                                     prov_config());
  ResilienceConfig config;
  config.enabled = true;
  config.retry.max_attempts = 3;
  config.retry.backoff = RetryPolicyConfig::Backoff::kFixed;
  config.retry.base = 1.0;
  RetryGateway gateway(world.sim, provisioner, config, Rng(2));
  // Attempt 1 at t=0 hits an empty pool; capacity arrives before the retry.
  world.sim.schedule_at(0.5, [&provisioner] { provisioner.scale_to(1); });
  send(world.sim, gateway, make_request(1, 0.0, 0.05));
  world.sim.run();
  EXPECT_EQ(gateway.client_requests(), 1u);
  EXPECT_EQ(gateway.client_attempts(), 2u);
  EXPECT_EQ(gateway.client_retries(), 1u);
  EXPECT_EQ(gateway.client_succeeded(), 1u);
  EXPECT_EQ(gateway.client_failed(), 0u);
  EXPECT_EQ(provisioner.completed(), 1u);
  // The retry carried a synthetic id, not the broker's.
  EXPECT_EQ(provisioner.rejected(), 1u);
}

TEST(RetryGateway, AttemptBoundExhaustionFails) {
  TestWorld world;
  ApplicationProvisioner provisioner(world.sim, world.datacenter, QosTargets{},
                                     prov_config());  // pool stays empty
  ResilienceConfig config;
  config.enabled = true;
  config.retry.max_attempts = 2;
  config.retry.backoff = RetryPolicyConfig::Backoff::kFixed;
  config.retry.base = 0.1;
  RetryGateway gateway(world.sim, provisioner, config, Rng(3));
  send(world.sim, gateway, make_request(1, 0.0, 0.05));
  world.sim.run();
  EXPECT_EQ(gateway.client_attempts(), 2u);
  EXPECT_EQ(gateway.client_retries(), 1u);
  EXPECT_EQ(gateway.client_failed(), 1u);
  EXPECT_EQ(gateway.client_succeeded(), 0u);
}

TEST(RetryGateway, UnboundedRetriesStopAtRequestDeadline) {
  TestWorld world;
  ApplicationProvisioner provisioner(world.sim, world.datacenter, QosTargets{},
                                     prov_config());  // pool stays empty
  ResilienceConfig config;
  config.enabled = true;
  config.request_deadline = 1.0;
  config.retry.max_attempts = 0;  // unbounded
  config.retry.backoff = RetryPolicyConfig::Backoff::kFixed;
  config.retry.base = 0.3;
  RetryGateway gateway(world.sim, provisioner, config, Rng(4));
  send(world.sim, gateway, make_request(1, 0.0, 0.05));
  world.sim.run();
  // Attempts at t = 0, 0.3, 0.6, 0.9; the next retry would land at 1.2,
  // past the deadline anchored at the first arrival.
  EXPECT_EQ(gateway.client_attempts(), 4u);
  EXPECT_EQ(gateway.client_retries(), 3u);
  EXPECT_EQ(gateway.client_failed(), 1u);
  EXPECT_LE(world.sim.now(), 1.0);
}

TEST(RetryGateway, JitterBackoffStaysWithinBounds) {
  TestWorld world;
  ApplicationProvisioner provisioner(world.sim, world.datacenter, QosTargets{},
                                     prov_config());  // pool stays empty
  ResilienceConfig config;
  config.enabled = true;
  config.retry.max_attempts = 0;
  config.retry.backoff = RetryPolicyConfig::Backoff::kExpoJitter;
  config.retry.base = 0.05;
  config.retry.cap = 0.4;
  RetryGateway gateway(world.sim, provisioner, config, Rng(5));
  send(world.sim, gateway, make_request(1, 0.0, 0.05));
  // Inspect each scheduled retry delay through the checkpoint surface.
  SimTime last_fire = 0.0;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(world.sim.step());  // the send, then each retry
    const RetryGateway::Snapshot snap = gateway.checkpoint();
    ASSERT_EQ(snap.retries.size(), 1u);
    // The stored fire time is now + delay; recovering the delay by
    // subtraction costs an ulp, hence the epsilon.
    const SimTime delay = snap.retries[0].event.time - world.sim.now();
    EXPECT_GE(delay, config.retry.base - 1e-12);
    EXPECT_LE(delay, config.retry.cap + 1e-12);
    EXPECT_GT(snap.retries[0].event.time, last_fire);
    last_fire = snap.retries[0].event.time;
  }
}

TEST(RetryGateway, BudgetTokenBucketDeniesWhenDry) {
  TestWorld world;
  ApplicationProvisioner provisioner(world.sim, world.datacenter, QosTargets{},
                                     prov_config());  // pool stays empty
  ResilienceConfig config;
  config.enabled = true;
  config.retry.max_attempts = 0;
  config.retry.backoff = RetryPolicyConfig::Backoff::kFixed;
  config.retry.base = 0.1;
  config.budget.enabled = true;
  config.budget.ratio = 0.5;
  config.budget.burst = 1.0;
  RetryGateway gateway(world.sim, provisioner, config, Rng(6));
  send(world.sim, gateway, make_request(1, 0.0, 0.05));
  world.sim.run();
  // The bucket starts at burst (1 token): one retry spends it, the next is
  // denied — unbounded attempts notwithstanding.
  EXPECT_EQ(gateway.client_retries(), 1u);
  EXPECT_EQ(gateway.retry_budget_denied(), 1u);
  EXPECT_EQ(gateway.client_failed(), 1u);
  EXPECT_DOUBLE_EQ(gateway.budget_tokens(), 0.0);
}

TEST(RetryGateway, FreshTrafficRefillsBudget) {
  TestWorld world;
  ApplicationProvisioner provisioner(world.sim, world.datacenter, QosTargets{},
                                     prov_config());  // pool stays empty
  ResilienceConfig config;
  config.enabled = true;
  config.retry.max_attempts = 2;
  config.retry.backoff = RetryPolicyConfig::Backoff::kFixed;
  config.retry.base = 0.1;
  config.budget.enabled = true;
  config.budget.ratio = 0.5;
  config.budget.burst = 1.0;
  RetryGateway gateway(world.sim, provisioner, config, Rng(7));
  // Request 1 spends the initial token; requests 2 and 3 each earn 0.5, so
  // request 3's retry finds a full token again.
  send(world.sim, gateway, make_request(1, 0.0, 0.05));
  send(world.sim, gateway, make_request(2, 1.0, 0.05));
  send(world.sim, gateway, make_request(3, 2.0, 0.05));
  world.sim.run();
  EXPECT_EQ(gateway.client_retries(), 2u);
  EXPECT_EQ(gateway.retry_budget_denied(), 1u);
  EXPECT_EQ(gateway.client_failed(), 3u);
}

// ---------------------------------------------------------- circuit breaker

ResilienceConfig breaker_config() {
  ResilienceConfig config;
  config.enabled = true;
  config.breaker.enabled = true;
  config.breaker.window = 8;
  config.breaker.failure_threshold = 0.5;
  config.breaker.min_volume = 4;
  config.breaker.open_duration = 5.0;
  config.breaker.half_open_probes = 2;
  return config;
}

TEST(CircuitBreaker, OpensFastFailsProbesAndCloses) {
  TestWorld world;
  ApplicationProvisioner provisioner(world.sim, world.datacenter, QosTargets{},
                                     prov_config());
  RetryGateway gateway(world.sim, provisioner, breaker_config(), Rng(8));
  // Four rejections against the empty pool trip the breaker at t=3.
  for (std::uint64_t i = 0; i < 4; ++i) {
    send(world.sim, gateway, make_request(i + 1, static_cast<double>(i), 0.01));
  }
  // Open until t=8: these two never reach the provisioner.
  send(world.sim, gateway, make_request(5, 4.0, 0.01));
  send(world.sim, gateway, make_request(6, 5.0, 0.01));
  // Capacity heals before the half-open window.
  world.sim.schedule_at(7.0, [&provisioner] { provisioner.scale_to(1); });
  // Two successful probes close the breaker; the next request is normal.
  send(world.sim, gateway, make_request(7, 9.0, 0.01));
  send(world.sim, gateway, make_request(8, 10.0, 0.01));
  send(world.sim, gateway, make_request(9, 11.0, 0.01));
  world.sim.run();
  EXPECT_EQ(gateway.breaker_opens(), 1u);
  EXPECT_EQ(gateway.breaker_half_opens(), 1u);
  EXPECT_EQ(gateway.breaker_closes(), 1u);
  EXPECT_EQ(gateway.breaker_fast_fails(), 2u);
  EXPECT_EQ(gateway.breaker_state(), RetryGateway::BreakerState::kClosed);
  EXPECT_EQ(gateway.client_succeeded(), 3u);
  EXPECT_EQ(gateway.client_failed(), 6u);
  // Fast-failed attempts never hit the provisioner's reject counter.
  EXPECT_EQ(provisioner.rejected(), 4u);
}

TEST(CircuitBreaker, FailedProbeReopens) {
  TestWorld world;
  ApplicationProvisioner provisioner(world.sim, world.datacenter, QosTargets{},
                                     prov_config());  // pool stays empty
  RetryGateway gateway(world.sim, provisioner, breaker_config(), Rng(9));
  for (std::uint64_t i = 0; i < 4; ++i) {
    send(world.sim, gateway, make_request(i + 1, static_cast<double>(i), 0.01));
  }
  // t=9 is past the open window; the probe is admitted to the still-empty
  // pool, rejected, and the breaker re-opens from half-open.
  send(world.sim, gateway, make_request(5, 9.0, 0.01));
  world.sim.run();
  EXPECT_EQ(gateway.breaker_opens(), 2u);
  EXPECT_EQ(gateway.breaker_half_opens(), 1u);
  EXPECT_EQ(gateway.breaker_closes(), 0u);
  EXPECT_EQ(gateway.breaker_state(), RetryGateway::BreakerState::kOpen);
}

// ------------------------------------------------- timeouts & wasted work

TEST(RetryGateway, TimeoutAbandonsAttemptAndCountsWastedCompletion) {
  TestWorld world;
  ApplicationProvisioner provisioner(world.sim, world.datacenter, QosTargets{},
                                     prov_config(/*queue_bound=*/10));
  provisioner.scale_to(1);
  ResilienceConfig config;
  config.enabled = true;
  config.attempt_timeout = 0.15;
  RetryGateway gateway(world.sim, provisioner, config, Rng(10));
  // One VM serving FIFO at 0.1 s per request: completions at 0.1, 0.2, 0.3.
  // The client's patience ends at arrival + 0.15.
  for (std::uint64_t i = 0; i < 3; ++i) {
    send(world.sim, gateway, make_request(i + 1, 0.0, 0.1));
  }
  world.sim.run();
  EXPECT_EQ(gateway.client_succeeded(), 1u);
  EXPECT_EQ(gateway.client_timeouts(), 2u);
  EXPECT_EQ(gateway.wasted_completions(), 2u);
  EXPECT_EQ(gateway.client_failed(), 2u);  // no retries configured
  // The server finished all three: that is exactly the wasted capacity.
  EXPECT_EQ(provisioner.completed(), 3u);
}

// ------------------------------------------------------------ load shedding

TEST(SheddingAdmission, DeadlineShedsDoomedRequests) {
  TestWorld world;
  ShedConfig shed;
  shed.deadline_enabled = true;
  auto policy = std::make_unique<SheddingAdmission>(shed);
  SheddingAdmission* shedding = policy.get();
  ApplicationProvisioner provisioner(world.sim, world.datacenter, QosTargets{},
                                     prov_config(), std::move(policy));
  provisioner.scale_to(1);
  // Tm estimate is 0.1 s: a deadline 0.05 s out is unmeetable, 0.5 s is fine.
  world.sim.schedule_at(0.0, [&] {
    provisioner.on_request(make_request(1, 0.0, 0.05, 0, /*deadline=*/0.05));
    provisioner.on_request(make_request(2, 0.0, 0.05, 0, /*deadline=*/0.5));
    provisioner.on_request(make_request(3, 0.0, 0.05));  // no deadline
  });
  world.sim.run();
  shedding->flush();
  EXPECT_EQ(shedding->shed_deadline(), 1u);
  EXPECT_EQ(provisioner.rejected(), 1u);
  EXPECT_EQ(provisioner.completed(), 2u);
}

TEST(SheddingAdmission, BrownoutShedsLowPriorityOnly) {
  TestWorld world;
  ShedConfig shed;
  shed.brownout_enabled = true;
  shed.brownout_utilization = 0.0;  // always browned out
  shed.brownout_fraction = 1.0;     // shed every low-priority request
  shed.brownout_priority = 1;
  auto policy = std::make_unique<SheddingAdmission>(shed);
  SheddingAdmission* shedding = policy.get();
  ApplicationProvisioner provisioner(world.sim, world.datacenter, QosTargets{},
                                     prov_config(), std::move(policy));
  provisioner.scale_to(1);
  world.sim.schedule_at(0.0, [&] {
    provisioner.on_request(make_request(1, 0.0, 0.05, /*priority=*/0));
    provisioner.on_request(make_request(2, 0.0, 0.05, /*priority=*/1));
  });
  world.sim.run();
  shedding->flush();
  EXPECT_EQ(shedding->shed_brownout(), 1u);
  EXPECT_EQ(provisioner.rejected(), 1u);
  EXPECT_EQ(provisioner.completed(), 1u);
}

// ------------------------------------------- strict no-op & determinism

ScenarioConfig small_web() {
  ScenarioConfig config = web_scenario(0.01);
  config.horizon = 3600.0;
  config.web.horizon = config.horizon;
  return config;
}

TEST(ResilienceNoOp, NeutralEnabledIsBitIdenticalToDisabled) {
  const ScenarioConfig base = small_web();
  ScenarioConfig neutral = base;
  neutral.resilience.enabled = true;  // every feature off
  const PolicySpec policy = PolicySpec::adaptive();
  const RunMetrics off = run_scenario(base, policy, 42).metrics;
  const RunMetrics on = run_scenario(neutral, policy, 42).metrics;
  // The enabled gateway counts the logical requests it observed.
  expect_same_metrics(off, on,
                      {"client_requests", "client_succeeded", "client_failed",
                       "client_attempts", "wall_seconds"});
  // The gateway observed the run without perturbing it.
  EXPECT_EQ(on.client_requests, on.generated);
  EXPECT_EQ(on.client_succeeded, on.completed);
  EXPECT_EQ(on.client_retries, 0u);
  EXPECT_EQ(off.client_requests, 0u);  // disabled layer reports nothing
}

ScenarioConfig stormy_web() {
  ScenarioConfig config = small_web();
  config.resilience.enabled = true;
  config.resilience.attempt_timeout = 0.2;
  config.resilience.request_deadline = 2.0;
  config.resilience.retry.max_attempts = 4;
  config.resilience.retry.base = 0.05;
  config.resilience.retry.cap = 0.5;
  config.resilience.budget.enabled = true;
  config.resilience.budget.ratio = 0.2;
  config.resilience.breaker.enabled = true;
  config.resilience.shed.deadline_enabled = true;
  config.resilience.shed.brownout_enabled = true;
  config.resilience.shed.brownout_utilization = 0.8;
  config.resilience.shed.brownout_fraction = 0.3;
  config.fault.outages.push_back({600.0, 900.0});
  return config;
}

TEST(ResilienceDeterminism, SameSeedSameStorm) {
  const ScenarioConfig config = stormy_web();
  const PolicySpec policy = PolicySpec::adaptive();
  const RunMetrics a = run_scenario(config, policy, 7).metrics;
  const RunMetrics b = run_scenario(config, policy, 7).metrics;
  expect_same_metrics(a, b, {"wall_seconds"});
  // The storm actually exercised the machinery.
  EXPECT_GT(a.client_retries, 0u);
  EXPECT_GT(a.client_timeouts, 0u);
}

}  // namespace
}  // namespace cloudprov
