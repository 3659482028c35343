// Tests for the SLA-management extension (per-class QoS, incentives,
// priority admission under contention) and the MMPP bursty workload source.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "cloud/broker.h"
#include "core/application_provisioner.h"
#include "core/sla.h"
#include "stats/running_stats.h"
#include "workload/mmpp_source.h"

namespace cloudprov {
namespace {

std::vector<SlaClass> two_classes() {
  SlaClass best_effort;
  best_effort.name = "best-effort";
  best_effort.priority_threshold = 0;
  best_effort.max_response_time = 1.0;
  best_effort.revenue_per_request = 1.0;
  best_effort.rejection_penalty = 0.0;
  best_effort.violation_penalty = 0.5;
  SlaClass premium;
  premium.name = "premium";
  premium.priority_threshold = 5;
  premium.max_response_time = 0.5;
  premium.stamp_deadline = true;
  premium.revenue_per_request = 10.0;
  premium.rejection_penalty = 20.0;
  premium.violation_penalty = 10.0;
  return {best_effort, premium};
}

Request make_request(std::uint64_t id, double t, int priority) {
  Request r;
  r.id = id;
  r.arrival_time = t;
  r.service_demand = 0.1;
  r.priority = priority;
  return r;
}

TEST(SlaManager, ClassifiesByPriorityThreshold) {
  SlaManager manager(two_classes());
  EXPECT_EQ(manager.classify(0), 0u);
  EXPECT_EQ(manager.classify(4), 0u);
  EXPECT_EQ(manager.classify(5), 1u);
  EXPECT_EQ(manager.classify(100), 1u);
  EXPECT_EQ(manager.classify(-3), 0u);  // below every threshold -> lowest
}

TEST(SlaManager, StampsDeadlineOnlyWhenConfigured) {
  SlaManager manager(two_classes());
  Request best = make_request(1, 10.0, 0);
  manager.on_arrival(best);
  EXPECT_TRUE(std::isinf(best.deadline));
  Request prem = make_request(2, 10.0, 9);
  manager.on_arrival(prem);
  EXPECT_DOUBLE_EQ(prem.deadline, 10.5);
}

TEST(SlaManager, RevenueAccountsOutcomesPerClass) {
  SlaManager manager(two_classes());
  // Premium: 2 on-time completions, 1 violation, 1 rejection.
  for (std::uint64_t i = 1; i <= 4; ++i) {
    Request r = make_request(i, 0.0, 9);
    manager.on_arrival(r);
    if (i == 4) {
      manager.on_rejected(r);
    } else {
      manager.on_completed(r, i == 3 ? 0.9 : 0.2);
    }
  }
  const SlaClassReport premium = manager.report(1);
  EXPECT_EQ(premium.offered, 4u);
  EXPECT_EQ(premium.completed, 3u);
  EXPECT_EQ(premium.rejected, 1u);
  EXPECT_EQ(premium.violations, 1u);
  // 2 on-time x 10 - 1 rejection x 20 - 1 violation x 10 = -10.
  EXPECT_DOUBLE_EQ(premium.revenue, -10.0);

  // Best effort: one on-time completion.
  Request r = make_request(5, 0.0, 0);
  manager.on_arrival(r);
  manager.on_completed(r, 0.2);
  EXPECT_DOUBLE_EQ(manager.report(0).revenue, 1.0);
  EXPECT_DOUBLE_EQ(manager.total_revenue(), -9.0);
}

TEST(SlaManager, Validation) {
  EXPECT_THROW(SlaManager({}), std::invalid_argument);
  auto classes = two_classes();
  classes[1].priority_threshold = classes[0].priority_threshold;
  EXPECT_THROW(SlaManager(std::move(classes)), std::invalid_argument);
  classes = two_classes();
  classes[0].max_response_time = 0.0;
  EXPECT_THROW(SlaManager(std::move(classes)), std::invalid_argument);
}

TEST(SlaIntegration, PriorityAdmissionProtectsPremiumRevenue) {
  // Under contention (pool sized at half the offered load), priority-aware
  // admission must yield higher premium completion and total revenue than
  // FIFO admission.
  auto run = [](bool priority_aware) {
    Simulation sim;
    DatacenterConfig dc;
    dc.host_count = 2;
    Datacenter datacenter(sim, dc, std::make_unique<LeastLoadedPlacement>());
    QosTargets qos;
    qos.max_response_time = 0.5;
    ProvisionerConfig config;
    config.initial_service_time_estimate = 0.1;
    std::unique_ptr<AdmissionPolicy> admission;
    if (priority_aware) {
      admission = std::make_unique<PriorityAwareAdmission>(/*reserved=*/6,
                                                           /*threshold=*/5);
    } else {
      admission = std::make_unique<KBoundAdmission>();
    }
    ApplicationProvisioner provisioner(sim, datacenter, qos, config,
                                       std::move(admission));
    provisioner.scale_to(4);  // 4 instances x k=5 (Ts=0.5/Tm=0.1) = 20 slots

    SlaManager sla(two_classes());
    provisioner.set_completion_listener(
        [&](const Request& r, double response) { sla.on_completed(r, response); });

    // Offered: 80 req/s total (2x capacity), 25% premium.
    Rng rng(77);
    double t = 0.0;
    std::uint64_t id = 0;
    while (t < 200.0) {
      t += rng.exponential(80.0);
      Request r = make_request(++id, t, rng.bernoulli(0.25) ? 9 : 0);
      r.service_demand = 0.1 * rng.uniform(1.0, 1.1);
      sim.schedule_at(t, [&sla, &provisioner, r]() mutable {
        sla.on_arrival(r);
        Request submitted = r;
        if (!provisioner.try_submit(submitted)) sla.on_rejected(submitted);
      });
    }
    sim.run();
    return sla;
  };

  const SlaManager fifo = run(false);
  const SlaManager aware = run(true);

  const double fifo_premium_completion =
      static_cast<double>(fifo.report(1).completed) /
      static_cast<double>(fifo.report(1).offered);
  const double aware_premium_completion =
      static_cast<double>(aware.report(1).completed) /
      static_cast<double>(aware.report(1).offered);
  EXPECT_GT(aware_premium_completion, fifo_premium_completion + 0.2);
  EXPECT_GT(aware.total_revenue(), fifo.total_revenue());
  // The improvement costs best-effort traffic, by design.
  EXPECT_LT(aware.report(0).completed, fifo.report(0).completed);
}

// ---------------------------------------------------------------- MMPP

TEST(Mmpp, SingleStateIsPoisson) {
  MmppConfig config;
  config.states = {MmppState{5.0, 100.0}};
  config.service_demand = std::make_shared<DeterministicDistribution>(0.1);
  config.horizon = 20000.0;
  MmppSource source(config);
  Rng rng(3);
  RunningStats gaps;
  double last = 0.0;
  while (auto a = source.next(rng)) {
    gaps.add(a->time - last);
    last = a->time;
  }
  EXPECT_NEAR(gaps.mean(), 0.2, 0.005);
  EXPECT_NEAR(gaps.variance(), 0.04, 0.003);  // exponential
}

TEST(Mmpp, LongRunRateMatchesStationaryMixture) {
  MmppConfig config;
  // ON 30 req/s for mean 50 s, OFF 2 req/s for mean 150 s:
  // stationary rate = (30*50 + 2*150) / 200 = 9.
  config.states = {MmppState{30.0, 50.0}, MmppState{2.0, 150.0}};
  config.service_demand = std::make_shared<DeterministicDistribution>(0.1);
  config.horizon = 200000.0;
  MmppSource source(config);
  EXPECT_NEAR(source.expected_rate(1.0), 9.0, 1e-12);
  Rng rng(5);
  std::uint64_t count = 0;
  while (source.next(rng)) ++count;
  EXPECT_NEAR(static_cast<double>(count) / config.horizon, 9.0, 0.45);
}

TEST(Mmpp, ArrivalsAreBurstierThanPoisson) {
  // Index of dispersion of counts > 1 distinguishes MMPP from Poisson.
  MmppConfig config;
  config.states = {MmppState{50.0, 20.0}, MmppState{1.0, 20.0}};
  config.service_demand = std::make_shared<DeterministicDistribution>(0.1);
  config.horizon = 100000.0;
  MmppSource source(config);
  Rng rng(7);
  // Count arrivals in 10 s windows.
  std::vector<double> counts(10000, 0.0);
  while (auto a = source.next(rng)) {
    const auto bin = static_cast<std::size_t>(a->time / 10.0);
    if (bin < counts.size()) counts[bin] += 1.0;
  }
  RunningStats stats;
  for (double c : counts) stats.add(c);
  // Poisson would give variance ~= mean; the MMPP must be far over-dispersed.
  EXPECT_GT(stats.variance(), 3.0 * stats.mean());
}

TEST(Mmpp, ZeroRateStateProducesGaps) {
  MmppConfig config;
  config.states = {MmppState{100.0, 10.0}, MmppState{0.0, 10.0}};
  config.service_demand = std::make_shared<DeterministicDistribution>(0.1);
  config.horizon = 5000.0;
  MmppSource source(config);
  Rng rng(9);
  double max_gap = 0.0;
  double last = 0.0;
  while (auto a = source.next(rng)) {
    max_gap = std::max(max_gap, a->time - last);
    last = a->time;
  }
  EXPECT_GT(max_gap, 5.0);  // OFF periods show up as long silences
}

TEST(Mmpp, Validation) {
  MmppConfig config;
  EXPECT_THROW(MmppSource{config}, std::invalid_argument);
  config.states = {MmppState{1.0, 0.0}};
  config.service_demand = std::make_shared<DeterministicDistribution>(0.1);
  EXPECT_THROW(MmppSource{config}, std::invalid_argument);
}

TEST(SlaEdge, ReportAllPreservesClassOrder) {
  SlaClass a;
  a.name = "bronze";
  a.priority_threshold = 0;
  a.max_response_time = 1.0;
  SlaClass b;
  b.name = "gold";
  b.priority_threshold = 10;
  b.max_response_time = 0.5;
  SlaManager manager({a, b});
  const auto reports = manager.report_all();
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].name, "bronze");
  EXPECT_EQ(reports[1].name, "gold");
}

}  // namespace
}  // namespace cloudprov
