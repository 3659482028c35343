// Spot-market IaaS layer tests (src/market): price-path determinism,
// catalog/acquisition semantics, revocation drain-vs-kill through the
// provisioner lifecycle, reconciler healing of revoked deficits, the strict
// no-op guarantee of a disabled (or pure on-demand) market, and byte-stable
// market CSV output.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "core/application_provisioner.h"
#include "experiment/runner.h"
#include "fault/reconciler.h"
#include "market/market_broker.h"
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

/// Noise-free price config: pure deterministic mean reversion from `initial`
/// toward `mean`, closing half the gap per 60 s step (reversion 30/h).
SpotPriceConfig drift_only(double initial, double mean) {
  SpotPriceConfig config;
  config.initial = initial;
  config.mean = mean;
  config.reversion_per_hour = 30.0;
  config.volatility = 0.0;
  config.spike_rate_per_hour = 0.0;
  return config;
}

/// Market that buys spot for the whole pool at t=0 (initial price 0.2 <=
/// bid 0.7) and deterministically revokes at the first 60 s tick (price
/// jumps to 1.1 > bid under drift_only(0.2, 2.0)).
MarketConfig revoking_market(SimTime notice) {
  MarketConfig config;
  config.enabled = true;
  config.acquisition.spot_fraction = 1.0;
  config.acquisition.bid = 0.7;
  config.revocation.notice = notice;
  config.spot_price = drift_only(0.2, 2.0);
  return config;
}

// ------------------------------------------------------------- price process

TEST(SpotPrice, PathIsAPureFunctionOfSeedAndQueryPatternIndependent) {
  SpotPriceConfig config;
  config.volatility = 0.2;
  config.spike_rate_per_hour = 4.0;  // plenty of regime churn
  SpotPriceProcess coarse(config, 99);
  SpotPriceProcess fine(config, 99);
  coarse.advance_to(7200.0);  // one jump
  for (SimTime t = 0.0; t <= 7200.0; t += 17.0) fine.advance_to(t);  // many
  fine.advance_to(7200.0);
  ASSERT_EQ(coarse.path().size(), fine.path().size());
  for (std::size_t i = 0; i < coarse.path().size(); ++i) {
    EXPECT_EQ(coarse.path()[i].time, fine.path()[i].time);
    EXPECT_EQ(coarse.path()[i].price, fine.path()[i].price);
  }
}

TEST(SpotPrice, DifferentSeedsDiverge) {
  SpotPriceConfig config;
  SpotPriceProcess a(config, 1);
  SpotPriceProcess b(config, 2);
  a.advance_to(3600.0);
  b.advance_to(3600.0);
  EXPECT_NE(a.current(), b.current());
}

TEST(SpotPrice, ClampsToFloorAndCeiling) {
  SpotPriceConfig config;
  config.volatility = 5.0;  // wild diffusion to slam both bounds
  config.floor = 0.1;
  config.ceiling = 0.9;
  SpotPriceProcess process(config, 7);
  process.advance_to(86400.0);
  for (const PricePoint& p : process.path()) {
    EXPECT_GE(p.price, 0.1);
    EXPECT_LE(p.price, 0.9);
  }
}

TEST(SpotPrice, NoiseFreeDriftMatchesHandComputedSteps) {
  // Half the gap to the mean closes per step: 0.2 -> 1.1 -> 1.55 -> ...
  SpotPriceProcess process(drift_only(0.2, 2.0), 42);
  process.advance_to(180.0);
  ASSERT_EQ(process.path().size(), 4u);
  EXPECT_DOUBLE_EQ(process.path()[0].price, 0.2);
  EXPECT_DOUBLE_EQ(process.path()[1].price, 0.2 + 0.5 * (2.0 - 0.2));
  EXPECT_DOUBLE_EQ(process.path()[2].price, 1.1 + 0.5 * (2.0 - 1.1));
  EXPECT_DOUBLE_EQ(process.price_at(0.0), 0.2);
  EXPECT_DOUBLE_EQ(process.price_at(59.9), 0.2);
  EXPECT_DOUBLE_EQ(process.price_at(60.0), 1.1);
  // Past the generated path the last segment extends (billing quanta may
  // round a lifetime beyond the horizon).
  EXPECT_DOUBLE_EQ(process.price_at(1e6), process.current());
}

TEST(SpotPrice, IntegralAndMeanMatchPiecewiseSegments) {
  SpotPriceProcess process(drift_only(0.2, 2.0), 42);
  process.advance_to(120.0);
  // Segments: [0,60) @ 0.2, [60,120) @ 1.1, [120,...) @ 1.55.
  EXPECT_DOUBLE_EQ(process.integrate(0.0, 60.0), 0.2 * 60.0);
  EXPECT_DOUBLE_EQ(process.integrate(30.0, 90.0), 0.2 * 30.0 + 1.1 * 30.0);
  EXPECT_DOUBLE_EQ(process.integrate(0.0, 120.0), (0.2 + 1.1) * 60.0);
  EXPECT_DOUBLE_EQ(process.mean_price(120.0), (0.2 + 1.1) / 2.0);
  EXPECT_DOUBLE_EQ(process.max_price(60.0), 1.1);
  // Beyond the generated path the last price extends.
  EXPECT_DOUBLE_EQ(process.integrate(120.0, 180.0), 1.55 * 60.0);
}

// ------------------------------------------------------ catalog & acquisition

TEST(Catalog, StandardSellsAllThreeKindsAtEc2StyleDiscounts) {
  const MarketCatalog catalog = MarketCatalog::standard(2.0);
  ASSERT_EQ(catalog.classes.size(), 3u);
  EXPECT_TRUE(catalog.has(PurchaseKind::kOnDemand));
  EXPECT_TRUE(catalog.has(PurchaseKind::kSpot));
  EXPECT_TRUE(catalog.has(PurchaseKind::kReserved));
  const InstanceClass& od =
      catalog.classes[catalog.find(PurchaseKind::kOnDemand)];
  const InstanceClass& spot = catalog.classes[catalog.find(PurchaseKind::kSpot)];
  const InstanceClass& rsv =
      catalog.classes[catalog.find(PurchaseKind::kReserved)];
  EXPECT_DOUBLE_EQ(od.pricing.price_per_hour, 2.0);
  EXPECT_DOUBLE_EQ(spot.pricing.price_per_hour, 0.35 * 2.0);
  EXPECT_DOUBLE_EQ(rsv.pricing.price_per_hour, 0.60 * 2.0);
  // Delivery profile inherited from the data center: the on-demand class
  // must stay bit-identical to market-less provisioning.
  EXPECT_FALSE(od.boot_delay.has_value());
  EXPECT_NO_THROW(catalog.validate());
}

TEST(Catalog, ValidationRejectsBrokenCatalogs) {
  MarketCatalog empty;
  EXPECT_THROW(empty.validate(), std::invalid_argument);

  MarketCatalog no_od;
  no_od.classes.push_back({"spot", PurchaseKind::kSpot, {}, {}});
  EXPECT_THROW(no_od.validate(), std::invalid_argument);

  MarketCatalog duplicate = MarketCatalog::standard();
  duplicate.classes.push_back(duplicate.classes.front());
  EXPECT_THROW(duplicate.validate(), std::invalid_argument);
}

TEST(Acquisition, ReservedBaseThenSpotUnderCapThenOnDemand) {
  const MarketCatalog catalog = MarketCatalog::standard();
  const std::size_t od = catalog.find(PurchaseKind::kOnDemand);
  const std::size_t spot = catalog.find(PurchaseKind::kSpot);
  const std::size_t rsv = catalog.find(PurchaseKind::kReserved);

  AcquisitionPolicy policy;
  policy.reserved_pool = 2;
  policy.spot_fraction = 0.5;
  policy.bid = 0.7;

  // Reserved base load fills first, regardless of the spot price.
  EXPECT_EQ(policy.choose(catalog, 0.1, 0, 0, 10), rsv);
  EXPECT_EQ(policy.choose(catalog, 0.1, 1, 0, 10), rsv);
  // Then spot while price <= bid and under floor(0.5 * 10) = 5 live.
  EXPECT_EQ(policy.choose(catalog, 0.7, 2, 0, 10), spot);  // at the bid
  EXPECT_EQ(policy.choose(catalog, 0.1, 2, 4, 10), spot);
  EXPECT_EQ(policy.choose(catalog, 0.1, 2, 5, 10), od);  // cap reached
  // Out-bid market falls back to on-demand.
  EXPECT_EQ(policy.choose(catalog, 0.71, 2, 0, 10), od);
}

TEST(Acquisition, SpotNeedsBidFractionAndAListedClass) {
  const MarketCatalog catalog = MarketCatalog::standard();
  AcquisitionPolicy policy;
  EXPECT_FALSE(policy.spot_enabled(catalog));  // bid 0, fraction 0
  policy.bid = 0.7;
  EXPECT_FALSE(policy.spot_enabled(catalog));  // fraction still 0
  policy.spot_fraction = 0.5;
  EXPECT_TRUE(policy.spot_enabled(catalog));
  MarketCatalog od_only;
  od_only.classes.push_back({"od", PurchaseKind::kOnDemand, {}, {}});
  EXPECT_FALSE(policy.spot_enabled(od_only));
  // A pure on-demand policy always picks the on-demand class.
  AcquisitionPolicy pure;
  EXPECT_EQ(pure.choose(catalog, 0.01, 0, 0, 10),
            catalog.find(PurchaseKind::kOnDemand));
}

// ------------------------------------------------- revocation through drain

TEST(Revocation, DrainingInstanceCompletesInFlightInsideTheNotice) {
  World world;
  ApplicationProvisioner provisioner(world.sim, world.datacenter, lenient_qos(),
                                     provisioner_config());
  MarketBroker broker(world.sim, world.datacenter, revoking_market(100.0), 5);
  broker.attach(provisioner);
  broker.start();

  provisioner.scale_to(1);  // bought spot at price 0.2
  EXPECT_EQ(broker.purchases(PurchaseKind::kSpot), 1u);
  // Busy from t=30 to t=80: the revocation at t=60 must drain, not kill.
  world.sim.schedule_at(30.0, [&] {
    provisioner.on_request(make_request(1, 30.0, 50.0));
  });
  world.sim.run(500.0);

  EXPECT_EQ(broker.revocations(), 1u);
  EXPECT_EQ(broker.revocation_kills(), 0u);  // drained before t=160
  EXPECT_EQ(provisioner.completed(), 1u);    // in-flight request finished
  EXPECT_EQ(provisioner.lost_by_cause(FaultCause::kSpotRevocation), 0u);
  EXPECT_EQ(provisioner.failures_by_cause(FaultCause::kSpotRevocation), 0u);
  EXPECT_EQ(world.datacenter.live_vm_count(), 0u);
}

TEST(Revocation, ExpiredNoticeHardKillsAndReconcilerHealsOnDemand) {
  World world;
  ApplicationProvisioner provisioner(world.sim, world.datacenter, lenient_qos(),
                                     provisioner_config());
  MarketBroker broker(world.sim, world.datacenter, revoking_market(100.0), 5);
  broker.attach(provisioner);
  broker.start();
  ReconcilerConfig rconfig;
  rconfig.enabled = true;
  rconfig.interval = 30.0;
  Reconciler reconciler(world.sim, provisioner, rconfig);
  reconciler.start();

  provisioner.scale_to(1);
  // Busy until t=1000: the notice served at t=60 expires at t=160 with the
  // request still in flight -> hard kill through the fault path.
  provisioner.on_request(make_request(1, 0.0, 1000.0));
  world.sim.run(500.0);

  EXPECT_EQ(broker.revocations(), 1u);
  EXPECT_EQ(broker.revocation_kills(), 1u);
  EXPECT_EQ(provisioner.lost_by_cause(FaultCause::kSpotRevocation), 1u);
  EXPECT_EQ(provisioner.failures_by_cause(FaultCause::kSpotRevocation), 1u);
  EXPECT_EQ(provisioner.lost_to_failures(), 1u);
  // The reconciler healed the revoked deficit; the replacement was bought
  // on-demand (price 1.1+ > bid 0.7 ever since the revocation).
  EXPECT_GE(reconciler.heals(), 1u);
  EXPECT_EQ(provisioner.active_instances(), 1u);
  EXPECT_GE(broker.purchases(PurchaseKind::kOnDemand), 1u);
  EXPECT_EQ(broker.purchases(PurchaseKind::kSpot), 1u);  // never spot again
}

// What-if forks rank market candidates by total_cost(), which must equal
// finalize()'s total bit for bit: the same bills summed in ledger order over
// a price path it advanced to the horizon itself.
TEST(MarketBilling, TotalCostMatchesFinalizeBitForBit) {
  World world;
  ApplicationProvisioner provisioner(world.sim, world.datacenter, lenient_qos(),
                                     provisioner_config());
  MarketConfig config = revoking_market(100.0);
  config.acquisition.spot_fraction = 0.5;
  config.acquisition.reserved_pool = 1;
  MarketBroker broker(world.sim, world.datacenter, config, 5);
  broker.attach(provisioner);
  broker.start();

  provisioner.scale_to(4);  // one reserved, then spot under the cap
  world.sim.schedule_at(200.0, [&] { provisioner.scale_to(2); });
  world.sim.run(900.0);
  broker.stop();
  EXPECT_EQ(broker.purchases(PurchaseKind::kReserved), 1u);
  EXPECT_GE(broker.purchases(PurchaseKind::kSpot), 1u);
  EXPECT_GE(broker.purchases(PurchaseKind::kOnDemand), 1u);

  const double cost = broker.total_cost(3600.0);  // past the last tick
  const MarketReport report = broker.finalize(3600.0);
  EXPECT_GT(cost, 0.0);
  EXPECT_EQ(cost, report.total_cost);
}

TEST(Revocation, BootingInstanceIsDestroyedOutright) {
  World world(4, /*boot_delay=*/200.0);  // still BOOTING at the t=60 revoke
  ApplicationProvisioner provisioner(world.sim, world.datacenter, lenient_qos(),
                                     provisioner_config());
  MarketBroker broker(world.sim, world.datacenter, revoking_market(100.0), 5);
  broker.attach(provisioner);
  broker.start();

  provisioner.scale_to(1);
  world.sim.run(500.0);

  EXPECT_EQ(broker.revocations(), 1u);
  // Destroyed at notice time (held no requests); the kill found it gone.
  EXPECT_EQ(broker.revocation_kills(), 0u);
  EXPECT_EQ(provisioner.active_instances(), 0u);
  EXPECT_EQ(provisioner.failures_by_cause(FaultCause::kSpotRevocation), 0u);
  EXPECT_EQ(world.datacenter.live_vm_count(), 0u);
}

TEST(Revocation, RevokedDrainersAreNeverResurrectedByScaleUps) {
  World world;
  ApplicationProvisioner provisioner(world.sim, world.datacenter, lenient_qos(),
                                     provisioner_config());
  // Long notice: the drainers stay alive for the whole test window.
  MarketBroker broker(world.sim, world.datacenter, revoking_market(1000.0), 5);
  broker.attach(provisioner);
  broker.start();

  provisioner.scale_to(2);  // both spot at price 0.2
  EXPECT_EQ(broker.purchases(PurchaseKind::kSpot), 2u);
  // Both busy until t=300, so the t=60 revocation drains both.
  provisioner.on_request(make_request(1, 0.0, 300.0));
  provisioner.on_request(make_request(2, 0.0, 300.0));

  // A scale-up while the revoked pair is still draining must buy fresh
  // capacity (on-demand: price 1.1 > bid) instead of resurrecting them.
  world.sim.schedule_at(90.0, [&] {
    EXPECT_EQ(provisioner.active_instances(), 0u);
    EXPECT_EQ(provisioner.draining_instances(), 2u);
    EXPECT_EQ(provisioner.scale_to(2), 2u);
    EXPECT_EQ(provisioner.draining_instances(), 2u);  // untouched
    EXPECT_EQ(world.datacenter.total_vms_created(), 4u);
    EXPECT_EQ(broker.purchases(PurchaseKind::kOnDemand), 2u);
  });
  world.sim.run(200.0);  // before the requests finish and the notice expires

  EXPECT_EQ(broker.revocations(), 2u);
  EXPECT_EQ(provisioner.active_instances(), 2u);
  EXPECT_EQ(provisioner.draining_instances(), 2u);
}

// ---------------------------------------------------- end-to-end guarantees

ScenarioConfig short_web() {
  ScenarioConfig config = web_scenario(0.01);
  config.horizon = 2.0 * 3600.0;
  config.web.horizon = config.horizon;
  return config;
}

TEST(MarketNoOp, DisabledAndPureOnDemandMarketsAreBitIdentical) {
  const RunMetrics off =
      run_scenario(short_web(), PolicySpec::adaptive(), 42).metrics;

  ScenarioConfig od = short_web();
  od.market.enabled = true;  // standard catalog, spot_fraction 0, bid 0
  const RunOutput on = run_scenario(od, PolicySpec::adaptive(), 42);

  // The simulation is identical; only the enabled market's bill differs.
  expect_same_metrics(off, on.metrics,
                      {"billed_cost", "on_demand_cost", "on_demand_purchases",
                       "wall_seconds"});
  // The disabled run reports no market block at all...
  EXPECT_EQ(off.billed_cost, 0.0);
  EXPECT_EQ(off.on_demand_purchases, 0u);
  // ...while the pure on-demand market bills every purchase, spot-free.
  ASSERT_TRUE(on.market.has_value());
  EXPECT_GT(on.metrics.billed_cost, 0.0);
  EXPECT_GT(on.metrics.on_demand_purchases, 0u);
  EXPECT_EQ(on.metrics.spot_purchases, 0u);
  EXPECT_EQ(on.metrics.spot_revocations, 0u);
  EXPECT_TRUE(on.market->spot_path.empty());  // zero market events scheduled
}

ScenarioConfig spot_web() {
  ScenarioConfig config = short_web();
  config.market.enabled = true;
  config.market.acquisition.spot_fraction = 1.0;
  config.market.acquisition.bid = 0.7;
  config.market.spot_price.spike_rate_per_hour = 4.0;  // force revocations
  config.reconciler.enabled = true;
  config.reconciler.interval = 60.0;
  return config;
}

TEST(MarketDeterminism, SameSeedYieldsByteIdenticalMarketCsv) {
  const RunOutput a = run_scenario(spot_web(), PolicySpec::adaptive(), 11);
  const RunOutput b = run_scenario(spot_web(), PolicySpec::adaptive(), 11);
  ASSERT_TRUE(a.market.has_value());
  ASSERT_TRUE(b.market.has_value());
  EXPECT_GT(a.metrics.spot_purchases, 0u);

  std::ostringstream csv_a, csv_b;
  write_market_csv(csv_a, *a.market);
  write_market_csv(csv_b, *b.market);
  EXPECT_GT(csv_a.str().size(), 0u);
  EXPECT_EQ(csv_a.str(), csv_b.str());
  EXPECT_EQ(a.metrics.billed_cost, b.metrics.billed_cost);
  EXPECT_EQ(a.metrics.spot_revocations, b.metrics.spot_revocations);
  EXPECT_EQ(a.metrics.simulated_events, b.metrics.simulated_events);
}

TEST(MarketDeterminism, SpotMarketNeverPerturbsTheWorkloadStream) {
  // The market seed is drawn after the workload/placement/fault seeds, so
  // the same base seed generates the same arrivals with the market on or
  // off — only serving-side outcomes may differ.
  const RunMetrics off =
      run_scenario(short_web(), PolicySpec::adaptive(), 13).metrics;
  const RunMetrics spot =
      run_scenario(spot_web(), PolicySpec::adaptive(), 13).metrics;
  EXPECT_EQ(off.generated, spot.generated);
}

TEST(MarketTelemetry, ObservationalMonitorsDoNotChangeMarketOutcomes) {
  TelemetryOptions opts;  // metrics registry + trace ring on
  const RunOutput plain = run_scenario(spot_web(), PolicySpec::adaptive(), 17);
  const RunOutput traced =
      run_scenario(spot_web(), PolicySpec::adaptive(), 17, opts);
  ASSERT_TRUE(plain.market.has_value());
  ASSERT_TRUE(traced.market.has_value());
  EXPECT_EQ(plain.metrics.billed_cost, traced.metrics.billed_cost);
  EXPECT_EQ(plain.metrics.spot_revocations, traced.metrics.spot_revocations);
  EXPECT_EQ(plain.metrics.revocation_kills, traced.metrics.revocation_kills);
  EXPECT_EQ(plain.metrics.simulated_events, traced.metrics.simulated_events);

  std::ostringstream csv_a, csv_b;
  write_market_csv(csv_a, *plain.market);
  write_market_csv(csv_b, *traced.market);
  EXPECT_EQ(csv_a.str(), csv_b.str());
}

}  // namespace
}  // namespace cloudprov
