// Fixed-seed golden cross-check for the event-kernel rewrite.
//
// Unless a test notes its own provenance, every literal below was captured
// from the pre-rewrite kernel (type-erased std::function payloads in a
// binary std::priority_queue) running the same scenario smoke.
// The slab/typed-delegate kernel must reproduce them bit-for-bit: integers
// with ==, doubles with exact equality via hexfloat literals, and the full
// span CSV through an FNV-1a hash of the byte stream.
// A mismatch here means the kernel changed observable behavior — event
// ordering, RNG draw sequence, or telemetry sampling — not just performance.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>

#include "experiment/runner.h"
#include "experiment/scenario.h"
#include "experiment/world.h"
#include "layered_web.h"
#include "lookahead/checkpoint.h"
#include "profile/wall_profiler.h"
#include "telemetry/export.h"

namespace cloudprov {
namespace {

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

/// Golden copy of every deterministic RunMetrics field (wall_seconds is the
/// only field excluded: it measures the host, not the simulation).
struct GoldenMetrics {
  std::uint64_t generated, accepted, rejected, completed, qos_violations;
  double avg_response_time, std_response_time;
  double p95_response_time, p99_response_time;
  double min_instances, max_instances, avg_instances;
  double vm_hours, busy_vm_hours, utilization, rejection_rate;
  std::uint64_t instance_failures, vm_crashes, host_crashes, boot_failures,
      boot_timeouts;
  std::uint64_t lost_requests, lost_to_vm_crashes, lost_to_host_crashes;
  double availability;
  std::uint64_t recoveries;
  double mttr_mean, mttr_max;
  std::uint64_t reconciler_heals, reconciler_retries, reconciler_aborts,
      final_instances;
  std::uint64_t slo_response_alerts, slo_rejection_alerts;
  double slo_worst_burn_rate;
  std::uint64_t drift_windows;
  double drift_response_mape, drift_response_bias;
  std::uint64_t spans_traced;
  std::uint64_t simulated_events;
};

#define EXPECT_FIELD_EQ(field) EXPECT_EQ(m.field, g.field) << #field

void expect_bit_identical(const RunMetrics& m, const GoldenMetrics& g) {
  EXPECT_FIELD_EQ(generated);
  EXPECT_FIELD_EQ(accepted);
  EXPECT_FIELD_EQ(rejected);
  EXPECT_FIELD_EQ(completed);
  EXPECT_FIELD_EQ(qos_violations);
  EXPECT_FIELD_EQ(avg_response_time);
  EXPECT_FIELD_EQ(std_response_time);
  EXPECT_FIELD_EQ(p95_response_time);
  EXPECT_FIELD_EQ(p99_response_time);
  EXPECT_FIELD_EQ(min_instances);
  EXPECT_FIELD_EQ(max_instances);
  EXPECT_FIELD_EQ(avg_instances);
  EXPECT_FIELD_EQ(vm_hours);
  EXPECT_FIELD_EQ(busy_vm_hours);
  EXPECT_FIELD_EQ(utilization);
  EXPECT_FIELD_EQ(rejection_rate);
  EXPECT_FIELD_EQ(instance_failures);
  EXPECT_FIELD_EQ(vm_crashes);
  EXPECT_FIELD_EQ(host_crashes);
  EXPECT_FIELD_EQ(boot_failures);
  EXPECT_FIELD_EQ(boot_timeouts);
  EXPECT_FIELD_EQ(lost_requests);
  EXPECT_FIELD_EQ(lost_to_vm_crashes);
  EXPECT_FIELD_EQ(lost_to_host_crashes);
  EXPECT_FIELD_EQ(availability);
  EXPECT_FIELD_EQ(recoveries);
  EXPECT_FIELD_EQ(mttr_mean);
  EXPECT_FIELD_EQ(mttr_max);
  EXPECT_FIELD_EQ(reconciler_heals);
  EXPECT_FIELD_EQ(reconciler_retries);
  EXPECT_FIELD_EQ(reconciler_aborts);
  EXPECT_FIELD_EQ(final_instances);
  EXPECT_FIELD_EQ(slo_response_alerts);
  EXPECT_FIELD_EQ(slo_rejection_alerts);
  EXPECT_FIELD_EQ(slo_worst_burn_rate);
  EXPECT_FIELD_EQ(drift_windows);
  EXPECT_FIELD_EQ(drift_response_mape);
  EXPECT_FIELD_EQ(drift_response_bias);
  EXPECT_FIELD_EQ(spans_traced);
  EXPECT_FIELD_EQ(simulated_events);
}

#undef EXPECT_FIELD_EQ

// Figure 5 smoke configuration: web workload at scale 0.01, one day,
// adaptive policy, seed 42, every request traced.
ScenarioConfig fig5_config() {
  ScenarioConfig config = web_scenario(0.01);
  config.horizon = 86400.0;
  config.web.horizon = config.horizon;
  return config;
}

TelemetryOptions fig5_telemetry(const ScenarioConfig& config) {
  TelemetryOptions opts;
  opts.span_sample_rate = 1.0;
  opts.drift_enabled = true;
  opts.drift.qos_max_response_time = config.qos.max_response_time;
  opts.slo_enabled = true;
  opts.slo.log_alerts = false;
  return opts;
}

// Golden literals of the Figure 5 smoke, captured 2026-08 from the
// pre-rewrite kernel. Shared by the kernel test and the market no-op test:
// a market buying pure on-demand capacity must reproduce every one.
GoldenMetrics fig5_golden() {
  GoldenMetrics g{};
  g.generated=707184; g.accepted=676603; g.rejected=30581; g.completed=676603; g.qos_violations=0;
  g.avg_response_time=0x1.e89d23e44bea6p-4; g.std_response_time=0x1.bd98ac964c12fp-6;
  g.p95_response_time=0x1.88639ec3041d5p-3; g.p99_response_time=0x1.a815581ff9e3p-3;
  g.min_instances=0x1p+0; g.max_instances=0x1p+1; g.avg_instances=0x1.cad82d82d82d8p+0;
  g.vm_hours=0x1.5822222222222p+5; g.busy_vm_hours=0x1.3bbff6c5920b7p+4; g.utilization=0x1.d5c56d2983e2ap-2; g.rejection_rate=0x1.623fdcc8e3a5fp-5;
  g.instance_failures=0; g.vm_crashes=0; g.host_crashes=0; g.boot_failures=0; g.boot_timeouts=0;
  g.lost_requests=0; g.lost_to_vm_crashes=0; g.lost_to_host_crashes=0;
  g.availability=0x1p+0; g.recoveries=0; g.mttr_mean=0x0p+0; g.mttr_max=0x0p+0;
  g.reconciler_heals=0; g.reconciler_retries=0; g.reconciler_aborts=0; g.final_instances=2;
  g.slo_response_alerts=0; g.slo_rejection_alerts=4; g.slo_worst_burn_rate=0x1.7f84aa656d227p+4;
  g.drift_windows=1440; g.drift_response_mape=0x1.0fec0be5c6417p+4; g.drift_response_bias=0x1.46dbc50b9b7e1p-6; g.spans_traced=707184;
  g.simulated_events=1385227;
  return g;
}

void expect_fig5_span_csv(const RunOutput& out) {
  // The span trace pins per-request timing end to end: one flipped bit in
  // any arrival, admission, or completion timestamp changes the hash.
  ASSERT_NE(out.telemetry, nullptr);
  std::ostringstream csv;
  write_span_csv(csv, *out.telemetry->spans());
  const std::string bytes = csv.str();
  EXPECT_EQ(bytes.size(), 14729937u);
  EXPECT_EQ(fnv1a(bytes), 0xbdf90a2e3fd773c6ULL);
}

TEST(KernelGolden, Fig5SmokeWithTelemetryIsBitIdentical) {
  const ScenarioConfig config = fig5_config();
  const RunOutput out = run_scenario(config, PolicySpec::adaptive(), 42,
                                     fig5_telemetry(config));
  expect_bit_identical(out.metrics, fig5_golden());
  expect_fig5_span_csv(out);
}

// The market layer must be a strict no-op when it only sells on-demand
// capacity at the inherited boot delay: same goldens, same span bytes, plus
// a billed ledger on the side (ISSUE 5 acceptance).
TEST(KernelGolden, MarketPureOnDemandReproducesFig5Goldens) {
  ScenarioConfig config = fig5_config();
  config.market.enabled = true;  // standard catalog, spot_fraction 0, bid 0
  const RunOutput out = run_scenario(config, PolicySpec::adaptive(), 42,
                                     fig5_telemetry(config));
  expect_bit_identical(out.metrics, fig5_golden());
  expect_fig5_span_csv(out);

  // The ledger exists and bills every purchase, but scheduled zero events.
  EXPECT_GT(out.metrics.billed_cost, 0.0);
  EXPECT_GT(out.metrics.on_demand_purchases, 0u);
  EXPECT_EQ(out.metrics.spot_purchases, 0u);
  EXPECT_EQ(out.metrics.spot_revocations, 0u);
}

// The resilience layer must be a strict no-op when enabled with every
// feature neutral (no timeout, single attempt, no budget/breaker/shed):
// attempt 1 forwards the Broker's request verbatim and the gateway draws no
// RNG and schedules no events, so the goldens and the span bytes are
// reproduced exactly — with client-side accounting on the side (ISSUE 7
// acceptance).
TEST(KernelGolden, NeutralResilienceReproducesFig5Goldens) {
  ScenarioConfig config = fig5_config();
  config.resilience.enabled = true;  // defaults: everything off
  const RunOutput out = run_scenario(config, PolicySpec::adaptive(), 42,
                                     fig5_telemetry(config));
  expect_bit_identical(out.metrics, fig5_golden());
  expect_fig5_span_csv(out);

  // The gateway observed every request without perturbing the run.
  EXPECT_EQ(out.metrics.client_requests, out.metrics.generated);
  EXPECT_EQ(out.metrics.client_attempts, out.metrics.generated);
  EXPECT_EQ(out.metrics.client_succeeded, out.metrics.completed);
  EXPECT_EQ(out.metrics.client_failed, out.metrics.rejected);
  EXPECT_EQ(out.metrics.client_retries, 0u);
  EXPECT_EQ(out.metrics.client_timeouts, 0u);
  EXPECT_EQ(out.metrics.breaker_opens, 0u);
  EXPECT_EQ(out.metrics.shed_deadline, 0u);
  EXPECT_EQ(out.metrics.shed_brownout, 0u);
}

// The wall-clock profiler is output-only: attaching one must leave every
// metric and every span byte bit-identical (ISSUE 8 acceptance). This is
// the strongest statement of "profiling cannot perturb the simulation" —
// one extra RNG draw, one reordered event, or one perturbed timestamp
// anywhere would flip the span hash.
TEST(KernelGolden, ProfiledFig5ReproducesGoldens) {
  const ScenarioConfig config = fig5_config();
  WallProfiler profiler(/*snapshot_interval_seconds=*/0.01);
  const RunOutput out = run_scenario(config, PolicySpec::adaptive(), 42,
                                     fig5_telemetry(config), &profiler);
  expect_bit_identical(out.metrics, fig5_golden());
  expect_fig5_span_csv(out);

  // And the profiler really observed the run while staying invisible.
  const auto& totals = profiler.totals();
  EXPECT_EQ(totals[static_cast<std::size_t>(ProfileCategory::kEngineRun)].count,
            1u);
  EXPECT_GT(
      totals[static_cast<std::size_t>(ProfileCategory::kPolicyDecision)].count,
      0u);
  ASSERT_FALSE(profiler.snapshots().empty());
  EXPECT_EQ(profiler.snapshots().back().executed_events,
            out.metrics.simulated_events);
  EXPECT_GT(profiler.snapshots().back().heap_high_water, 0u);
}

// Fault-ablation smoke: same workload with stochastic VM/host crashes, boot
// faults, degradations, an allocation outage, a scripted host crash, and the
// reconciler — covers the cancellation path (completion events of failed
// VMs) and every boxed-closure scheduler. Seed 7, telemetry off.
TEST(KernelGolden, FaultAblationSmokeIsBitIdentical) {
  ScenarioConfig config = web_scenario(0.01);
  config.horizon = 86400.0;
  config.web.horizon = config.horizon;
  config.fault.vm_mtbf = 4.0 * 3600.0;
  config.fault.host_mtbf = 12.0 * 3600.0;
  config.fault.boot_fail_prob = 0.1;
  config.fault.straggler_prob = 0.1;
  config.fault.degraded_mtbf = 2.0 * 3600.0;
  config.fault.outages.push_back({30000.0, 32000.0});
  config.fault.scripted.push_back({ScriptedFault::Kind::kHostCrash, 40000.0, 1});
  config.boot_timeout = 300.0;
  config.reconciler.enabled = true;
  config.reconciler.interval = 60.0;
  const RunOutput out = run_scenario(config, PolicySpec::adaptive(), 7);

  GoldenMetrics g{};
  g.generated=706949; g.accepted=677908; g.rejected=29041; g.completed=677905; g.qos_violations=6275;
  g.avg_response_time=0x1.02a3b4dc745a5p-3; g.std_response_time=0x1.9e2e88e3b5937p-5;
  g.p95_response_time=0x1.bcaf0485fe111p-3; g.p99_response_time=0x1.374210281e37dp-2;
  g.min_instances=0x1p+0; g.max_instances=0x1p+2; g.avg_instances=0x1.a5b8ec3682487p+1;
  g.vm_hours=0x1.3c4ab128e1b65p+6; g.busy_vm_hours=0x1.77bbb3dbb66e1p+4; g.utilization=0x1.301c553cb1bcbp-2; g.rejection_rate=0x1.50859ffee0405p-5;
  g.instance_failures=13; g.vm_crashes=9; g.host_crashes=1; g.boot_failures=3; g.boot_timeouts=0;
  g.lost_requests=3; g.lost_to_vm_crashes=3; g.lost_to_host_crashes=0;
  g.availability=0x1.fcef11901482bp-1; g.recoveries=13; g.mttr_mean=0x1.3e681b3f10876p+5; g.mttr_max=0x1.ep+5;
  g.reconciler_heals=0; g.reconciler_retries=0; g.reconciler_aborts=0; g.final_instances=2;
  g.slo_response_alerts=0; g.slo_rejection_alerts=0; g.slo_worst_burn_rate=0x0p+0;
  g.drift_windows=0; g.drift_response_mape=0x0p+0; g.drift_response_bias=0x0p+0; g.spans_traced=0;
  g.simulated_events=1387838;
  expect_bit_identical(out.metrics, g);
}

// Lookahead smoke: web at scale 0.01, six hours, K = 3 candidates over a
// three-window horizon, seed 42. Every window forks what-if clones, and two
// of the 361 committed targets differ from the adaptive run's, so these
// literals pin what the forks decided, not just that they ran. The literals
// were captured before the fork path shared the profile table, stored hosts
// flat and dropped tail quantiles from clones.
TEST(KernelGolden, LookaheadSearchIsBitIdentical) {
  ScenarioConfig config = web_scenario(0.01);
  config.horizon = 6.0 * 3600.0;
  config.web.horizon = config.horizon;
  const RunOutput out =
      run_scenario(config, PolicySpec::lookahead_spec(3, 3), 42);

  GoldenMetrics g{};
  g.generated=148644; g.accepted=128168; g.rejected=20476; g.completed=128167; g.qos_violations=0;
  g.avg_response_time=0x1.0aa3eefbb3f8cp-3; g.std_response_time=0x1.1d0c18c242af9p-5;
  g.p95_response_time=0x1.9a8943c11ecep-3; g.p99_response_time=0x1.ad23ec0ee9edep-3;
  g.min_instances=0x1p+0; g.max_instances=0x1p+1; g.avg_instances=0x1.2aaaaaaaaaaabp+0;
  g.vm_hours=0x1.cp+2; g.busy_vm_hours=0x1.de8f51068c187p+1; g.utilization=0x1.1176777174a04p-1; g.rejection_rate=0x1.1a1db0fbdc184p-3;
  g.instance_failures=0; g.vm_crashes=0; g.host_crashes=0; g.boot_failures=0; g.boot_timeouts=0;
  g.lost_requests=0; g.lost_to_vm_crashes=0; g.lost_to_host_crashes=0;
  g.availability=0x1p+0; g.recoveries=0; g.mttr_mean=0x0p+0; g.mttr_max=0x0p+0;
  g.reconciler_heals=0; g.reconciler_retries=0; g.reconciler_aborts=0; g.final_instances=1;
  g.slo_response_alerts=0; g.slo_rejection_alerts=0; g.slo_worst_burn_rate=0x0p+0;
  g.drift_windows=0; g.drift_response_mape=0x0p+0; g.drift_response_bias=0x0p+0; g.spans_traced=0;
  g.simulated_events=277171;
  expect_bit_identical(out.metrics, g);

  // The committed decision sequence: one "time,target,achieved" line per
  // window, the time in hexfloat.
  std::string log;
  for (const AdaptivePolicy::DecisionRecord& d : out.decisions) {
    char line[64];
    std::snprintf(line, sizeof(line), "%a,%zu,%zu\n", d.time,
                  d.target_instances, d.achieved_instances);
    log += line;
  }
  EXPECT_EQ(out.decisions.size(), 361u);
  EXPECT_EQ(log.size(), 5655u);
  EXPECT_EQ(fnv1a(log), 0xa5034ba17258b1e0ULL);
}

// What-if forks called directly on a live lookahead world at 6 h and 12 h:
// four candidate pool sizes per instant, one fixed forecast rate and seed,
// three windows ahead. Pins each clone's outcome exactly.
TEST(KernelGolden, WhatIfOutcomesAreBitIdentical) {
  struct Golden {
    SimTime at;
    std::size_t target;
    double cost;
    std::uint64_t rejected, qos_violations, completed;
  };
  static constexpr Golden kGolden[] = {
      {0x1.518p+14, 1, 0x1.c666666666666p+2, 191, 0, 1582},
      {0x1.518p+14, 2, 0x1.c777777777777p+2, 39, 0, 1734},
      {0x1.518p+14, 3, 0x1.c888888888889p+2, 29, 0, 1744},
      {0x1.518p+14, 4, 0x1.c99999999999ap+2, 29, 0, 1744},
      {0x1.518p+15, 1, 0x1.319999999999ap+4, 191, 0, 1577},
      {0x1.518p+15, 2, 0x1.31ddddddddddep+4, 39, 0, 1729},
      {0x1.518p+15, 3, 0x1.3222222222222p+4, 29, 0, 1739},
      {0x1.518p+15, 4, 0x1.3266666666666p+4, 29, 0, 1739},
  };
  World world(web_scenario(0.01), PolicySpec::lookahead_spec(3, 3), 42);
  world.start();
  for (const Golden& g : kGolden) {
    world.run_to(g.at);
    WhatIfSpec spec;
    spec.target_instances = g.target;
    spec.forecast_rate = 10.0;
    spec.forecast_seed = 2024;
    spec.horizon = g.at + 180.0;
    const WhatIfOutcome outcome = world.what_if(spec);
    SCOPED_TRACE(testing::Message() << "t=" << g.at << " target=" << g.target);
    EXPECT_TRUE(outcome.valid);
    EXPECT_EQ(outcome.cost, g.cost);
    EXPECT_EQ(outcome.rejected, g.rejected);
    EXPECT_EQ(outcome.qos_violations, g.qos_violations);
    EXPECT_EQ(outcome.completed, g.completed);
  }
}

// Bid and market search: web at scale 0.01 for six hours with a live spot
// market (half the pool on spot at a 0.70 bid), K = 5 pool sizes (the m ± 2
// ring) crossed with two further bid levels over a one-window horizon, seed
// 42. The what-if cost is the market ledger here, so only the rejection and
// QoS-violation bounds can stop a fork early. Two windows commit a pool
// other than Algorithm 1's m (1 -> 2 at 17,880 s, 2 -> 1 at 21,540 s). The
// literals were captured before forks stopped early on a broken bound.
TEST(KernelGolden, LookaheadBidSearchIsBitIdentical) {
  ScenarioConfig config = web_scenario(0.01);
  config.horizon = 6.0 * 3600.0;
  config.web.horizon = config.horizon;
  config.market.enabled = true;
  config.market.acquisition.spot_fraction = 0.5;
  config.market.acquisition.bid = 0.70;
  const RunOutput out = run_scenario(
      config,
      PolicySpec::lookahead_spec(5, 1, PredictorKind::kProfile, {0.45, 1.0}),
      42);

  GoldenMetrics g{};
  g.generated=148644; g.accepted=128263; g.rejected=20381; g.completed=128262; g.qos_violations=0;
  g.avg_response_time=0x1.0a738342e31dbp-3; g.std_response_time=0x1.1cb8bc21ca88dp-5;
  g.p95_response_time=0x1.9a6e744896d78p-3; g.p99_response_time=0x1.ad1e874fa39c3p-3;
  g.min_instances=0x1p+0; g.max_instances=0x1p+1; g.avg_instances=0x1.2b60b60b60b61p+0;
  g.vm_hours=0x1.c111111111111p+2; g.busy_vm_hours=0x1.dee9d330296fdp+1; g.utilization=0x1.1103c6d586e66p-1; g.rejection_rate=0x1.18ce9cf8b0da6p-3;
  g.instance_failures=0; g.vm_crashes=0; g.host_crashes=0; g.boot_failures=0; g.boot_timeouts=0;
  g.lost_requests=0; g.lost_to_vm_crashes=0; g.lost_to_host_crashes=0;
  g.availability=0x1p+0; g.recoveries=0; g.mttr_mean=0x0p+0; g.mttr_max=0x0p+0;
  g.reconciler_heals=0; g.reconciler_retries=0; g.reconciler_aborts=0; g.final_instances=1;
  g.slo_response_alerts=0; g.slo_rejection_alerts=0; g.slo_worst_burn_rate=0x0p+0;
  g.drift_windows=0; g.drift_response_mape=0x0p+0; g.drift_response_bias=0x0p+0; g.spans_traced=0;
  g.simulated_events=277626;
  expect_bit_identical(out.metrics, g);
  EXPECT_EQ(out.metrics.billed_cost, 0x1.9798b826ac1e8p+2);

  // The committed decision sequence, in LookaheadSearchIsBitIdentical's
  // "time,target,achieved" format.
  std::string log;
  for (const AdaptivePolicy::DecisionRecord& d : out.decisions) {
    char line[64];
    std::snprintf(line, sizeof(line), "%a,%zu,%zu\n", d.time,
                  d.target_instances, d.achieved_instances);
    log += line;
  }
  EXPECT_EQ(out.decisions.size(), 361u);
  EXPECT_EQ(log.size(), 5655u);
  EXPECT_EQ(fnv1a(log), 0x99c13cdcba727110ULL);
}

// Tiered Zipf smoke: the cache tier's LRU/TTL directory and the Zipf key
// sampler on the request path, with a hot-key shift, a cache-VM crash (slot
// remaps -> invalidations) and a TTL storm (flush), every request traced.
// Pins the directory's hit/miss/eviction sequence and the key stream. The
// literals were captured from the node-based directory (std::list LRU plus
// std::unordered_map index) and the full-range std::lower_bound Zipf sampler;
// the flat slab directory and the guide-table sampler reproduce them exactly.
ScenarioConfig tiered_zipf_config() {
  ScenarioConfig config = zipf_scenario(0.02);
  config.horizon = 2.0 * 3600.0;
  config.zipf.horizon = config.horizon;
  config.zipf.hot_shift_at = {4000.0};
  config.apptier.enabled = true;
  config.apptier.cache_crash_at = {3000.0};
  config.apptier.flush_at = {5000.0};
  return config;
}

TEST(KernelGolden, TieredZipfSmokeIsBitIdentical) {
  const ScenarioConfig config = tiered_zipf_config();
  TelemetryOptions opts;
  opts.span_sample_rate = 1.0;
  const RunOutput out = run_scenario(config, PolicySpec::adaptive(), 42, opts);

  GoldenMetrics g{};
  g.generated=143096; g.accepted=142036; g.rejected=1060; g.completed=142034; g.qos_violations=0;
  g.avg_response_time=0x1.d5e6aaec6708p-5; g.std_response_time=0x1.c17a10163e07dp-5;
  g.p95_response_time=0x1.38985d2596646p-3; g.p99_response_time=0x1.8765a67b11eb4p-3;
  g.min_instances=0x1p+1; g.max_instances=0x1.8p+1; g.avg_instances=0x1.0111111111111p+1;
  g.vm_hours=0x1.0111111111111p+2; g.busy_vm_hours=0x1.d207f9d811c39p+0; g.utilization=0x1.d018f04f34be8p-2; g.rejection_rate=0x1.e57725e25117ap-8;
  g.instance_failures=0; g.vm_crashes=0; g.host_crashes=0; g.boot_failures=0; g.boot_timeouts=0;
  g.lost_requests=0; g.lost_to_vm_crashes=0; g.lost_to_host_crashes=0;
  g.availability=0x1p+0; g.recoveries=0; g.mttr_mean=0x0p+0; g.mttr_max=0x0p+0;
  g.reconciler_heals=0; g.reconciler_retries=0; g.reconciler_aborts=0; g.final_instances=2;
  g.slo_response_alerts=0; g.slo_rejection_alerts=0; g.slo_worst_burn_rate=0x0p+0;
  g.drift_windows=0; g.drift_response_mape=0x0p+0; g.drift_response_bias=0x0p+0; g.spans_traced=143096;
  g.simulated_events=285252;
  expect_bit_identical(out.metrics, g);

  // Every cache-tier field: the directory's hit/miss/fill/eviction/expiry/
  // invalidation sequence and both pools' accounting.
  const RunMetrics& m = out.metrics;
  EXPECT_EQ(m.cache_hits, 79612u);
  EXPECT_EQ(m.cache_misses, 63484u);
  EXPECT_EQ(m.cache_hit_ratio, 0x1.1cda66f60644dp-1);
  EXPECT_EQ(m.cache_fills, 62423u);
  EXPECT_EQ(m.cache_evictions, 33425u);
  EXPECT_EQ(m.cache_expirations, 20548u);
  EXPECT_EQ(m.cache_invalidations, 223u);
  EXPECT_EQ(m.cache_flushes, 1u);
  EXPECT_EQ(m.cache_vm_hours, 0x1.6aaaaaaaaaaabp+1);
  EXPECT_EQ(m.cache_utilization, 0x1.4fac255fa1be2p-4);
  EXPECT_EQ(m.cache_avg_instances, 0x1.6aaaaaaaaaaabp+0);
  EXPECT_EQ(m.cache_final_instances, 1u);
  EXPECT_EQ(m.lambda_miss_mean, 0x1.2b3ac445973a5p+3);
  EXPECT_EQ(m.cache_avg_response_time, 0x1.65cffbb7462f7p-7);
  EXPECT_EQ(m.backend_avg_response_time, 0x1.dd8d58a12efddp-4);

  ASSERT_NE(out.telemetry, nullptr);
  std::ostringstream csv;
  write_span_csv(csv, *out.telemetry->spans());
  const std::string bytes = csv.str();
  EXPECT_EQ(bytes.size(), 12594705u);
  EXPECT_EQ(fnv1a(bytes), 0x437982012dec1e7dULL);
  // The Chrome trace pins the apptier lane's cache_hit/cache_miss/cache_fill
  // instants, which the span CSV does not carry. Captured before the trace
  // ring stored per-request events as compact records; recaptured when the
  // market, resilience and apptier lanes got their names (three metadata
  // lines, 235 bytes, nothing else).
  std::ostringstream trace;
  write_chrome_trace(trace, out.telemetry->trace(), "cloudprov",
                     out.telemetry->spans());
  EXPECT_EQ(trace.str().size(), 43682454u);
  EXPECT_EQ(fnv1a(trace.str()), 0x81f94114be3b525aULL);
}

// Layered web day (tests/layered_web.h) at scale 0.01, seed 42. Unlike the
// neutral-gateway golden above, every admitted attempt here arms a client
// timeout. The literals were captured before the event queue gained its
// FIFO lane and before the gateway, the span tracer and the drift monitor
// moved to flat tables; the Chrome trace's were recaptured when the market,
// resilience and apptier lanes got their names (three metadata lines).
/// One pinned RunMetrics field: an integer, or a double held as its bits.
struct PinnedField {
  template <typename T>
  constexpr PinnedField(const char* field, T value)
      : name(field),
        real(std::is_floating_point_v<T>),
        bits(std::is_floating_point_v<T>
                 ? std::bit_cast<std::uint64_t>(static_cast<double>(value))
                 : static_cast<std::uint64_t>(value)) {}
  const char* name;
  bool real;
  std::uint64_t bits;
};

/// Every field for_each_metric visits except wall_seconds, in visit order.
void expect_pinned(const RunMetrics& m, std::span<const PinnedField> golden) {
  std::size_t i = 0;
  for_each_metric(m, [&](const char* name, const auto& value,
                         MetricDirection, MetricGroup) {
    if (std::string_view(name) == "wall_seconds") return;
    ASSERT_LT(i, golden.size()) << name << " is not pinned";
    const PinnedField& g = golden[i++];
    ASSERT_EQ(std::string_view(name), g.name);
    using T = std::remove_cvref_t<decltype(value)>;
    EXPECT_EQ(std::is_floating_point_v<T>, g.real) << name;
    const PinnedField actual(name, value);
    if constexpr (std::is_floating_point_v<T>) {
      char text[64];
      std::snprintf(text, sizeof(text), "%a", value);
      EXPECT_EQ(actual.bits, g.bits) << name << " = " << text;
    } else {
      EXPECT_EQ(actual.bits, g.bits) << name << " = " << value;
    }
  });
  EXPECT_EQ(i, golden.size());
}

TEST(KernelGolden, LayeredWebIsBitIdentical) {
  const ScenarioConfig config = layered_web_config(0.01);
  World world(config, PolicySpec::adaptive(), 42,
              layered_web_telemetry(config, 42));
  world.start();
  world.run_to(config.horizon / 2.0);
  std::ostringstream checkpoint;
  write_checkpoint(checkpoint, world.snapshot());
  world.run_to(config.horizon);
  const RunOutput out = world.finish();
  ASSERT_NE(out.telemetry, nullptr);

  static constexpr PinnedField kGolden[] = {
      {"seed", 42u},
      {"generated", 707184u},
      {"accepted", 686224u},
      {"rejected", 42170u},
      {"completed", 686200u},
      {"qos_violations", 0u},
      {"avg_response_time", 0x1.ef1a65e091f2cp-4},
      {"std_response_time", 0x1.d3558df05b9a2p-6},
      {"p95_response_time", 0x1.8bd9ae9c2c383p-3},
      {"p99_response_time", 0x1.aa107d8862f45p-3},
      {"min_instances", 0x0p+0},
      {"max_instances", 0x1p+1},
      {"avg_instances", 0x1.c924816a0cb4bp+0},
      {"vm_hours", 0x1.56db610f89879p+5},
      {"busy_vm_hours", 0x1.403bd334988dap+4},
      {"utilization", 0x1.de37463900709p-2},
      {"rejection_rate", 0x1.da458c45f5009p-5},
      {"instance_failures", 29u},
      {"vm_crashes", 29u},
      {"host_crashes", 0u},
      {"boot_failures", 0u},
      {"boot_timeouts", 0u},
      {"lost_requests", 24u},
      {"lost_to_vm_crashes", 24u},
      {"lost_to_host_crashes", 0u},
      {"availability", 0x1.fc98a7ce690e8p-1},
      {"recoveries", 29u},
      {"mttr_mean", 0x1.3ce52d9f08a9fp+4},
      {"mttr_max", 0x1.473b1cd00fp+4},
      {"reconciler_heals", 0u},
      {"reconciler_retries", 0u},
      {"reconciler_aborts", 0u},
      {"final_instances", 2u},
      {"slo_response_alerts", 0u},
      {"slo_rejection_alerts", 1u},
      {"slo_worst_burn_rate", 0x1.df8674fc33a7fp+4},
      {"drift_windows", 1440u},
      {"drift_response_mape", 0x1.ef78332ef249bp+3},
      {"drift_response_bias", 0x1.2bc17da89a3d7p-6},
      {"spans_traced", 73033u},
      {"billed_cost", 0x1.ed8baff1ea2dap+4},
      {"on_demand_cost", 0x1.7fd3a06d3a06cp+4},
      {"spot_cost", 0x1.b6e03e12c09b8p+2},
      {"reserved_cost", 0x0p+0},
      {"on_demand_purchases", 28u},
      {"spot_purchases", 3u},
      {"reserved_purchases", 0u},
      {"spot_revocations", 0u},
      {"revocation_kills", 0u},
      {"lost_to_revocations", 0u},
      {"spot_price_mean", 0x1.630a0d34e6c12p-2},
      {"spot_price_max", 0x1.5a8ebc9091474p-1},
      {"client_requests", 707184u},
      {"client_succeeded", 686200u},
      {"client_failed", 20984u},
      {"client_attempts", 734845u},
      {"client_retries", 27661u},
      {"retry_budget_denied", 20364u},
      {"client_timeouts", 24u},
      {"wasted_completions", 0u},
      {"breaker_opens", 141u},
      {"breaker_half_opens", 141u},
      {"breaker_closes", 52u},
      {"breaker_fast_fails", 6451u},
      {"shed_deadline", 0u},
      {"shed_brownout", 0u},
      {"capacity_clips", 0u},
      {"capacity_denied", 0u},
      {"cache_hits", 0u},
      {"cache_misses", 0u},
      {"cache_hit_ratio", 0x0p+0},
      {"cache_fills", 0u},
      {"cache_evictions", 0u},
      {"cache_expirations", 0u},
      {"cache_invalidations", 0u},
      {"cache_flushes", 0u},
      {"cache_vm_hours", 0x0p+0},
      {"cache_utilization", 0x0p+0},
      {"cache_avg_instances", 0x0p+0},
      {"cache_final_instances", 0u},
      {"lambda_miss_mean", 0x0p+0},
      {"cache_avg_response_time", 0x0p+0},
      {"backend_avg_response_time", 0x0p+0},
      {"simulated_events", 1425418u},
  };
  expect_pinned(out.metrics, kGolden);

  std::ostringstream spans;
  write_span_csv(spans, *out.telemetry->spans());
  std::ostringstream trace;
  write_chrome_trace(trace, out.telemetry->trace(), "cloudprov",
                     out.telemetry->spans());
  std::ostringstream drift;
  write_drift_csv(drift, *out.telemetry->drift());
  EXPECT_EQ(checkpoint.str().size(), 117279u);
  EXPECT_EQ(fnv1a(checkpoint.str()), 0x40b7b30b473c273dULL);
  EXPECT_EQ(spans.str().size(), 14910487u);
  EXPECT_EQ(fnv1a(spans.str()), 0xf538c49b6752354aULL);
  EXPECT_EQ(trace.str().size(), 57822106u);
  EXPECT_EQ(fnv1a(trace.str()), 0x836c4467dfaf7ac7ULL);
  EXPECT_EQ(drift.str().size(), 350531u);
  EXPECT_EQ(fnv1a(drift.str()), 0x9497b2d22fccbaceULL);
}

}  // namespace
}  // namespace cloudprov
