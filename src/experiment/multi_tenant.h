// Multi-tenant scale-out: N independent SaaS applications on one shared
// infrastructure, each on an event kernel of its own, advanced by a pool of
// shard worker threads.
//
// The paper provisions a single application; realistic cloud evaluation
// needs many tenants contending for the same capacity. This module grows
// the experiment layer in two directions at once:
//
//  - Scenario: `multi_tenant_specs` derives N fully resolved per-tenant
//    scenarios from one master seed — workload kind (web vs BoT mix),
//    arrival scale, jittered QoS target, and the tenant's own World seed
//    (which in turn derives its workload/fault/market/... streams). All of
//    it is a pure function of MultiTenantConfig, so the tenant population
//    is reproducible and independent of how the run is sharded.
//  - Execution: every tenant's World runs on its own event kernel, and a
//    pool of worker threads (--shards) advances the tenants in lockstep
//    windows under sim/shard_executor. Tenant i's home is worker
//    i % shards: in each window a worker runs its home tenants' worlds to
//    the boundary one after another, then claims the other workers'
//    unfinished tenants, reading each world's counters after advancing it.
//    At every window boundary the serial commit section runs the
//    CapacityArbiter, which reconciles tenant desires against the shared
//    instance capacity in ascending tenant-id order.
//
// Determinism: a tenant's events run in its own kernel's (time, push-seq)
// order, on a push counter no other tenant touches, and tenants never
// touch each other's state between barriers; so which worker runs a
// tenant, and which tenants it runs before or after, cannot change it.
// Cross-tenant interaction exists only inside the serial commit, which
// walks tenants in id order against identical desires no matter how many
// worker threads produced them. Hence per-tenant results are bit-identical
// for every shard count — enforced by tests/multi_tenant_test.cc.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "experiment/metrics.h"
#include "experiment/scenario.h"
#include "experiment/world.h"
#include "telemetry/telemetry.h"

namespace cloudprov {

class WallProfiler;

struct MultiTenantConfig {
  /// Tenant population size.
  std::size_t tenants = 64;
  /// Master seed: tenant seeds, spec jitter, and the shared spot-price
  /// path are all derived from it.
  std::uint64_t seed = 42;
  SimTime horizon = 7200.0;
  /// Barrier cadence: shards sync and the arbiter reconciles grants every
  /// `window` sim seconds (the paper's 60 s analysis window by default).
  SimTime window = 60.0;

  /// Fraction of tenants running the BoT/scientific scenario instead of
  /// the web scenario (deterministic per-tenant draw).
  double bot_fraction = 0.25;
  /// Fraction of tenants running the Zipf key-value scenario; drawn from
  /// the SAME per-tenant uniform as bot_fraction (bot first, then zipf),
  /// so a zero fraction is bit-identical to the pre-apptier population.
  /// bot_fraction + zipf_fraction must be <= 1.
  double zipf_fraction = 0.0;
  /// Run every Zipf tenant with the cache tier in front of its backend
  /// (src/apptier); the backend pool stays the arbitrated one.
  bool zipf_tiers = false;
  /// Mean per-tenant arrival-rate scale (web_scenario/scientific_scenario
  /// scale factor); tenant i draws uniformly from
  /// tenant_scale * [1 - scale_spread, 1 + scale_spread].
  double tenant_scale = 0.002;
  double scale_spread = 0.5;
  /// Per-tenant Ts jitter: multiplied by U(1, 1 + qos_spread).
  double qos_spread = 0.10;

  /// Shared instance slots arbitrated across all tenants per window;
  /// 0 resolves to 4 * tenants.
  std::size_t capacity = 0;
  /// Static per-tenant ceiling (anti-hog); 0 disables.
  std::size_t per_tenant_cap = 0;

  /// Shared IaaS spot market: every tenant prices against one common spot
  /// trajectory (MarketConfig::price_seed_override derived from `seed`).
  bool market_enabled = false;
  double spot_fraction = 0.0;
  double bid = 0.0;

  std::size_t resolved_capacity() const {
    return capacity != 0 ? capacity : 4 * tenants;
  }
};

/// One fully resolved tenant: its World seed and scenario. Pure function of
/// (MultiTenantConfig, tenant id) — never of shard assignment.
struct TenantSpec {
  std::size_t id = 0;
  std::uint64_t seed = 0;
  ScenarioConfig scenario;
};

/// Derives the full tenant population (ascending id). Exposed separately so
/// tests can assert spec determinism and CLI layers can print the mix.
std::vector<TenantSpec> multi_tenant_specs(const MultiTenantConfig& config);

/// Deterministic shared-capacity arbiter. Grants never exceed the shared
/// capacity (nor the per-tenant cap); contraction is immediate (a tenant
/// wanting less releases slots this round), expansion is served in
/// ascending tenant-id order while free slots remain. Pure state machine —
/// no clocks, no RNG — so its outcome depends only on the desire vector.
class CapacityArbiter {
 public:
  CapacityArbiter(std::size_t capacity, std::size_t per_tenant_cap,
                  std::size_t tenants);

  /// One arbitration round; `desires[i]` is tenant i's requested pool size.
  /// Returns the new grant vector (also retained in grants()).
  const std::vector<std::size_t>& arbitrate(
      const std::vector<std::size_t>& desires);

  const std::vector<std::size_t>& grants() const { return grants_; }
  std::size_t capacity() const { return capacity_; }
  /// Tenant-rounds whose grant came out below their desire.
  std::uint64_t clips() const { return clips_; }
  /// Instance-rounds desired but not granted (summed shortfall).
  std::uint64_t denied() const { return denied_; }
  /// Largest total granted in any round so far.
  std::size_t peak_granted() const { return peak_granted_; }

 private:
  std::size_t capacity_;
  std::size_t per_tenant_cap_;
  std::vector<std::size_t> grants_;
  std::uint64_t clips_ = 0;
  std::uint64_t denied_ = 0;
  std::size_t peak_granted_ = 0;
};

struct TenantResult {
  std::size_t id = 0;
  WorkloadKind kind = WorkloadKind::kWeb;
  RunMetrics metrics;
  /// Span-traced tenants keep their telemetry collector (null otherwise);
  /// the golden test hashes its span CSV across shard counts.
  std::unique_ptr<Telemetry> telemetry;
};

/// One fleet-level telemetry row per barrier window: the sum of every
/// tenant's counter deltas over that window (cache hits and misses come
/// from tiered Zipf tenants only). Accumulated worker-locally by whichever
/// worker advanced the tenant and drained into the series inside the serial
/// barrier commit — tenants never serialize on a shared registry
/// mid-window, so the pattern holds at thousands of tenants.
struct FleetWindowSample : World::Counters {
  SimTime t = 0.0;  ///< window-end barrier time
};

struct MultiTenantResult {
  std::vector<TenantResult> tenants;  ///< ascending tenant id
  std::size_t shards = 1;
  std::uint64_t windows = 0;  ///< barrier commits executed
  std::size_t capacity = 0;   ///< resolved shared capacity

  /// Per-window fleet rollup (one row per barrier commit); identical for
  /// every shard count like everything else in the result.
  std::vector<FleetWindowSample> window_series;

  // Arbiter contention (from CapacityArbiter, cumulative over all rounds).
  std::uint64_t grant_clips = 0;
  std::uint64_t instances_denied = 0;
  std::size_t peak_granted = 0;

  /// The sum of the tenants' simulated_events.
  std::uint64_t simulated_events = 0;
  double wall_seconds = 0.0;

  /// Cross-tenant rollup (tenant_rollup), with the run's policy label, its
  /// master `seed` and its wall_seconds. Each tenant field rolls up by one
  /// rule:
  ///  - sums: every other counter (simulated_events included), costs,
  ///    VM-hours, cache VM-hours, lambda_miss_mean (the backends' offered
  ///    loads add up), and the instance statistics min/max/avg and
  ///    cache_avg_instances (per-tenant statistics summed, not a
  ///    time-aligned fleet series);
  ///  - maxima: mttr_max and slo_worst_burn_rate;
  ///  - means weighted over the tenants that carry them:
  ///    avg_response_time by completed, mttr_mean by recoveries, both drift
  ///    errors by drift_windows, cache_avg_response_time by cache_hits,
  ///    backend_avg_response_time by cache_misses, cache_utilization by
  ///    cache VM-hours; availability is the plain mean over tenants;
  ///  - std_response_time: the pooled sample deviation over every
  ///    completion (each tenant's variance plus its mean's spread);
  ///  - ratios recomputed from the summed counters: utilization,
  ///    rejection_rate, cache_hit_ratio;
  ///  - the market's: spot_price_mean and spot_price_max are the first
  ///    tenant's (every tenant prices against one shared trajectory);
  ///  - not aggregatable, left 0: p95_response_time and p99_response_time.
  RunMetrics aggregate;
};

struct MultiTenantOptions {
  /// Worker threads; clamped to [1, tenants]. Tenant i's home worker is
  /// i % shards, and a worker out of home tenants claims other workers'
  /// unfinished ones. Results are bit-identical for every value (see file
  /// header).
  std::size_t shards = 1;
  /// Tenants [0, traced_tenants) get span tracing at span_sample_rate and
  /// keep their Telemetry in the result.
  std::size_t traced_tenants = 0;
  double span_sample_rate = 1.0;
  /// Run-level profiler (output-only; may be null). Each worker gets a
  /// private WallProfiler that is drained into this one inside the serial
  /// barrier section — the per-worker-registry pattern, so --profile works
  /// sharded instead of being silently sequential-only. Every tenant
  /// advance is one shard.run scope on the advancing worker's profiler,
  /// which the world is handed first, so the tenant's engine.run scope and
  /// its components' scopes nest inside it. A tenant's world.build scope
  /// lands on its home worker's profiler, its world.finish scope on the
  /// last worker that advanced it.
  WallProfiler* profiler = nullptr;
};

/// Builds, starts, and runs the full tenant population to the horizon under
/// sharded window execution, then finishes every tenant in id order.
MultiTenantResult run_multi_tenant(const MultiTenantConfig& config,
                                   const MultiTenantOptions& options = {});

/// The cross-tenant rollup of `tenants` by the rules listed at
/// MultiTenantResult::aggregate; `seed` is left as the tenants' sum and
/// `policy` and `wall_seconds` empty, for the caller to set.
RunMetrics tenant_rollup(const std::vector<TenantResult>& tenants);

/// Per-tenant run CSV (write_runs_csv): one row per tenant, keyed by the
/// `tenant` id and workload `kind` columns.
void write_tenant_csv(std::ostream& out, const MultiTenantResult& result);

}  // namespace cloudprov
