// Multi-tenant scale-out: N independent SaaS applications on one shared
// infrastructure, executed across per-shard event kernels.
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
//  - Execution: tenants are partitioned round-robin across shards; each
//    shard runs every resident tenant's World on ONE borrowed Simulation
//    kernel (worlds share the shard's clock and event queue but own
//    disjoint component state). Shards advance in lockstep windows under
//    sim/shard_executor; at every window boundary the serial commit section
//    runs the CapacityArbiter, which reconciles tenant desires against the
//    shared instance capacity in ascending tenant-id order.
//
// Determinism: within a shard, tenant event streams interleave on the
// kernel's (time, push-seq) order — restricted to any one tenant that
// order is identical whether the tenant shares the kernel with 0 or 100
// neighbours, and tenants never touch each other's state between barriers.
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
/// tenant's counter deltas over that window. Accumulated shard-locally by
/// each worker after its window advance and drained into the series inside
/// the serial barrier commit — tenants never serialize on a shared registry
/// mid-window, so the pattern holds at thousands of tenants.
struct FleetWindowSample {
  SimTime t = 0.0;  ///< window-end barrier time
  std::uint64_t generated = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  std::uint64_t qos_violations = 0;
  std::uint64_t cache_hits = 0;    ///< tiered (Zipf) tenants only
  std::uint64_t cache_misses = 0;  ///< tiered (Zipf) tenants only
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

  /// Sum over shard kernels (each kernel executes its residents' events).
  std::uint64_t simulated_events = 0;
  double wall_seconds = 0.0;

  /// Cross-tenant rollup: every counter but `seed` (the master seed) and
  /// `simulated_events` (the kernels' total) is the tenants' sum, and so
  /// are costs and VM-hours; response time is the completion-weighted mean,
  /// instance stats are sums of per-tenant stats (not time-aligned), and
  /// percentiles are left 0 (not aggregatable).
  RunMetrics aggregate;
};

struct MultiTenantOptions {
  /// Worker shards; clamped to [1, tenants]. Results are bit-identical for
  /// every value (see file header).
  std::size_t shards = 1;
  /// Tenants [0, traced_tenants) get span tracing at span_sample_rate and
  /// keep their Telemetry in the result.
  std::size_t traced_tenants = 0;
  double span_sample_rate = 1.0;
  /// Run-level profiler (output-only; may be null). Each shard worker gets
  /// a private WallProfiler that is drained into this one inside the serial
  /// barrier section — the per-worker-registry pattern, so --profile works
  /// sharded instead of being silently sequential-only.
  WallProfiler* profiler = nullptr;
};

/// Builds, starts, and runs the full tenant population to the horizon under
/// sharded window execution, then finishes every tenant in id order.
MultiTenantResult run_multi_tenant(const MultiTenantConfig& config,
                                   const MultiTenantOptions& options = {});

/// Per-tenant run CSV (write_runs_csv): one row per tenant, keyed by the
/// `tenant` id and workload `kind` columns.
void write_tenant_csv(std::ostream& out, const MultiTenantResult& result);

}  // namespace cloudprov
