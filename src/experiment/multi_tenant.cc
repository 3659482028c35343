#include "experiment/multi_tenant.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ostream>
#include <string>
#include <type_traits>
#include <utility>

#include "experiment/report.h"
#include "profile/wall_profiler.h"
#include "sim/shard_executor.h"
#include "util/check.h"
#include "util/rng.h"

namespace cloudprov {
namespace {

/// Salt for the shared spot-price stream, so the one market trajectory every
/// tenant prices against is independent of any tenant's own streams.
constexpr std::uint64_t kSharedMarketSalt = 0x5ca1'ab1e'0ddb'a11ULL;

/// Sets every std::uint64_t metric of `into` to the tenants' sum.
void sum_counters(const std::vector<TenantResult>& tenants, RunMetrics& into) {
  std::vector<std::uint64_t> sums;  // in visit order
  for (const TenantResult& tenant : tenants) {
    std::size_t i = 0;
    for_each_metric(tenant.metrics, [&](const char*, const auto& value,
                                        MetricDirection, MetricGroup) {
      if constexpr (std::is_same_v<std::decay_t<decltype(value)>,
                                   std::uint64_t>) {
        if (i == sums.size()) sums.push_back(0);
        sums[i++] += value;
      }
    });
  }
  std::size_t i = 0;
  for_each_metric(into, [&](const char*, auto& value, MetricDirection,
                            MetricGroup) {
    if constexpr (std::is_same_v<std::decay_t<decltype(value)>,
                                 std::uint64_t>) {
      value = sums[i++];
    }
  });
}

}  // namespace

std::vector<TenantSpec> multi_tenant_specs(const MultiTenantConfig& config) {
  ensure_arg(config.tenants >= 1, "multi_tenant: tenants must be >= 1");
  ensure_arg(config.window > 0.0, "multi_tenant: window must be positive");
  ensure_arg(config.horizon >= 0.0, "multi_tenant: horizon must be >= 0");
  ensure_arg(config.tenant_scale > 0.0,
             "multi_tenant: tenant_scale must be positive");
  ensure_arg(config.bot_fraction >= 0.0 && config.bot_fraction <= 1.0,
             "multi_tenant: bot_fraction must be in [0, 1]");
  ensure_arg(config.zipf_fraction >= 0.0 &&
                 config.bot_fraction + config.zipf_fraction <= 1.0,
             "multi_tenant: bot_fraction + zipf_fraction must be in [0, 1]");
  ensure_arg(config.scale_spread >= 0.0 && config.scale_spread < 1.0,
             "multi_tenant: scale_spread must be in [0, 1)");
  ensure_arg(config.qos_spread >= 0.0,
             "multi_tenant: qos_spread must be >= 0");
  ensure_arg(config.resolved_capacity() >= 1,
             "multi_tenant: shared capacity must be >= 1");

  const std::uint64_t market_seed =
      SplitMix64(config.seed ^ kSharedMarketSalt).next();

  std::vector<TenantSpec> specs;
  specs.reserve(config.tenants);
  SplitMix64 seeder(config.seed);
  for (std::size_t i = 0; i < config.tenants; ++i) {
    TenantSpec spec;
    spec.id = i;
    // Two independent draws per tenant: the World seed (which derives the
    // tenant's workload/placement/fault/... streams) and the spec-jitter
    // stream, so jitter never perturbs the tenant's simulation streams.
    spec.seed = seeder.next();
    Rng jitter(seeder.next());

    // One draw picks the workload kind — bot band first, then zipf — so a
    // zero zipf_fraction reproduces the historical web/BoT population
    // bit-for-bit.
    const double kind_draw = jitter.uniform();
    const bool bot = kind_draw < config.bot_fraction;
    const bool zipf =
        !bot && kind_draw < config.bot_fraction + config.zipf_fraction;
    const double scale =
        config.tenant_scale * jitter.uniform(1.0 - config.scale_spread,
                                             1.0 + config.scale_spread);
    spec.scenario = bot    ? scientific_scenario(scale)
                    : zipf ? zipf_scenario(scale)
                           : web_scenario(scale);
    if (zipf && config.zipf_tiers) spec.scenario.apptier.enabled = true;
    // Horizon 0 builds the tenants without running them; their sources then
    // keep their default horizons (a source's horizon must be positive).
    if (config.horizon > 0.0) spec.scenario.set_horizon(config.horizon);
    spec.scenario.qos.max_response_time *=
        jitter.uniform(1.0, 1.0 + config.qos_spread);

    // Each tenant's data center is sized to the *shared* logical capacity:
    // the arbiter's grant, not physical host exhaustion, must be the
    // binding constraint.
    spec.scenario.datacenter.host_count =
        std::max<std::size_t>(4, config.resolved_capacity());

    if (config.market_enabled) {
      spec.scenario.market.enabled = true;
      spec.scenario.market.acquisition.spot_fraction = config.spot_fraction;
      spec.scenario.market.acquisition.bid = config.bid;
      spec.scenario.market.price_seed_override = market_seed;
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

CapacityArbiter::CapacityArbiter(std::size_t capacity,
                                 std::size_t per_tenant_cap,
                                 std::size_t tenants)
    : capacity_(capacity),
      per_tenant_cap_(per_tenant_cap == 0 ? SIZE_MAX : per_tenant_cap),
      grants_(tenants, 0) {
  ensure_arg(capacity >= 1, "CapacityArbiter: capacity must be >= 1");
  ensure_arg(tenants >= 1, "CapacityArbiter: tenants must be >= 1");
}

const std::vector<std::size_t>& CapacityArbiter::arbitrate(
    const std::vector<std::size_t>& desires) {
  ensure_arg(desires.size() == grants_.size(),
             "CapacityArbiter: desire vector size mismatch");
  // Phase 1 — release: a tenant never holds a grant above its desire (or
  // the static per-tenant cap), so shrinking tenants free slots this round.
  std::size_t used = 0;
  for (std::size_t i = 0; i < grants_.size(); ++i) {
    const std::size_t want = std::min(desires[i], per_tenant_cap_);
    grants_[i] = std::min(grants_[i], want);
    used += grants_[i];
  }
  // Phase 2 — grow in ascending tenant id while free slots remain: the
  // fixed order is what makes the outcome a pure function of the desire
  // vector, independent of shard count or thread scheduling.
  for (std::size_t i = 0; i < grants_.size(); ++i) {
    const std::size_t want = std::min(desires[i], per_tenant_cap_);
    if (want > grants_[i]) {
      const std::size_t room = capacity_ > used ? capacity_ - used : 0;
      const std::size_t take = std::min(want - grants_[i], room);
      grants_[i] += take;
      used += take;
    }
    if (desires[i] > grants_[i]) {
      ++clips_;
      denied_ += desires[i] - grants_[i];
    }
  }
  peak_granted_ = std::max(peak_granted_, used);
  return grants_;
}

MultiTenantResult run_multi_tenant(const MultiTenantConfig& config,
                                   const MultiTenantOptions& options) {
  const auto wall_start = std::chrono::steady_clock::now();
  const std::vector<TenantSpec> specs = multi_tenant_specs(config);
  const std::size_t tenant_count = specs.size();
  const std::size_t worker_count =
      std::clamp<std::size_t>(options.shards, 1, tenant_count);

  // One batch (and, when profiling, one private profiler) per worker
  // thread. The WallProfiler is single-threaded by design, so every worker
  // samples into its own instance; the serial commit drains them into the
  // run profiler.
  struct Worker {
    std::unique_ptr<WallProfiler> profiler;
    /// Worker-local telemetry batch: the counter deltas of the tenants this
    /// worker advanced in the current window. Written only by the owning
    /// worker between barriers, drained (and reset) inside the serial
    /// commit.
    World::Counters batch;
  };
  std::vector<Worker> workers(worker_count);
  if (options.profiler != nullptr) {
    for (Worker& worker : workers) {
      worker.profiler = std::make_unique<WallProfiler>(
          options.profiler->snapshot_interval());
    }
  }

  // Build every tenant world in ascending id order, each on its home
  // worker's profiler (tenant i's home is worker i % workers), so its
  // world.build scope lands there.
  std::vector<std::unique_ptr<World>> worlds;
  worlds.reserve(tenant_count);
  const PolicySpec policy = PolicySpec::adaptive();
  for (const TenantSpec& spec : specs) {
    std::optional<TelemetryOptions> telemetry;
    if (spec.id < options.traced_tenants) {
      TelemetryOptions opts;
      opts.span_sample_rate = options.span_sample_rate;
      opts.span_seed = spec.seed;
      telemetry = opts;
    }
    worlds.push_back(std::make_unique<World>(
        spec.scenario, policy, spec.seed, telemetry,
        workers[spec.id % worker_count].profiler.get()));
  }
  for (std::unique_ptr<World>& world : worlds) world->start();

  CapacityArbiter arbiter(config.resolved_capacity(), config.per_tenant_cap,
                          tenant_count);
  std::vector<std::size_t> desires(tenant_count, 0);
  const auto arbitrate_now = [&] {
    for (std::size_t i = 0; i < tenant_count; ++i) {
      desires[i] = worlds[i]->desired_instances();
    }
    const std::vector<std::size_t>& grants = arbiter.arbitrate(desires);
    for (std::size_t i = 0; i < tenant_count; ++i) {
      worlds[i]->apply_capacity_grant(grants[i]);
    }
  };
  {
    // Round 0: reconcile the initial pools before any event executes.
    ProfileScope scope(options.profiler, ProfileCategory::kArbiter);
    arbitrate_now();
  }

  // Worker-local telemetry batching: the worker that advances a tenant
  // reads its monotone counters right after and adds the delta to its own
  // batch. Only the serial commit touches the shared window series, so
  // thousands of tenants add zero lock contention on any registry.
  // `last_counters[i]` is touched only by the worker advancing tenant i in
  // the current window.
  std::vector<World::Counters> last_counters(tenant_count);
  std::vector<FleetWindowSample> window_series;
  const auto advance = [&](std::size_t self, std::size_t tenant, SimTime t) {
    Worker& worker = workers[self];
    World& world = *worlds[tenant];
    // The world samples into the profiler of the thread running it: its
    // home worker's or a claimer's, whichever advances it this window.
    world.set_profiler(worker.profiler.get());
    ProfileScope scope(worker.profiler.get(), ProfileCategory::kShardRun);
    world.run_to(t);
    const World::Counters now = world.counters();
    worker.batch += now - last_counters[tenant];
    last_counters[tenant] = now;
  };
  // Moves every worker's pending batch into one fleet row stamped `t`.
  const auto drain_batches = [&](SimTime t) {
    FleetWindowSample row;
    row.t = t;
    for (Worker& worker : workers) {
      row += worker.batch;
      worker.batch = {};
    }
    window_series.push_back(row);
  };
  const auto commit = [&](SimTime t) {
    // Serial barrier section: every worker is parked (their barrier-enter
    // scopes happened-before this through the barrier), so reading
    // desires, writing grants, and draining worker batches/profilers is
    // race-free.
    ProfileScope scope(options.profiler, ProfileCategory::kArbiter);
    arbitrate_now();
    drain_batches(t);
    if (options.profiler != nullptr) {
      for (Worker& worker : workers) {
        worker.profiler->drain_into(*options.profiler);
      }
    }
  };
  ShardExecutorHooks hooks;
  if (options.profiler != nullptr && worker_count > 1) {
    hooks.barrier_enter = [&](std::size_t self) {
      workers[self].profiler->begin(ProfileCategory::kShardBarrier);
    };
    hooks.barrier_leave = [&](std::size_t self) {
      workers[self].profiler->end(ProfileCategory::kShardBarrier);
    };
  }

  MultiTenantResult result;
  result.windows =
      run_sharded_windows(worker_count, tenant_count, config.window,
                          config.horizon, advance, commit, hooks);
  // The executor never commits at the horizon itself, so the final
  // window's worker batches are still pending; workers have joined, making
  // this tail drain race-free. The series therefore has windows + 1 rows.
  if (config.horizon > 0.0) drain_batches(config.horizon);
  result.window_series = std::move(window_series);
  result.shards = worker_count;
  result.capacity = arbiter.capacity();
  result.grant_clips = arbiter.clips();
  result.instances_denied = arbiter.denied();
  result.peak_granted = arbiter.peak_granted();

  result.tenants.reserve(tenant_count);
  for (std::size_t i = 0; i < tenant_count; ++i) {
    TenantResult tenant;
    tenant.id = i;
    tenant.kind = specs[i].scenario.workload;
    RunOutput output = worlds[i]->finish();
    tenant.metrics = std::move(output.metrics);
    tenant.telemetry = std::move(output.telemetry);
    result.simulated_events += tenant.metrics.simulated_events;
    result.tenants.push_back(std::move(tenant));
  }

  // Workers have joined and the tenants are finished: drain the tail (the
  // final windows' wait scopes and the world.finish scopes) into the run
  // profiler.
  if (options.profiler != nullptr) {
    for (Worker& worker : workers) {
      worker.profiler->drain_into(*options.profiler);
    }
  }
  result.wall_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();

  result.aggregate = tenant_rollup(result.tenants);
  result.aggregate.policy =
      "multi-tenant(" + std::to_string(tenant_count) + ")";
  result.aggregate.seed = config.seed;
  result.aggregate.wall_seconds = result.wall_seconds;
  return result;
}

RunMetrics tenant_rollup(const std::vector<TenantResult>& tenants) {
  RunMetrics agg;
  if (tenants.empty()) return agg;
  sum_counters(tenants, agg);

  // Weighted means accumulate value * weight, then divide by the weights.
  struct Mean {
    double sum = 0.0;
    double weight = 0.0;
    void add(double value, double w) {
      sum += value * w;
      weight += w;
    }
    double get() const { return weight > 0.0 ? sum / weight : 0.0; }
  };
  const auto count = [](std::uint64_t n) { return static_cast<double>(n); };
  Mean response, mttr, drift_mape, drift_bias, cache_response,
      backend_response, cache_utilization;
  double availability_sum = 0.0;
  for (const TenantResult& tenant : tenants) {
    const RunMetrics& m = tenant.metrics;
    response.add(m.avg_response_time, count(m.completed));
    mttr.add(m.mttr_mean, count(m.recoveries));
    drift_mape.add(m.drift_response_mape, count(m.drift_windows));
    drift_bias.add(m.drift_response_bias, count(m.drift_windows));
    // A hit is served by the cache pool, a miss by the backend.
    cache_response.add(m.cache_avg_response_time, count(m.cache_hits));
    backend_response.add(m.backend_avg_response_time, count(m.cache_misses));
    cache_utilization.add(m.cache_utilization, m.cache_vm_hours);
    availability_sum += m.availability;
    agg.min_instances += m.min_instances;
    agg.max_instances += m.max_instances;
    agg.avg_instances += m.avg_instances;
    agg.vm_hours += m.vm_hours;
    agg.busy_vm_hours += m.busy_vm_hours;
    agg.billed_cost += m.billed_cost;
    agg.on_demand_cost += m.on_demand_cost;
    agg.spot_cost += m.spot_cost;
    agg.reserved_cost += m.reserved_cost;
    agg.cache_vm_hours += m.cache_vm_hours;
    agg.cache_avg_instances += m.cache_avg_instances;
    agg.lambda_miss_mean += m.lambda_miss_mean;
    agg.mttr_max = std::max(agg.mttr_max, m.mttr_max);
    agg.slo_worst_burn_rate =
        std::max(agg.slo_worst_burn_rate, m.slo_worst_burn_rate);
  }
  agg.avg_response_time = response.get();
  agg.mttr_mean = mttr.get();
  agg.drift_response_mape = drift_mape.get();
  agg.drift_response_bias = drift_bias.get();
  agg.cache_avg_response_time = cache_response.get();
  agg.backend_avg_response_time = backend_response.get();
  agg.cache_utilization = cache_utilization.get();

  // Pooled sample variance over every completion: each tenant's own
  // (n - 1) s^2 plus its mean's squared distance from the pooled mean.
  if (agg.completed > 1) {
    double squares = 0.0;
    for (const TenantResult& tenant : tenants) {
      const RunMetrics& m = tenant.metrics;
      const double offset = m.avg_response_time - agg.avg_response_time;
      squares += (count(m.completed) - 1.0) * m.std_response_time *
                     m.std_response_time +
                 count(m.completed) * offset * offset;
    }
    agg.std_response_time = std::sqrt(squares / count(agg.completed - 1));
  }

  if (agg.cache_hits + agg.cache_misses > 0) {
    agg.cache_hit_ratio =
        static_cast<double>(agg.cache_hits) /
        static_cast<double>(agg.cache_hits + agg.cache_misses);
  }
  agg.utilization =
      agg.vm_hours > 0.0 ? agg.busy_vm_hours / agg.vm_hours : 0.0;
  agg.rejection_rate =
      agg.generated > 0
          ? static_cast<double>(agg.rejected) / static_cast<double>(agg.generated)
          : 0.0;
  agg.availability = availability_sum / static_cast<double>(tenants.size());
  // Every tenant prices against the one shared trajectory, so any tenant's
  // price statistics are the market's (0 without a market).
  agg.spot_price_mean = tenants.front().metrics.spot_price_mean;
  agg.spot_price_max = tenants.front().metrics.spot_price_max;
  return agg;
}

void write_tenant_csv(std::ostream& out, const MultiTenantResult& result) {
  std::vector<RunMetrics> runs;
  std::vector<std::vector<std::string>> keys;
  for (const TenantResult& tenant : result.tenants) {
    runs.push_back(tenant.metrics);
    keys.push_back({std::to_string(tenant.id), to_string(tenant.kind)});
  }
  write_runs_csv(out, runs, {"tenant", "kind"}, keys);
}

}  // namespace cloudprov
