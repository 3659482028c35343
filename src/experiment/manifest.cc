#include "experiment/manifest.h"

#include <chrono>
#include <sstream>
#include <type_traits>

#include "apptier/cache_tier.h"
#include "experiment/multi_tenant.h"
#include "lookahead/world_state.h"
#include "profile/build_info.h"
#include "profile/wall_profiler.h"
#include "util/json.h"

namespace cloudprov {
namespace {

/// Key/value emitter that handles the comma discipline within one object.
class JsonObject {
 public:
  explicit JsonObject(std::ostream& out, int indent) : out_(out), indent_(indent) {}

  void field(const char* key, const std::string& raw) {
    if (!first_) out_ << ",\n";
    first_ = false;
    for (int i = 0; i < indent_; ++i) out_ << ' ';
    out_ << '"' << key << "\":" << raw;
  }
  void str(const char* key, const std::string& value) { field(key, json_string(value)); }
  void num(const char* key, double value) { field(key, json_number(value)); }
  void uint(const char* key, std::uint64_t value) { field(key, std::to_string(value)); }
  void boolean(const char* key, bool value) { field(key, value ? "true" : "false"); }

  /// Nested object one level deeper, filled by body(JsonObject&).
  template <typename Body>
  void object(const char* key, Body&& body) {
    std::ostringstream nested;
    nested << "{\n";
    JsonObject inner(nested, indent_ + 2);
    body(inner);
    nested << '\n' << std::string(static_cast<std::size_t>(indent_), ' ')
           << '}';
    field(key, nested.str());
  }

 private:
  std::ostream& out_;
  int indent_;
  bool first_ = true;
};

void write_metrics(JsonObject& obj, const RunMetrics& m) {
  obj.str("policy", m.policy);
  for_each_metric(m, [&](const char* name, const auto& value, MetricDirection,
                         MetricGroup) {
    if constexpr (std::is_same_v<std::decay_t<decltype(value)>, double>) {
      obj.num(name, value);
    } else {
      obj.uint(name, value);
    }
  });
}

/// The schema's regression directions, so bench/compare_runs.py needs no
/// metric name lists of its own. Neutral metrics are omitted.
void write_metric_directions(JsonObject& obj) {
  for_each_metric(RunMetrics{}, [&](const char* name, const auto&,
                                    MetricDirection direction, MetricGroup) {
    if (direction == MetricDirection::kHigherIsWorse) {
      obj.str(name, "higher_is_worse");
    } else if (direction == MetricDirection::kLowerIsWorse) {
      obj.str(name, "lower_is_worse");
    }
  });
}

void write_scenario(JsonObject& obj, const ScenarioConfig& config) {
  obj.str("workload", to_string(config.workload));
  obj.num("scale", config.scale);
  obj.num("horizon", config.horizon);
  obj.num("qos_max_response_time", config.qos.max_response_time);
  obj.num("qos_max_rejection_rate", config.qos.max_rejection_rate);
  obj.num("qos_min_utilization", config.qos.min_utilization);
  obj.uint("modeler_max_vms", config.modeler.max_vms);
  obj.uint("modeler_min_vms", config.modeler.min_vms);
  obj.num("modeler_rejection_tolerance", config.modeler.rejection_tolerance);
  obj.num("modeler_max_offered_load", config.modeler.max_offered_load);
  obj.num("analysis_interval", config.analyzer.analysis_interval);
  obj.num("analysis_lead_time", config.analyzer.lead_time);
  obj.uint("host_count", config.datacenter.host_count);
  obj.num("vm_boot_delay", config.datacenter.vm_boot_delay);
  obj.num("boot_timeout", config.boot_timeout);
  // Each optional layer writes its settings only when it is on, so two runs
  // that differ in one of them never share a run identity.
  obj.boolean("fault_enabled", config.fault.enabled());
  if (config.fault.enabled()) {
    const FaultPlan& fault = config.fault;
    obj.num("vm_mtbf", fault.vm_mtbf);
    obj.num("host_mtbf", fault.host_mtbf);
    obj.num("boot_fail_prob", fault.boot_fail_prob);
    obj.num("straggler_prob", fault.straggler_prob);
    obj.num("degraded_mtbf", fault.degraded_mtbf);
    obj.num("degraded_factor", fault.degraded_factor);
    obj.num("degraded_duration", fault.degraded_duration);
    obj.uint("fault_outages", fault.outages.size());
    obj.uint("fault_scripted", fault.scripted.size());
  }
  obj.boolean("reconciler_enabled", config.reconciler.enabled);
  if (config.reconciler.enabled) {
    obj.num("reconciler_interval", config.reconciler.interval);
  }
  obj.boolean("market_enabled", config.market.enabled);
  if (config.market.enabled) {
    obj.num("spot_fraction", config.market.acquisition.spot_fraction);
    obj.num("bid", config.market.acquisition.bid);
  }
  obj.boolean("resilience_enabled", config.resilience.enabled);
  if (config.resilience.enabled) {
    const ResilienceConfig& resilience = config.resilience;
    obj.num("attempt_timeout", resilience.attempt_timeout);
    obj.num("request_deadline", resilience.request_deadline);
    obj.uint("retry_max_attempts", resilience.retry.max_attempts);
    obj.str("retry_backoff",
            resilience.retry.backoff == RetryPolicyConfig::Backoff::kFixed
                ? "fixed"
                : "expo_jitter");
    obj.num("retry_base", resilience.retry.base);
    obj.num("retry_cap", resilience.retry.cap);
    obj.boolean("retry_budget_enabled", resilience.budget.enabled);
    obj.boolean("breaker_enabled", resilience.breaker.enabled);
    obj.boolean("shed_enabled", resilience.shed.enabled());
  }
  obj.boolean("apptier_enabled", config.apptier.enabled);
  if (config.apptier.enabled) {
    obj.num("cache_ttl", config.apptier.ttl);
    obj.uint("cache_vms", config.apptier.cache_vms);
    obj.uint("cache_capacity_per_vm", config.apptier.cache_capacity_per_vm);
    obj.num("assumed_hit_ratio", CacheTier::kAssumedHitRatio);
    obj.uint("cache_flush_events", config.apptier.flush_at.size());
    obj.uint("cache_crash_events", config.apptier.cache_crash_at.size());
  }
  if (config.workload == WorkloadKind::kZipf) {
    obj.num("zipf_alpha", config.zipf.alpha);
    obj.uint("zipf_num_keys", config.zipf.num_keys);
    obj.num("zipf_base_rate", config.zipf.base_rate);
    obj.uint("zipf_flash_crowds", config.zipf.flash.size());
    obj.uint("zipf_hot_shifts", config.zipf.hot_shift_at.size());
  }
}

void write_wall(JsonObject& obj, const RunMetrics& metrics,
                const WallProfiler* profiler) {
  obj.num("wall_seconds", metrics.wall_seconds);
  if (profiler == nullptr) {
    obj.field("breakdown", "[]");
    return;
  }
  const double covered = profiler->covered_seconds();
  obj.num("covered_seconds", covered);
  obj.num("covered_fraction", metrics.wall_seconds > 0.0
                                  ? covered / metrics.wall_seconds
                                  : 0.0);
  obj.num("clock_overhead_seconds", profiler->clock_overhead_seconds());

  std::ostringstream breakdown;
  breakdown << "[\n";
  bool first = true;
  const auto& totals = profiler->totals();
  for (std::size_t i = 0; i < totals.size(); ++i) {
    const auto& stat = totals[i];
    if (stat.count == 0) continue;
    if (!first) breakdown << ",\n";
    first = false;
    breakdown << "      {\"category\":"
              << json_string(to_string(static_cast<ProfileCategory>(i)))
              << ",\"self_seconds\":" << json_number(stat.self_seconds)
              << ",\"total_seconds\":" << json_number(stat.total_seconds)
              << ",\"count\":" << stat.count << "}";
  }
  breakdown << "\n    ]";
  obj.field("breakdown", breakdown.str());

  // Engine internals from the last snapshot (finish() forces one, so this
  // reflects end-of-run state; high waters and counters are cumulative).
  if (!profiler->snapshots().empty()) {
    const ProfileSnapshot& last = profiler->snapshots().back();
    std::ostringstream engine;
    engine << "{\"heap_high_water\":" << last.heap_high_water
           << ",\"slab_high_water\":" << last.slab_high_water
           << ",\"stale_drops\":" << last.stale_drops
           << ",\"boxed_events\":" << last.boxed_pushed
           << ",\"snapshots\":" << profiler->snapshots().size()
           << ",\"events_per_second\":"
           << json_number(metrics.wall_seconds > 0.0
                              ? static_cast<double>(metrics.simulated_events) /
                                    metrics.wall_seconds
                              : 0.0)
           << ",\"sim_speedup\":"
           << json_number(metrics.wall_seconds > 0.0
                              ? last.sim_time / metrics.wall_seconds
                              : 0.0)
           << "}";
    obj.field("engine", engine.str());
  }
}

/// The header every manifest opens with: schema, timestamp, build.
void write_header(JsonObject& root) {
  const auto now_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                          std::chrono::system_clock::now().time_since_epoch())
                          .count();
  root.str("schema", "cloudprov-run-manifest/1");
  root.uint("generated_unix_ms", static_cast<std::uint64_t>(now_ms));
  root.object("build", [](JsonObject& obj) {
    obj.str("git_commit", kBuildGitCommit);
    obj.str("compiler_id", kBuildCompilerId);
    obj.str("compiler_version", kBuildCompilerVersion);
    obj.str("build_type", kBuildType);
    obj.str("cxx_flags", kBuildCxxFlags);
    obj.str("system", kBuildSystem);
  });
}

/// The blocks every manifest closes with: metrics, their regression
/// directions, and the wall-time breakdown.
void write_results(JsonObject& root, const RunMetrics& metrics,
                   const WallProfiler* profiler) {
  root.object("metrics",
              [&](JsonObject& obj) { write_metrics(obj, metrics); });
  root.object("metric_directions", write_metric_directions);
  root.object("wall",
              [&](JsonObject& obj) { write_wall(obj, metrics, profiler); });
}

}  // namespace

void write_run_manifest(std::ostream& out, const ScenarioConfig& config,
                        const std::string& policy_label, std::uint64_t seed,
                        std::size_t replications, const RunMetrics& metrics,
                        const WallProfiler* profiler) {
  const SeedStreams streams = derive_streams(seed);
  out << "{\n";
  JsonObject root(out, 2);
  write_header(root);
  root.object("scenario",
              [&](JsonObject& obj) { write_scenario(obj, config); });
  root.str("policy", policy_label);
  root.uint("seed", seed);
  root.uint("replications", replications);
  root.object("seed_streams", [&](JsonObject& obj) {
    obj.uint("workload", streams.workload);
    obj.uint("placement", streams.placement);
    obj.uint("fault", streams.fault);
    obj.uint("market", streams.market);
    obj.uint("lookahead", streams.lookahead);
    obj.uint("resilience", streams.resilience);
    obj.uint("apptier", streams.apptier);
  });
  write_results(root, metrics, profiler);
  out << "\n}\n";
}

void write_multi_tenant_manifest(std::ostream& out,
                                 const MultiTenantConfig& config,
                                 const MultiTenantResult& result,
                                 const WallProfiler* profiler) {
  out << "{\n";
  JsonObject root(out, 2);
  write_header(root);
  // The population IS the scenario: every per-tenant scenario derives from
  // these parameters plus the master seed, so this block is the full run
  // identity for compare_runs.py's same-input determinism check.
  root.object("scenario", [&](JsonObject& obj) {
    obj.str("workload", "multi-tenant");
    obj.uint("tenants", config.tenants);
    obj.num("horizon", config.horizon);
    obj.num("window", config.window);
    obj.num("bot_fraction", config.bot_fraction);
    obj.num("zipf_fraction", config.zipf_fraction);
    obj.boolean("zipf_tiers", config.zipf_tiers);
    obj.num("tenant_scale", config.tenant_scale);
    obj.num("scale_spread", config.scale_spread);
    obj.num("qos_spread", config.qos_spread);
    obj.uint("capacity", config.resolved_capacity());
    obj.uint("per_tenant_cap", config.per_tenant_cap);
    obj.boolean("market_enabled", config.market_enabled);
    obj.num("spot_fraction", config.spot_fraction);
    obj.num("bid", config.bid);
  });
  root.str("policy", result.aggregate.policy);
  root.uint("seed", config.seed);
  root.uint("replications", 1);
  root.object("multi_tenant", [&](JsonObject& obj) {
    obj.uint("tenants", result.tenants.size());
    obj.uint("shards", result.shards);
    obj.uint("windows", result.windows);
    obj.uint("capacity", result.capacity);
    obj.uint("grant_clips", result.grant_clips);
    obj.uint("instances_denied", result.instances_denied);
    obj.uint("peak_granted", result.peak_granted);
    obj.uint("simulated_events", result.simulated_events);

    std::ostringstream tenants;
    tenants << "[\n";
    bool first = true;
    for (const TenantResult& tenant : result.tenants) {
      if (!first) tenants << ",\n";
      first = false;
      tenants << "      {\n";
      JsonObject row(tenants, 8);
      row.uint("id", tenant.id);
      row.str("kind", to_string(tenant.kind));
      row.object("metrics",
                 [&](JsonObject& m) { write_metrics(m, tenant.metrics); });
      tenants << "\n      }";
    }
    tenants << "\n    ]";
    obj.field("tenant_metrics", tenants.str());
  });
  write_results(root, result.aggregate, profiler);
  out << "\n}\n";
}

}  // namespace cloudprov
