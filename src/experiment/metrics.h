// Per-run output metrics and cross-replication aggregation.
//
// These are exactly the paper's output metrics (Section V-A): average
// response time of accepted requests and its standard deviation, min/max
// concurrent instances, VM hours, QoS violations, rejection percentage, and
// resource utilization — plus simulator-side diagnostics (events, wall time).
#pragma once

#include <concepts>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "stats/confidence.h"

namespace cloudprov {

struct RunMetrics {
  std::string policy;
  std::uint64_t seed = 0;

  std::uint64_t generated = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  std::uint64_t qos_violations = 0;

  double avg_response_time = 0.0;
  double std_response_time = 0.0;
  double p95_response_time = 0.0;
  double p99_response_time = 0.0;

  double min_instances = 0.0;
  double max_instances = 0.0;
  double avg_instances = 0.0;

  double vm_hours = 0.0;
  double busy_vm_hours = 0.0;
  double utilization = 0.0;
  double rejection_rate = 0.0;

  // --- fault injection & self-healing (src/fault; all zero in fault-free
  // runs, so existing outputs are unchanged) ------------------------------
  std::uint64_t instance_failures = 0;  ///< all causes
  std::uint64_t vm_crashes = 0;
  std::uint64_t host_crashes = 0;  ///< hosts crash-failed
  std::uint64_t boot_failures = 0;
  std::uint64_t boot_timeouts = 0;
  std::uint64_t lost_requests = 0;  ///< accepted, then lost to a failure
  std::uint64_t lost_to_vm_crashes = 0;
  std::uint64_t lost_to_host_crashes = 0;
  /// Fraction of the run the active pool met the commanded target
  /// (1 - deficit seconds / horizon); 1.0 when no faults are configured.
  double availability = 1.0;
  /// Closed deficit episodes (pool dropped below target, then recovered).
  std::uint64_t recoveries = 0;
  double mttr_mean = 0.0;  ///< mean repair time over closed episodes, s
  double mttr_max = 0.0;
  std::uint64_t reconciler_heals = 0;
  std::uint64_t reconciler_retries = 0;
  std::uint64_t reconciler_aborts = 0;
  /// Active instances at the horizon (shows permanent loss for unhealed
  /// static pools).
  std::uint64_t final_instances = 0;

  // --- observability (src/telemetry monitors; all zero when the span
  // tracer, drift observatory, and SLO monitor are disabled) ---------------
  std::uint64_t slo_response_alerts = 0;  ///< burn-rate alerts raised (Ts)
  std::uint64_t slo_rejection_alerts = 0;
  double slo_worst_burn_rate = 0.0;  ///< peak short-window burn, any rule
  std::uint64_t drift_windows = 0;   ///< closed predicted-vs-observed windows
  double drift_response_mape = 0.0;  ///< response-time MAPE, percent
  double drift_response_bias = 0.0;  ///< mean signed error (pred - obs), s
  std::uint64_t spans_traced = 0;    ///< requests sampled by the span tracer

  // --- IaaS market (src/market; all zero when the market is disabled, so
  // existing outputs are unchanged) ----------------------------------------
  double billed_cost = 0.0;  ///< total, currency units
  double on_demand_cost = 0.0;
  double spot_cost = 0.0;
  double reserved_cost = 0.0;
  std::uint64_t on_demand_purchases = 0;
  std::uint64_t spot_purchases = 0;
  std::uint64_t reserved_purchases = 0;
  std::uint64_t spot_revocations = 0;   ///< notices served
  std::uint64_t revocation_kills = 0;   ///< notices that expired into kills
  std::uint64_t lost_to_revocations = 0;
  double spot_price_mean = 0.0;  ///< time-weighted over the horizon
  double spot_price_max = 0.0;

  // --- request-path resilience (src/resilience; all zero when the layer is
  // disabled, so existing outputs are unchanged) ---------------------------
  std::uint64_t client_requests = 0;   ///< fresh logical requests
  std::uint64_t client_succeeded = 0;  ///< served within the client's patience
  std::uint64_t client_failed = 0;     ///< client gave up (attempts/deadline/budget)
  std::uint64_t client_attempts = 0;   ///< dispatches incl. retries + fast-fails
  std::uint64_t client_retries = 0;
  std::uint64_t retry_budget_denied = 0;
  std::uint64_t client_timeouts = 0;
  std::uint64_t wasted_completions = 0;  ///< served after the client gave up
  std::uint64_t breaker_opens = 0;
  std::uint64_t breaker_half_opens = 0;
  std::uint64_t breaker_closes = 0;
  std::uint64_t breaker_fast_fails = 0;
  std::uint64_t shed_deadline = 0;  ///< admission sheds: unmeetable deadline
  std::uint64_t shed_brownout = 0;  ///< admission sheds: brownout

  // --- multi-tenant capacity arbitration (src/experiment/multi_tenant;
  // all zero in single-tenant runs, so existing outputs are unchanged) -----
  std::uint64_t capacity_clips = 0;   ///< scale_to calls clamped by the grant
  std::uint64_t capacity_denied = 0;  ///< instances desired but not granted

  // --- multi-tier application (src/apptier; all zero when the cache tier
  // is disabled, so existing outputs are unchanged) ------------------------
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  double cache_hit_ratio = 0.0;  ///< lifetime hits / lookups
  std::uint64_t cache_fills = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_expirations = 0;    ///< TTL lapses seen at lookup
  std::uint64_t cache_invalidations = 0;  ///< slot remaps (crash/resize)
  std::uint64_t cache_flushes = 0;        ///< TTL-storm events fired
  double cache_vm_hours = 0.0;
  double cache_utilization = 0.0;
  double cache_avg_instances = 0.0;
  std::uint64_t cache_final_instances = 0;
  /// Mean backend offered load lambda * (1 - h) across analysis windows.
  double lambda_miss_mean = 0.0;
  /// Per-tier measured latency (the tiered latency-vs-throughput curve):
  /// mean response time of requests served by each pool alone. In tiered
  /// runs avg_response_time above is the END-TO-END mix of both.
  double cache_avg_response_time = 0.0;
  double backend_avg_response_time = 0.0;

  // Simulator diagnostics (not paper metrics).
  std::uint64_t simulated_events = 0;
  double wall_seconds = 0.0;
};

/// Which way a metric regresses between two runs; neutral metrics are
/// bookkeeping that just moves with the scenario.
enum class MetricDirection { kNeutral, kHigherIsWorse, kLowerIsWorse };

/// The layer a metric belongs to: the RunMetrics comment block it sits in.
/// The report table prints the metrics of chosen groups.
enum class MetricGroup {
  kPaper,
  kFault,
  kObservability,
  kMarket,
  kResilience,
  kTenancy,
  kApptier,
  kDiagnostics
};

/// The RunMetrics schema: calls f(name, value, direction, group) for every
/// numeric member, in declaration order, with value a std::uint64_t& or
/// double& (const when `m` is). The manifest's metrics and
/// metric_directions blocks, the report tables and run CSVs, the
/// multi-tenant rollup and the tests' bitwise equality helper walk it, so
/// adding a metric is one member above plus one line here (a test fails if a
/// member is missing).
template <typename Metrics, typename F>
  requires std::same_as<std::remove_cvref_t<Metrics>, RunMetrics>
void for_each_metric(Metrics&& m, F&& f) {
  using enum MetricDirection;
  using enum MetricGroup;
  f("seed", m.seed, kNeutral, kPaper);
  f("generated", m.generated, kNeutral, kPaper);
  f("accepted", m.accepted, kNeutral, kPaper);
  f("rejected", m.rejected, kHigherIsWorse, kPaper);
  f("completed", m.completed, kLowerIsWorse, kPaper);
  f("qos_violations", m.qos_violations, kHigherIsWorse, kPaper);
  f("avg_response_time", m.avg_response_time, kHigherIsWorse, kPaper);
  f("std_response_time", m.std_response_time, kHigherIsWorse, kPaper);
  f("p95_response_time", m.p95_response_time, kHigherIsWorse, kPaper);
  f("p99_response_time", m.p99_response_time, kHigherIsWorse, kPaper);
  f("min_instances", m.min_instances, kNeutral, kPaper);
  f("max_instances", m.max_instances, kNeutral, kPaper);
  f("avg_instances", m.avg_instances, kNeutral, kPaper);
  f("vm_hours", m.vm_hours, kNeutral, kPaper);
  f("busy_vm_hours", m.busy_vm_hours, kNeutral, kPaper);
  f("utilization", m.utilization, kLowerIsWorse, kPaper);
  f("rejection_rate", m.rejection_rate, kHigherIsWorse, kPaper);
  f("instance_failures", m.instance_failures, kNeutral, kFault);
  f("vm_crashes", m.vm_crashes, kNeutral, kFault);
  f("host_crashes", m.host_crashes, kNeutral, kFault);
  f("boot_failures", m.boot_failures, kNeutral, kFault);
  f("boot_timeouts", m.boot_timeouts, kNeutral, kFault);
  f("lost_requests", m.lost_requests, kHigherIsWorse, kFault);
  f("lost_to_vm_crashes", m.lost_to_vm_crashes, kNeutral, kFault);
  f("lost_to_host_crashes", m.lost_to_host_crashes, kNeutral, kFault);
  f("availability", m.availability, kLowerIsWorse, kFault);
  f("recoveries", m.recoveries, kNeutral, kFault);
  f("mttr_mean", m.mttr_mean, kNeutral, kFault);
  f("mttr_max", m.mttr_max, kNeutral, kFault);
  f("reconciler_heals", m.reconciler_heals, kNeutral, kFault);
  f("reconciler_retries", m.reconciler_retries, kNeutral, kFault);
  f("reconciler_aborts", m.reconciler_aborts, kNeutral, kFault);
  f("final_instances", m.final_instances, kNeutral, kFault);
  f("slo_response_alerts", m.slo_response_alerts, kHigherIsWorse,
    kObservability);
  f("slo_rejection_alerts", m.slo_rejection_alerts, kHigherIsWorse,
    kObservability);
  f("slo_worst_burn_rate", m.slo_worst_burn_rate, kNeutral, kObservability);
  f("drift_windows", m.drift_windows, kNeutral, kObservability);
  f("drift_response_mape", m.drift_response_mape, kHigherIsWorse,
    kObservability);
  f("drift_response_bias", m.drift_response_bias, kNeutral, kObservability);
  f("spans_traced", m.spans_traced, kNeutral, kObservability);
  f("billed_cost", m.billed_cost, kHigherIsWorse, kMarket);
  f("on_demand_cost", m.on_demand_cost, kNeutral, kMarket);
  f("spot_cost", m.spot_cost, kNeutral, kMarket);
  f("reserved_cost", m.reserved_cost, kNeutral, kMarket);
  f("on_demand_purchases", m.on_demand_purchases, kNeutral, kMarket);
  f("spot_purchases", m.spot_purchases, kNeutral, kMarket);
  f("reserved_purchases", m.reserved_purchases, kNeutral, kMarket);
  f("spot_revocations", m.spot_revocations, kNeutral, kMarket);
  f("revocation_kills", m.revocation_kills, kNeutral, kMarket);
  f("lost_to_revocations", m.lost_to_revocations, kNeutral, kMarket);
  f("spot_price_mean", m.spot_price_mean, kNeutral, kMarket);
  f("spot_price_max", m.spot_price_max, kNeutral, kMarket);
  f("client_requests", m.client_requests, kNeutral, kResilience);
  f("client_succeeded", m.client_succeeded, kLowerIsWorse, kResilience);
  f("client_failed", m.client_failed, kHigherIsWorse, kResilience);
  f("client_attempts", m.client_attempts, kNeutral, kResilience);
  f("client_retries", m.client_retries, kNeutral, kResilience);
  f("retry_budget_denied", m.retry_budget_denied, kHigherIsWorse, kResilience);
  f("client_timeouts", m.client_timeouts, kHigherIsWorse, kResilience);
  f("wasted_completions", m.wasted_completions, kNeutral, kResilience);
  f("breaker_opens", m.breaker_opens, kNeutral, kResilience);
  f("breaker_half_opens", m.breaker_half_opens, kNeutral, kResilience);
  f("breaker_closes", m.breaker_closes, kNeutral, kResilience);
  f("breaker_fast_fails", m.breaker_fast_fails, kHigherIsWorse, kResilience);
  f("shed_deadline", m.shed_deadline, kNeutral, kResilience);
  f("shed_brownout", m.shed_brownout, kNeutral, kResilience);
  f("capacity_clips", m.capacity_clips, kNeutral, kTenancy);
  f("capacity_denied", m.capacity_denied, kNeutral, kTenancy);
  f("cache_hits", m.cache_hits, kNeutral, kApptier);
  f("cache_misses", m.cache_misses, kNeutral, kApptier);
  f("cache_hit_ratio", m.cache_hit_ratio, kLowerIsWorse, kApptier);
  f("cache_fills", m.cache_fills, kNeutral, kApptier);
  f("cache_evictions", m.cache_evictions, kNeutral, kApptier);
  f("cache_expirations", m.cache_expirations, kNeutral, kApptier);
  f("cache_invalidations", m.cache_invalidations, kNeutral, kApptier);
  f("cache_flushes", m.cache_flushes, kNeutral, kApptier);
  f("cache_vm_hours", m.cache_vm_hours, kNeutral, kApptier);
  f("cache_utilization", m.cache_utilization, kNeutral, kApptier);
  f("cache_avg_instances", m.cache_avg_instances, kNeutral, kApptier);
  f("cache_final_instances", m.cache_final_instances, kNeutral, kApptier);
  f("lambda_miss_mean", m.lambda_miss_mean, kHigherIsWorse, kApptier);
  f("cache_avg_response_time", m.cache_avg_response_time, kNeutral, kApptier);
  f("backend_avg_response_time", m.backend_avg_response_time, kNeutral,
    kApptier);
  f("simulated_events", m.simulated_events, kNeutral, kDiagnostics);
  f("wall_seconds", m.wall_seconds, kNeutral, kDiagnostics);
}

/// One "name: a vs b" line per metric whose values in `a` and `b` differ:
/// `policy` and every field for_each_metric visits, doubles compared as bit
/// patterns, except the names in `allowed_to_differ`. Empty when the runs
/// match. Throws std::invalid_argument when an allowed name is not a metric.
std::vector<std::string> metric_differences(
    const RunMetrics& a, const RunMetrics& b,
    std::initializer_list<std::string_view> allowed_to_differ);

/// Mean and 95% CI of each headline metric across replications.
struct AggregateMetrics {
  std::string policy;
  std::size_t replications = 0;

  ConfidenceInterval avg_response_time;
  ConfidenceInterval std_response_time;
  ConfidenceInterval min_instances;
  ConfidenceInterval max_instances;
  ConfidenceInterval vm_hours;
  ConfidenceInterval utilization;
  ConfidenceInterval rejection_rate;
  ConfidenceInterval qos_violations;
  ConfidenceInterval availability;
  ConfidenceInterval billed_cost;
};

AggregateMetrics aggregate(const std::vector<RunMetrics>& runs,
                           double confidence = 0.95);

}  // namespace cloudprov
