#include "telemetry/telemetry.h"

#include <string>

namespace cloudprov {
namespace {

// 1 ms .. 1000 s log-spaced 1-2-5 buckets: covers the web scenario's 250 ms
// QoS target and the scientific scenario's 700 s target in one fixed layout,
// so cross-scenario dashboards can share axes.
std::vector<double> response_bounds() { return decade_bounds(1e-3, 1e3); }

TraceEvent instant(const char* category, const char* name, std::uint32_t track,
                   SimTime t, std::uint64_t id) {
  TraceEvent event;
  event.name = name;
  event.category = category;
  event.phase = TracePhase::kInstant;
  event.track = track;
  event.time = t;
  event.id = id;
  return event;
}

}  // namespace

Telemetry::Telemetry(TelemetryOptions options)
    : options_(options),
      trace_(options.trace_capacity),
      requests_arrived_(&metrics_.counter("requests_arrived")),
      requests_admitted_(&metrics_.counter("requests_admitted")),
      requests_rejected_(&metrics_.counter("requests_rejected")),
      requests_completed_(&metrics_.counter("requests_completed")),
      qos_violations_(&metrics_.counter("qos_violations")),
      requests_lost_(&metrics_.counter("requests_lost_to_failures")),
      vms_created_(&metrics_.counter("vms_created")),
      vms_destroyed_(&metrics_.counter("vms_destroyed")),
      vms_failed_(&metrics_.counter("vms_failed")),
      vm_drains_(&metrics_.counter("vm_drains")),
      vm_resurrections_(&metrics_.counter("vm_resurrections")),
      scaling_decisions_(&metrics_.counter("scaling_decisions")),
      hosts_failed_(&metrics_.counter("hosts_failed")),
      allocations_denied_(&metrics_.counter("allocations_denied")),
      boot_stragglers_(&metrics_.counter("boot_stragglers")),
      vms_degraded_(&metrics_.counter("vms_degraded")),
      reconciles_(&metrics_.counter("reconciler_heals")),
      reconcile_retries_(&metrics_.counter("reconciler_retries")),
      reconcile_aborts_(&metrics_.counter("reconciler_aborts")),
      pool_recoveries_(&metrics_.counter("pool_recoveries")),
      response_time_(
          &metrics_.histogram("response_time_seconds", response_bounds())),
      service_time_(
          &metrics_.histogram("service_time_seconds", response_bounds())),
      recovery_time_(&metrics_.histogram("recovery_time_seconds",
                                         decade_bounds(1.0, 1e4))),
      active_instances_(&metrics_.gauge("active_instances")),
      draining_instances_(&metrics_.gauge("draining_instances")),
      engine_queue_depth_(&metrics_.gauge("engine_queue_depth")),
      market_purchases_(&metrics_.counter("market_purchases")),
      spot_revocations_(&metrics_.counter("spot_revocations")),
      spot_kills_(&metrics_.counter("spot_revocation_kills")),
      spot_price_(&metrics_.gauge("spot_price")),
      market_cost_burn_(&metrics_.gauge("market_cost_burn")),
      client_retries_(&metrics_.counter("client_retries")),
      retry_budget_denied_(&metrics_.counter("retry_budget_denied")),
      client_timeouts_(&metrics_.counter("client_timeouts")),
      breaker_transitions_(&metrics_.counter("breaker_transitions")),
      breaker_fast_fails_(&metrics_.counter("breaker_fast_fails")),
      requests_shed_(&metrics_.counter("requests_shed")),
      cache_hits_(&metrics_.counter("cache_hits")),
      cache_misses_(&metrics_.counter("cache_misses")),
      cache_fills_(&metrics_.counter("cache_fills")),
      cache_flushes_(&metrics_.counter("cache_flushes")),
      tier_decisions_(&metrics_.counter("tier_decisions")),
      cache_hit_ratio_(&metrics_.gauge("cache_hit_ratio")),
      cache_active_instances_(&metrics_.gauge("cache_active_instances")),
      cache_draining_instances_(&metrics_.gauge("cache_draining_instances")) {
  // The optional monitors are built after the hot-path instruments so the
  // registry's registration order (and thus CSV/snapshot order) is stable
  // whether or not they are enabled.
  if (options_.span_sample_rate > 0.0) {
    SpanTracer::Options span_options;
    span_options.sample_rate = options_.span_sample_rate;
    span_options.seed = options_.span_seed;
    span_options.capacity = options_.span_capacity;
    spans_ = std::make_unique<SpanTracer>(span_options);
  }
  if (options_.drift_enabled) {
    drift_ = std::make_unique<DriftMonitor>(metrics_, trace_, options_.drift);
  }
  if (options_.slo_enabled) {
    slo_ = std::make_unique<SloMonitor>(metrics_, trace_, options_.slo);
  }
}

std::unique_ptr<Telemetry> Telemetry::clone() const {
  // Fresh construction registers the same instruments in the same order;
  // copying values (plus any lazily-registered per-cause counters) then
  // makes registry contents and ordering identical.
  auto copy = std::make_unique<Telemetry>(options_);
  copy->metrics_.copy_values_from(metrics_);
  copy->trace_.copy_from(trace_);
  if (spans_ != nullptr) *copy->spans_ = *spans_;
  if (drift_ != nullptr) copy->drift_->restore_from(*drift_);
  if (slo_ != nullptr) copy->slo_->restore_from(*slo_);
  return copy;
}

void Telemetry::request_arrival(SimTime t, std::uint64_t request_id) {
  requests_arrived_->add();
  if (spans_) spans_->on_arrival(t, request_id);
  if (options_.trace_requests) {
    trace_.record(TraceKind::kArrival, t, request_id);
  }
}

void Telemetry::request_admitted(SimTime t, std::uint64_t request_id,
                                 std::uint64_t vm_id) {
  requests_admitted_->add();
  if (spans_) spans_->on_admit(t, request_id, vm_id);
  if (options_.trace_requests) {
    trace_.record(TraceKind::kAdmit, t, request_id,
                  static_cast<double>(vm_id));
  }
}

void Telemetry::request_rejected(SimTime t, std::uint64_t request_id) {
  requests_rejected_->add();
  if (spans_) spans_->on_reject(t, request_id);
  if (slo_) slo_->maybe_evaluate(t);
  if (options_.trace_requests) {
    trace_.record(TraceKind::kReject, t, request_id);
  }
}

void Telemetry::request_service_start(SimTime t, std::uint64_t request_id,
                                      std::uint64_t vm_id) {
  if (spans_) spans_->on_service_start(t, request_id, vm_id);
}

void Telemetry::request_lost(SimTime t, std::uint64_t request_id) {
  if (spans_) spans_->on_lost(t, request_id);
}

void Telemetry::request_completed(SimTime t, std::uint64_t request_id,
                                  double response_time, double service_time,
                                  bool qos_violation) {
  requests_completed_->add();
  if (qos_violation) qos_violations_->add();
  response_time_->observe(response_time);
  service_time_->observe(service_time);
  if (spans_) spans_->on_complete(t, request_id, qos_violation);
  if (slo_) slo_->maybe_evaluate(t);
  if (options_.trace_requests) {
    trace_.record(TraceKind::kRequestSpan, t - response_time, request_id,
                  response_time, service_time, qos_violation);
    trace_.record(TraceKind::kServiceSpan, t - service_time, request_id,
                  service_time);
  }
}

void Telemetry::vm_created(SimTime t, std::uint64_t vm_id) {
  vms_created_->add();
  trace_.record(instant("vm", "create", kTrackVms, t, vm_id));
}

void Telemetry::vm_boot_complete(SimTime t, std::uint64_t vm_id) {
  trace_.record(instant("vm", "boot", kTrackVms, t, vm_id));
}

void Telemetry::vm_drain(SimTime t, std::uint64_t vm_id, std::size_t load) {
  vm_drains_->add();
  TraceEvent event = instant("vm", "drain", kTrackVms, t, vm_id);
  event.arg("load", static_cast<double>(load));
  trace_.record(event);
}

void Telemetry::vm_resurrected(SimTime t, std::uint64_t vm_id) {
  vm_resurrections_->add();
  trace_.record(instant("vm", "resurrect", kTrackVms, t, vm_id));
}

void Telemetry::vm_destroyed(SimTime t, std::uint64_t vm_id,
                             SimTime lifetime) {
  vms_destroyed_->add();
  TraceEvent span;
  span.name = "lifetime";
  span.category = "vm";
  span.phase = TracePhase::kComplete;
  span.track = kTrackVms;
  span.time = t - lifetime;
  span.duration = lifetime;
  span.id = vm_id;
  trace_.record(span);
}

void Telemetry::vm_failed(SimTime t, std::uint64_t vm_id,
                          std::size_t lost_requests, const char* cause) {
  vms_failed_->add();
  requests_lost_->add(lost_requests);
  // Failures are rare; per-cause counters are resolved by name on demand.
  metrics_.counter(std::string("vm_failures_") + cause).add();
  if (lost_requests > 0) {
    metrics_.counter(std::string("requests_lost_") + cause).add(lost_requests);
  }
  TraceEvent event = instant("vm", "fail", kTrackVms, t, vm_id);
  event.name = cause;
  event.arg("lost_requests", static_cast<double>(lost_requests));
  trace_.record(event);
}

void Telemetry::instance_count(SimTime t, std::size_t active,
                               std::size_t draining) {
  active_instances_->set(static_cast<double>(active));
  draining_instances_->set(static_cast<double>(draining));
  TraceEvent event;
  event.name = "instances";
  event.category = "vm";
  event.phase = TracePhase::kCounter;
  event.track = kTrackVms;
  event.time = t;
  event.arg("active", static_cast<double>(active))
      .arg("draining", static_cast<double>(draining));
  trace_.record(event);
}

void Telemetry::host_failed(SimTime t, std::uint64_t host_id,
                            std::size_t vms_killed) {
  hosts_failed_->add();
  TraceEvent event = instant("fault", "host_fail", kTrackFaults, t, host_id);
  event.arg("vms_killed", static_cast<double>(vms_killed));
  trace_.record(event);
}

void Telemetry::allocation_denied(SimTime t) {
  allocations_denied_->add();
  trace_.record(instant("fault", "alloc_denied", kTrackFaults, t, 0));
}

void Telemetry::allocation_outage(SimTime t, bool begin) {
  TraceEvent event = instant(
      "fault", begin ? "outage_begin" : "outage_end", kTrackFaults, t, 0);
  trace_.record(event);
}

void Telemetry::boot_straggler(SimTime t, SimTime boot_delay) {
  boot_stragglers_->add();
  TraceEvent event = instant("fault", "straggler", kTrackFaults, t, 0);
  event.arg("boot_delay", boot_delay);
  trace_.record(event);
}

void Telemetry::vm_degraded(SimTime t, std::uint64_t vm_id,
                            double speed_factor) {
  vms_degraded_->add();
  TraceEvent event = instant("fault", "degrade", kTrackFaults, t, vm_id);
  event.arg("speed_factor", speed_factor);
  trace_.record(event);
}

void Telemetry::vm_restored(SimTime t, std::uint64_t vm_id) {
  trace_.record(instant("fault", "restore", kTrackFaults, t, vm_id));
}

void Telemetry::reconcile(SimTime t, std::size_t target, std::size_t active,
                          std::size_t achieved) {
  reconciles_->add();
  TraceEvent event = instant("fault", "reconcile", kTrackFaults, t, 0);
  event.arg("target", static_cast<double>(target))
      .arg("active", static_cast<double>(active))
      .arg("achieved", static_cast<double>(achieved));
  trace_.record(event);
}

void Telemetry::reconcile_retry(SimTime t, std::uint64_t attempt,
                                SimTime backoff) {
  reconcile_retries_->add();
  TraceEvent event = instant("fault", "retry", kTrackFaults, t, attempt);
  event.arg("attempt", static_cast<double>(attempt)).arg("backoff", backoff);
  trace_.record(event);
}

void Telemetry::reconcile_abort(SimTime t, std::uint64_t attempts) {
  reconcile_aborts_->add();
  TraceEvent event = instant("fault", "abort", kTrackFaults, t, 0);
  event.arg("attempts", static_cast<double>(attempts));
  trace_.record(event);
}

void Telemetry::pool_recovered(SimTime t, SimTime repair_seconds) {
  pool_recoveries_->add();
  recovery_time_->observe(repair_seconds);
  TraceEvent event = instant("fault", "recovered", kTrackFaults, t, 0);
  event.arg("repair_seconds", repair_seconds);
  trace_.record(event);
}

void Telemetry::scaling_decision(SimTime t, double lambda, double tm,
                                 std::size_t queue_bound, std::size_t target,
                                 std::size_t achieved) {
  scaling_decisions_->add();
  TraceEvent event = instant("policy", "decision", kTrackPolicy, t, 0);
  event.arg("lambda", lambda)
      .arg("tm", tm)
      .arg("k", static_cast<double>(queue_bound))
      .arg("target_m", static_cast<double>(target))
      .arg("achieved_m", static_cast<double>(achieved));
  trace_.record(event);
}

void Telemetry::spot_price_sample(SimTime t, double price, double cost_burn) {
  spot_price_->set(price);
  market_cost_burn_->set(cost_burn);
  TraceEvent event;
  event.name = "spot_price";
  event.category = "market";
  event.phase = TracePhase::kCounter;
  event.track = kTrackMarket;
  event.time = t;
  event.arg("price", price).arg("cost_burn", cost_burn);
  trace_.record(event);
}

void Telemetry::market_purchase(SimTime t, std::uint64_t vm_id,
                                const char* kind) {
  market_purchases_->add();
  // Purchases are infrequent; per-kind counters resolve by name on demand.
  metrics_.counter(std::string("market_purchases_") + kind).add();
  TraceEvent event = instant("market", "purchase", kTrackMarket, t, vm_id);
  event.name = kind;
  trace_.record(event);
}

void Telemetry::spot_revoked(SimTime t, std::uint64_t vm_id, double price,
                             double bid) {
  spot_revocations_->add();
  TraceEvent event = instant("market", "revoke", kTrackMarket, t, vm_id);
  event.arg("price", price).arg("bid", bid);
  trace_.record(event);
}

void Telemetry::spot_kill(SimTime t, std::uint64_t vm_id,
                          std::size_t lost_requests) {
  spot_kills_->add();
  TraceEvent event = instant("market", "kill", kTrackMarket, t, vm_id);
  event.arg("lost_requests", static_cast<double>(lost_requests));
  trace_.record(event);
}

void Telemetry::retry_scheduled(SimTime t, std::uint64_t request_id,
                                std::uint64_t attempt, SimTime backoff) {
  client_retries_->add();
  trace_.record(TraceKind::kRetry, t, request_id,
                static_cast<double>(attempt), backoff);
}

void Telemetry::retry_budget_exhausted(SimTime t, std::uint64_t request_id) {
  retry_budget_denied_->add();
  trace_.record(TraceKind::kBudgetExhausted, t, request_id);
}

void Telemetry::client_timeout(SimTime t, std::uint64_t request_id) {
  client_timeouts_->add();
  trace_.record(TraceKind::kClientTimeout, t, request_id);
}

void Telemetry::breaker_transition(SimTime t, const char* from,
                                   const char* to) {
  breaker_transitions_->add();
  // Transitions are rare; the per-edge counters resolve by name on demand.
  metrics_.counter(std::string("breaker_to_") + to).add();
  // Trace-arg values are numeric-only; `from` is implied by the previous
  // edge on the lane, so the instant carries just the new state.
  (void)from;
  TraceEvent event = instant("resilience", "breaker", kTrackResilience, t, 0);
  event.name = to;
  trace_.record(event);
}

void Telemetry::breaker_fast_fail(SimTime t, std::uint64_t request_id) {
  breaker_fast_fails_->add();
  trace_.record(TraceKind::kFastFail, t, request_id);
}

void Telemetry::request_shed(SimTime t, std::uint64_t request_id,
                             const char* kind) {
  requests_shed_->add();
  metrics_.counter(std::string("requests_shed_") + kind).add();
  TraceEvent event = instant("resilience", "shed", kTrackResilience, t,
                             request_id);
  event.name = kind;
  trace_.record(event);
}

void Telemetry::cache_lookup(SimTime t, std::uint64_t request_id, bool hit) {
  if (hit) {
    cache_hits_->add();
  } else {
    cache_misses_->add();
  }
  // Tier tag: 1 = cache hit, 2 = backend (miss). Untiered worlds never call
  // this hook, so their span CSVs keep the historical column set.
  if (spans_) spans_->on_tier(request_id, hit ? 1 : 2);
  if (options_.trace_requests) {
    trace_.record(hit ? TraceKind::kCacheHit : TraceKind::kCacheMiss, t,
                  request_id);
  }
}

void Telemetry::cache_fill(SimTime t, std::uint64_t request_id) {
  cache_fills_->add();
  if (options_.trace_requests) {
    trace_.record(TraceKind::kCacheFill, t, request_id);
  }
}

void Telemetry::cache_flush(SimTime t, std::size_t entries) {
  cache_flushes_->add();
  TraceEvent event = instant("apptier", "cache_flush", kTrackApptier, t, 0);
  event.arg("entries", static_cast<double>(entries));
  trace_.record(event);
}

void Telemetry::tier_decision(SimTime t, double lambda, double hit_ratio,
                              double lambda_miss, std::size_t cache_target,
                              std::size_t backend_target) {
  tier_decisions_->add();
  cache_hit_ratio_->set(hit_ratio);
  TraceEvent event = instant("apptier", "tier_decision", kTrackApptier, t, 0);
  event.arg("lambda", lambda)
      .arg("hit_ratio", hit_ratio)
      .arg("lambda_miss", lambda_miss)
      .arg("cache_m", static_cast<double>(cache_target))
      .arg("backend_m", static_cast<double>(backend_target));
  trace_.record(event);
  TraceEvent counter;
  counter.name = "hit_ratio";
  counter.category = "apptier";
  counter.phase = TracePhase::kCounter;
  counter.track = kTrackApptier;
  counter.time = t;
  counter.arg("hit_ratio", hit_ratio).arg("lambda_miss", lambda_miss);
  trace_.record(counter);
}

void Telemetry::cache_instance_count(SimTime t, std::size_t active,
                                     std::size_t draining) {
  cache_active_instances_->set(static_cast<double>(active));
  cache_draining_instances_->set(static_cast<double>(draining));
  TraceEvent event;
  event.name = "cache_instances";
  event.category = "apptier";
  event.phase = TracePhase::kCounter;
  event.track = kTrackApptier;
  event.time = t;
  event.arg("active", static_cast<double>(active))
      .arg("draining", static_cast<double>(draining));
  trace_.record(event);
}

void Telemetry::engine_sample(SimTime t, std::uint64_t executed_events,
                              std::size_t queue_depth) {
  engine_queue_depth_->set(static_cast<double>(queue_depth));
  TraceEvent event;
  event.name = "engine";
  event.category = "engine";
  event.phase = TracePhase::kCounter;
  event.track = kTrackEngine;
  event.time = t;
  event.arg("executed_events", static_cast<double>(executed_events))
      .arg("queue_depth", static_cast<double>(queue_depth));
  trace_.record(event);
}

}  // namespace cloudprov
