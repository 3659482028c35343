// Telemetry facade: one metrics registry + one sim-time trace buffer per
// replication, with typed record helpers for every instrumented subsystem.
//
// Instrumented code holds a `Telemetry*` that is null when telemetry is
// disabled, so the entire cost of the subsystem in the default configuration
// is one well-predicted branch per event (the CLOUDPROV_LOG discipline).
// Recording never allocates: trace events are fixed-size PODs in a
// pre-allocated ring, and the hot-path instruments are resolved to pointers
// in the constructor.
//
// Event vocabulary (Chrome trace categories / names):
//   request  : arrival, admit, reject (instants, id = request id);
//              request (span arrival->finish), service (span start->finish)
//   vm       : create, boot, drain, resurrect, destroy, fail (instants,
//              id = vm id); lifetime (span create->destroy); instances
//              (counter lane: active/draining)
//   policy   : decision (instant; args lambda, tm, k, target m, achieved m)
//   engine   : events (counter lane: executed events, pending queue depth)
//   fault    : host_fail, outage begin/end, alloc_denied, straggler, degrade,
//              restore, reconcile, retry, abort, recovered (instants on the
//              fault/reconciler lane; VM fail instants stay on the vm lane
//              with a cause arg)
//   span     : sampled per-request lifecycle spans (SpanTracer; exported as
//              admission/queue_wait/service sub-spans with flow arrows)
//   drift    : predicted-vs-observed counter lanes per analysis window
//              (DriftMonitor)
//   slo      : burn-rate alert raise/clear instants (SloMonitor)
//   market   : spot-price/cost-burn counter lanes, purchase instants,
//              revocation notice + hard-kill instants (MarketBroker)
//   resilience: retry/budget-exhausted/client-timeout/fast-fail instants,
//              breaker state edges, admission shed instants (RetryGateway /
//              SheddingAdmission, src/resilience)
//   apptier  : cache hit/miss/fill/flush instants, per-window tier decision
//              instants (lambda split across tiers), cache-pool instance
//              counter lane (CacheTier / TieredProvisioner, src/apptier)
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "telemetry/drift_monitor.h"
#include "telemetry/metrics_registry.h"
#include "telemetry/slo_monitor.h"
#include "telemetry/span_tracer.h"
#include "telemetry/trace_buffer.h"
#include "util/units.h"

namespace cloudprov {

/// Display lanes in the exported trace (Chrome "tid"), numbered from 1 with
/// kTrackApptier last; export.cc names each one.
enum TelemetryTrack : std::uint32_t {
  kTrackRequests = 1,
  kTrackVms = 2,
  kTrackPolicy = 3,
  kTrackEngine = 4,
  kTrackFaults = 5,
  kTrackSpans = 6,
  kTrackDrift = 7,
  kTrackSlo = 8,
  kTrackMarket = 9,
  kTrackResilience = 10,
  kTrackApptier = 11,
};

struct TelemetryOptions {
  /// Ring capacity in events. Each event takes a 40-byte record; one outside
  /// the per-request classes also takes a 136-byte TraceEvent in a side ring
  /// of the same capacity. The default holds the newest ~65k events in
  /// 2.6 MB of records plus up to 8.9 MB of side ring, whose pages are
  /// touched only as such events arrive; raise it to retain more.
  std::size_t trace_capacity = 1 << 16;
  /// Per-request trace events (the high-volume class). Metrics are always
  /// collected; disabling this keeps only lifecycle/decision/engine events.
  bool trace_requests = true;

  /// Fraction of requests given full lifecycle spans (0 disables the span
  /// tracer entirely). Selection is a pure hash of (request id, span_seed),
  /// so it is deterministic and perturbs no simulation RNG stream.
  double span_sample_rate = 0.0;
  std::uint64_t span_seed = 0;
  /// Finished request traces retained (oldest dropped beyond this).
  std::size_t span_capacity = 1 << 16;

  /// Model-drift observatory (predicted vs observed per analysis window).
  bool drift_enabled = false;
  DriftMonitor::Config drift;

  /// SLO burn-rate alerting over the request counters.
  bool slo_enabled = false;
  SloMonitor::Config slo;
};

class Telemetry {
 public:
  explicit Telemetry(TelemetryOptions options = {});
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  const TelemetryOptions& options() const { return options_; }
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  TraceBuffer& trace() { return trace_; }
  const TraceBuffer& trace() const { return trace_; }

  /// Null unless the corresponding option enabled the monitor.
  SpanTracer* spans() { return spans_.get(); }
  const SpanTracer* spans() const { return spans_.get(); }
  DriftMonitor* drift() { return drift_.get(); }
  const DriftMonitor* drift() const { return drift_.get(); }
  SloMonitor* slo() { return slo_.get(); }
  const SloMonitor* slo() const { return slo_.get(); }

  // --- request lifecycle (ApplicationProvisioner) -----------------------
  void request_arrival(SimTime t, std::uint64_t request_id);
  void request_admitted(SimTime t, std::uint64_t request_id,
                        std::uint64_t vm_id);
  void request_rejected(SimTime t, std::uint64_t request_id);
  /// A VM pulled the request off its queue and began serving it (Vm).
  /// Only feeds the span tracer; no-op when spans are off.
  void request_service_start(SimTime t, std::uint64_t request_id,
                             std::uint64_t vm_id);
  /// Records the request span (arrival -> finish, duration = response time)
  /// and the service span (start -> finish), plus the response-time
  /// histogram and QoS-violation counter.
  void request_completed(SimTime t, std::uint64_t request_id,
                         double response_time, double service_time,
                         bool qos_violation);
  /// The request was in flight on a VM that failed (ApplicationProvisioner).
  /// Closes the sampled span as lost; loss counters stay with vm_failed.
  void request_lost(SimTime t, std::uint64_t request_id);

  // --- VM lifecycle (Datacenter / Vm) -----------------------------------
  void vm_created(SimTime t, std::uint64_t vm_id);
  void vm_boot_complete(SimTime t, std::uint64_t vm_id);
  void vm_drain(SimTime t, std::uint64_t vm_id, std::size_t load);
  void vm_resurrected(SimTime t, std::uint64_t vm_id);
  void vm_destroyed(SimTime t, std::uint64_t vm_id, SimTime lifetime);
  /// `cause` is the FaultCause string (to_string), used to key the per-cause
  /// failure/loss counters — a cold path, so name lookup is fine here.
  void vm_failed(SimTime t, std::uint64_t vm_id, std::size_t lost_requests,
                 const char* cause);
  /// Counter lane sample of the pool size (stepped chart in Perfetto).
  void instance_count(SimTime t, std::size_t active, std::size_t draining);

  // --- fault injection & self-healing (Datacenter / src/fault) -----------
  void host_failed(SimTime t, std::uint64_t host_id, std::size_t vms_killed);
  /// create_vm refused because the IaaS allocation API is suspended.
  void allocation_denied(SimTime t);
  /// Outage-window edge (begin = true at t0, false at t1).
  void allocation_outage(SimTime t, bool begin);
  /// Boot-fault sampler stretched a boot beyond its base delay.
  void boot_straggler(SimTime t, SimTime boot_delay);
  void vm_degraded(SimTime t, std::uint64_t vm_id, double speed_factor);
  void vm_restored(SimTime t, std::uint64_t vm_id);
  /// One reconciler pass that found a deficit and commanded a heal.
  void reconcile(SimTime t, std::size_t target, std::size_t active,
                 std::size_t achieved);
  /// A heal fell short; retry `attempt` runs after `backoff` seconds.
  void reconcile_retry(SimTime t, std::uint64_t attempt, SimTime backoff);
  /// Retry budget exhausted; the reconciler falls back to interval cadence.
  void reconcile_abort(SimTime t, std::uint64_t attempts);
  /// The active pool climbed back to the commanded target after `repair`
  /// seconds below it (one MTTR sample).
  void pool_recovered(SimTime t, SimTime repair_seconds);

  // --- Algorithm 1 decisions (AdaptivePolicy) ---------------------------
  void scaling_decision(SimTime t, double lambda, double tm,
                        std::size_t queue_bound, std::size_t target,
                        std::size_t achieved);

  // --- IaaS market (MarketBroker, src/market) ----------------------------
  /// Counter-lane sample of the spot price and the cumulative cost burn,
  /// recorded once per market tick.
  void spot_price_sample(SimTime t, double price, double cost_burn);
  /// One capacity purchase; `kind` is the PurchaseKind string (to_string),
  /// keying the per-kind purchase counters on this cold path.
  void market_purchase(SimTime t, std::uint64_t vm_id, const char* kind);
  /// Revocation notice served on an out-bid spot instance.
  void spot_revoked(SimTime t, std::uint64_t vm_id, double price, double bid);
  /// Hard kill of a spot instance that outlived its revocation notice; the
  /// per-cause failure counters stay with vm_failed (fault path).
  void spot_kill(SimTime t, std::uint64_t vm_id, std::size_t lost_requests);

  // --- request-path resilience (RetryGateway / SheddingAdmission) --------
  /// A failed attempt will be retried: `attempt` is the attempt number the
  /// retry will carry, after `backoff` seconds of delay.
  void retry_scheduled(SimTime t, std::uint64_t request_id,
                       std::uint64_t attempt, SimTime backoff);
  /// The token-bucket retry budget had no token; the request gave up.
  void retry_budget_exhausted(SimTime t, std::uint64_t request_id);
  /// The client abandoned an admitted attempt at its timeout.
  void client_timeout(SimTime t, std::uint64_t request_id);
  /// Circuit-breaker edge (cold path; `from`/`to` are state names).
  void breaker_transition(SimTime t, const char* from, const char* to);
  /// An attempt rejected locally by an open (or probe-saturated half-open)
  /// breaker without contacting the provisioner.
  void breaker_fast_fail(SimTime t, std::uint64_t request_id);
  /// Admission shed a request (`kind` is "deadline" or "brownout", keying
  /// the per-kind counters on this cold path).
  void request_shed(SimTime t, std::uint64_t request_id, const char* kind);

  // --- multi-tier cache (CacheTier / TieredProvisioner, src/apptier) -----
  /// Directory lookup outcome for a keyed request at the cache front door.
  void cache_lookup(SimTime t, std::uint64_t request_id, bool hit);
  /// Backend completion populated the directory for this request's key.
  void cache_fill(SimTime t, std::uint64_t request_id);
  /// A scheduled flush dropped the whole directory (`entries` keys).
  void cache_flush(SimTime t, std::size_t entries);
  /// One per-window tiered decision: total arrival rate, planning hit ratio,
  /// the resulting backend offered load, and both tiers' targets. Also
  /// samples the hit-ratio gauge/counter lane.
  void tier_decision(SimTime t, double lambda, double hit_ratio,
                     double lambda_miss, std::size_t cache_target,
                     std::size_t backend_target);
  /// Counter lane sample of the cache pool size (mirrors instance_count).
  void cache_instance_count(SimTime t, std::size_t active,
                            std::size_t draining);

  // --- engine self-profile (Simulation) ---------------------------------
  void engine_sample(SimTime t, std::uint64_t executed_events,
                     std::size_t queue_depth);

  // --- checkpoint support (src/lookahead) --------------------------------
  /// Deep copy: a freshly constructed Telemetry with the same options whose
  /// registry values, trace ring, and monitor state equal this one's — so a
  /// restored world continues recording into an identical collector and its
  /// final exports are byte-identical to an uninterrupted run's.
  std::unique_ptr<Telemetry> clone() const;

 private:
  TelemetryOptions options_;
  MetricsRegistry metrics_;
  TraceBuffer trace_;
  std::unique_ptr<SpanTracer> spans_;
  std::unique_ptr<DriftMonitor> drift_;
  std::unique_ptr<SloMonitor> slo_;

  // Hot-path instruments, resolved once at construction.
  Counter* requests_arrived_;
  Counter* requests_admitted_;
  Counter* requests_rejected_;
  Counter* requests_completed_;
  Counter* qos_violations_;
  Counter* requests_lost_;
  Counter* vms_created_;
  Counter* vms_destroyed_;
  Counter* vms_failed_;
  Counter* vm_drains_;
  Counter* vm_resurrections_;
  Counter* scaling_decisions_;
  Counter* hosts_failed_;
  Counter* allocations_denied_;
  Counter* boot_stragglers_;
  Counter* vms_degraded_;
  Counter* reconciles_;
  Counter* reconcile_retries_;
  Counter* reconcile_aborts_;
  Counter* pool_recoveries_;
  Histogram* response_time_;
  Histogram* service_time_;
  Histogram* recovery_time_;
  Gauge* active_instances_;
  Gauge* draining_instances_;
  Gauge* engine_queue_depth_;
  // Market instruments sit after every pre-market one so the registry's
  // registration order is unchanged for existing consumers.
  Counter* market_purchases_;
  Counter* spot_revocations_;
  Counter* spot_kills_;
  Gauge* spot_price_;
  Gauge* market_cost_burn_;
  // Resilience instruments likewise append after every pre-resilience one.
  Counter* client_retries_;
  Counter* retry_budget_denied_;
  Counter* client_timeouts_;
  Counter* breaker_transitions_;
  Counter* breaker_fast_fails_;
  Counter* requests_shed_;
  // Apptier instruments append after every pre-apptier one (same discipline
  // as the market/resilience blocks: registration order stays stable).
  Counter* cache_hits_;
  Counter* cache_misses_;
  Counter* cache_fills_;
  Counter* cache_flushes_;
  Counter* tier_decisions_;
  Gauge* cache_hit_ratio_;
  Gauge* cache_active_instances_;
  Gauge* cache_draining_instances_;
};

}  // namespace cloudprov
