#include "lookahead/checkpoint.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <type_traits>

namespace cloudprov {
namespace {

constexpr std::uint32_t kMagic = 0x43505753u;  // "CPWS"
// Version 2 appended the optional resilience state (RetryGateway +
// SheddingAdmission); version-1 files (pre-resilience) still load, with the
// layer absent. Version 3 added the request `key` field (Arrival/Request are
// now encoded field-wise) and appended the optional apptier state; v1/v2
// files still load with key = 0 and no cache tier.
constexpr std::uint32_t kVersion = 3;
constexpr std::uint32_t kMinVersion = 1;

// Version of the file currently being decoded; get() overloads for types
// whose encoding changed across versions branch on it. Writes always use
// kVersion. thread_local so parallel replications can restore concurrently.
thread_local std::uint32_t g_read_version = kVersion;

// --- primitive layer ------------------------------------------------------

template <typename T>
void put(std::ostream& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>,
                "checkpoint: non-trivial type needs an explicit overload");
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
void get(std::istream& in, T& value) {
  static_assert(std::is_trivially_copyable_v<T>,
                "checkpoint: non-trivial type needs an explicit overload");
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!in) throw std::runtime_error("checkpoint: truncated stream");
}

// Composite overloads are in this unnamed namespace, so ADL cannot find
// them from the vector/optional templates below — forward-declare them
// before those templates' definitions instead.
void put(std::ostream& out, const Arrival& arrival);
void get(std::istream& in, Arrival& arrival);
void put(std::ostream& out, const Request& request);
void get(std::istream& in, Request& request);
void put(std::ostream& out, const Vm::Snapshot& snap);
void get(std::istream& in, Vm::Snapshot& snap);
void put(std::ostream& out, const Datacenter::Snapshot& snap);
void get(std::istream& in, Datacenter::Snapshot& snap);
void put(std::ostream& out, const ApplicationProvisioner::Snapshot& snap);
void get(std::istream& in, ApplicationProvisioner::Snapshot& snap);
void put(std::ostream& out, const Broker::Snapshot& snap);
void get(std::istream& in, Broker::Snapshot& snap);
void put(std::ostream& out, const AdaptivePolicy::State& state);
void get(std::istream& in, AdaptivePolicy::State& state);
void put(std::ostream& out, const SpotPriceProcess::State& state);
void get(std::istream& in, SpotPriceProcess::State& state);
void put(std::ostream& out, const MarketBroker::Snapshot& snap);
void get(std::istream& in, MarketBroker::Snapshot& snap);
void put(std::ostream& out, const FaultInjector::Snapshot& snap);
void get(std::istream& in, FaultInjector::Snapshot& snap);
void put(std::ostream& out, const Reconciler::Snapshot& snap);
void get(std::istream& in, Reconciler::Snapshot& snap);
void put(std::ostream& out, const RetryGateway::InFlightEntry& entry);
void get(std::istream& in, RetryGateway::InFlightEntry& entry);
void put(std::ostream& out, const RetryGateway::PendingRetry& entry);
void get(std::istream& in, RetryGateway::PendingRetry& entry);
void put(std::ostream& out, const RetryGateway::Snapshot& snap);
void get(std::istream& in, RetryGateway::Snapshot& snap);
void put(std::ostream& out, const WorldState::ResilienceState& state);
void get(std::istream& in, WorldState::ResilienceState& state);
void put(std::ostream& out, const ApptierState& state);
void get(std::istream& in, ApptierState& state);

// Vectors and optionals of already-handled element types.
template <typename T>
void put(std::ostream& out, const std::vector<T>& values) {
  put(out, static_cast<std::uint64_t>(values.size()));
  for (const T& value : values) put(out, value);
}

// The length prefix is untrusted: reserve at most kMaxReserveBytes up front
// and let a prefix larger than the stream run into the truncation check,
// instead of a huge reserve escaping as std::length_error/std::bad_alloc.
constexpr std::uint64_t kMaxReserveBytes = std::uint64_t{1} << 20;

template <typename T>
void get(std::istream& in, std::vector<T>& values) {
  std::uint64_t size = 0;
  get(in, size);
  values.clear();
  values.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(size, kMaxReserveBytes / sizeof(T))));
  for (std::uint64_t i = 0; i < size; ++i) {
    T value{};
    get(in, value);
    values.push_back(std::move(value));
  }
}

template <typename T>
void put(std::ostream& out, const std::optional<T>& value) {
  put(out, static_cast<std::uint8_t>(value.has_value() ? 1 : 0));
  if (value.has_value()) put(out, *value);
}

template <typename T>
void get(std::istream& in, std::optional<T>& value) {
  std::uint8_t engaged = 0;
  get(in, engaged);
  if (engaged != 0) {
    T inner{};
    get(in, inner);
    value = std::move(inner);
  } else {
    value.reset();
  }
}

// --- composite overloads (field-wise, declaration order) ------------------

// Pre-v3 files raw-copied Arrival/Request (no key field, padding included);
// these mirror the old in-memory layouts so v1/v2 checkpoints still decode.
struct LegacyArrival {
  SimTime time = 0.0;
  double service_demand = 0.0;
  int priority = 0;
  SimTime deadline = 0.0;
};
static_assert(sizeof(LegacyArrival) == 32, "legacy Arrival layout changed");

struct LegacyRequest {
  std::uint64_t id = 0;
  SimTime arrival_time = 0.0;
  double service_demand = 0.0;
  int priority = 0;
  SimTime deadline = 0.0;
};
static_assert(sizeof(LegacyRequest) == 40, "legacy Request layout changed");

void put(std::ostream& out, const Arrival& arrival) {
  put(out, arrival.time);
  put(out, arrival.service_demand);
  put(out, arrival.priority);
  put(out, arrival.deadline);
  put(out, arrival.key);
}

void get(std::istream& in, Arrival& arrival) {
  if (g_read_version < 3) {
    LegacyArrival legacy;
    get(in, legacy);
    arrival = Arrival{legacy.time, legacy.service_demand, legacy.priority,
                      legacy.deadline, 0};
    return;
  }
  get(in, arrival.time);
  get(in, arrival.service_demand);
  get(in, arrival.priority);
  get(in, arrival.deadline);
  get(in, arrival.key);
}

void put(std::ostream& out, const Request& request) {
  put(out, request.id);
  put(out, request.arrival_time);
  put(out, request.service_demand);
  put(out, request.priority);
  put(out, request.deadline);
  put(out, request.key);
}

void get(std::istream& in, Request& request) {
  if (g_read_version < 3) {
    LegacyRequest legacy;
    get(in, legacy);
    request = Request{legacy.id, legacy.arrival_time, legacy.service_demand,
                      legacy.priority, legacy.deadline, 0};
    return;
  }
  get(in, request.id);
  get(in, request.arrival_time);
  get(in, request.service_demand);
  get(in, request.priority);
  get(in, request.deadline);
  get(in, request.key);
}

void put(std::ostream& out, const Vm::Snapshot& snap) {
  put(out, snap.id);
  put(out, snap.spec);
  put(out, snap.state);
  put(out, snap.boot_fail);
  put(out, snap.revoked);
  put(out, snap.priority_queueing);
  put(out, snap.waiting);
  put(out, snap.in_service);
  put(out, snap.service_started);
  put(out, snap.creation_time);
  put(out, snap.destruction_time);
  put(out, snap.busy_seconds);
  put(out, snap.completed);
  put(out, snap.boot_event);
  put(out, snap.completion_event);
}

void get(std::istream& in, Vm::Snapshot& snap) {
  get(in, snap.id);
  get(in, snap.spec);
  get(in, snap.state);
  get(in, snap.boot_fail);
  get(in, snap.revoked);
  get(in, snap.priority_queueing);
  get(in, snap.waiting);
  get(in, snap.in_service);
  get(in, snap.service_started);
  get(in, snap.creation_time);
  get(in, snap.destruction_time);
  get(in, snap.busy_seconds);
  get(in, snap.completed);
  get(in, snap.boot_event);
  get(in, snap.completion_event);
}

void put(std::ostream& out, const Datacenter::Snapshot& snap) {
  put(out, snap.hosts);
  put(out, snap.vms);
  put(out, snap.vm_host);
  put(out, snap.live_vms);
  put(out, snap.failed_hosts);
  put(out, snap.next_vm_id);
  put(out, snap.allocation_suspended);
}

void get(std::istream& in, Datacenter::Snapshot& snap) {
  get(in, snap.hosts);
  get(in, snap.vms);
  get(in, snap.vm_host);
  get(in, snap.live_vms);
  get(in, snap.failed_hosts);
  get(in, snap.next_vm_id);
  get(in, snap.allocation_suspended);
}

void put(std::ostream& out, const ApplicationProvisioner::Snapshot& snap) {
  put(out, snap.instances);
  put(out, snap.draining);
  put(out, snap.rr_cursor);
  put(out, snap.watchdogs);
  put(out, snap.accepted);
  put(out, snap.rejected);
  put(out, snap.qos_violations);
  put(out, snap.lost_to_failures);
  put(out, snap.instance_failures);
  put(out, snap.window_arrivals);
  put(out, snap.commanded_target);
  put(out, snap.failures_by_cause);
  put(out, snap.lost_by_cause);
  put(out, snap.recovery_stats);
  put(out, snap.in_deficit);
  put(out, snap.deficit_since);
  put(out, snap.deficit_seconds);
  put(out, snap.response_stats);
  put(out, snap.service_stats);
  put(out, snap.p95);
  put(out, snap.p99);
  put(out, snap.instance_count);
  put(out, snap.instance_history_started);
}

void get(std::istream& in, ApplicationProvisioner::Snapshot& snap) {
  get(in, snap.instances);
  get(in, snap.draining);
  get(in, snap.rr_cursor);
  get(in, snap.watchdogs);
  get(in, snap.accepted);
  get(in, snap.rejected);
  get(in, snap.qos_violations);
  get(in, snap.lost_to_failures);
  get(in, snap.instance_failures);
  get(in, snap.window_arrivals);
  get(in, snap.commanded_target);
  get(in, snap.failures_by_cause);
  get(in, snap.lost_by_cause);
  get(in, snap.recovery_stats);
  get(in, snap.in_deficit);
  get(in, snap.deficit_since);
  get(in, snap.deficit_seconds);
  get(in, snap.response_stats);
  get(in, snap.service_stats);
  get(in, snap.p95);
  get(in, snap.p99);
  get(in, snap.instance_count);
  get(in, snap.instance_history_started);
}

void put(std::ostream& out, const Broker::Snapshot& snap) {
  put(out, snap.rng);
  put(out, snap.generated);
  put(out, snap.next_request_id);
  put(out, snap.pending_arrival);
  put(out, snap.pending_event);
}

void get(std::istream& in, Broker::Snapshot& snap) {
  get(in, snap.rng);
  get(in, snap.generated);
  get(in, snap.next_request_id);
  get(in, snap.pending_arrival);
  get(in, snap.pending_event);
}

void put(std::ostream& out, const AdaptivePolicy::State& state) {
  put(out, state.analyzer);
  put(out, state.predictor);
  put(out, state.decisions);
}

void get(std::istream& in, AdaptivePolicy::State& state) {
  get(in, state.analyzer);
  get(in, state.predictor);
  get(in, state.decisions);
}

void put(std::ostream& out, const SpotPriceProcess::State& state) {
  put(out, state.rng);
  put(out, state.path);
  put(out, state.spike);
  put(out, state.spike_until);
}

void get(std::istream& in, SpotPriceProcess::State& state) {
  get(in, state.rng);
  get(in, state.path);
  get(in, state.spike);
  get(in, state.spike_until);
}

void put(std::ostream& out, const MarketBroker::Snapshot& snap) {
  put(out, snap.price);
  put(out, snap.entries);
  put(out, snap.kills);
  put(out, snap.running);
  put(out, snap.pending_tick);
  put(out, snap.last_accrual);
  put(out, snap.accrued_burn);
  put(out, snap.purchases);
  put(out, snap.revocations);
  put(out, snap.revocation_kills);
}

void get(std::istream& in, MarketBroker::Snapshot& snap) {
  get(in, snap.price);
  get(in, snap.entries);
  get(in, snap.kills);
  get(in, snap.running);
  get(in, snap.pending_tick);
  get(in, snap.last_accrual);
  get(in, snap.accrued_burn);
  get(in, snap.purchases);
  get(in, snap.revocations);
  get(in, snap.revocation_kills);
}

void put(std::ostream& out, const FaultInjector::Snapshot& snap) {
  put(out, snap.vm_rng);
  put(out, snap.host_rng);
  put(out, snap.boot_rng);
  put(out, snap.degrade_rng);
  put(out, snap.running);
  put(out, snap.pending_vm);
  put(out, snap.pending_host);
  put(out, snap.pending_degrade);
  put(out, snap.timed);
  put(out, snap.active_outages);
  put(out, snap.vm_crashes);
  put(out, snap.host_crashes);
  put(out, snap.boot_failures);
  put(out, snap.stragglers);
  put(out, snap.degradations);
}

void get(std::istream& in, FaultInjector::Snapshot& snap) {
  get(in, snap.vm_rng);
  get(in, snap.host_rng);
  get(in, snap.boot_rng);
  get(in, snap.degrade_rng);
  get(in, snap.running);
  get(in, snap.pending_vm);
  get(in, snap.pending_host);
  get(in, snap.pending_degrade);
  get(in, snap.timed);
  get(in, snap.active_outages);
  get(in, snap.vm_crashes);
  get(in, snap.host_crashes);
  get(in, snap.boot_failures);
  get(in, snap.stragglers);
  get(in, snap.degradations);
}

void put(std::ostream& out, const Reconciler::Snapshot& snap) {
  put(out, snap.running);
  put(out, snap.pending);
  put(out, snap.last_target);
  put(out, snap.attempt);
  put(out, snap.next_backoff);
  put(out, snap.aborted);
  put(out, snap.heals);
  put(out, snap.retries);
  put(out, snap.aborts);
}

void get(std::istream& in, Reconciler::Snapshot& snap) {
  get(in, snap.running);
  get(in, snap.pending);
  get(in, snap.last_target);
  get(in, snap.attempt);
  get(in, snap.next_backoff);
  get(in, snap.aborted);
  get(in, snap.heals);
  get(in, snap.retries);
  get(in, snap.aborts);
}

void put(std::ostream& out, const RetryGateway::InFlightEntry& entry) {
  put(out, entry.attempt_id);
  put(out, entry.request);
  put(out, entry.attempt);
  put(out, entry.prev_delay);
  put(out, entry.probe);
  put(out, entry.timeout_event);
}

void get(std::istream& in, RetryGateway::InFlightEntry& entry) {
  get(in, entry.attempt_id);
  get(in, entry.request);
  get(in, entry.attempt);
  get(in, entry.prev_delay);
  get(in, entry.probe);
  get(in, entry.timeout_event);
}

void put(std::ostream& out, const RetryGateway::PendingRetry& entry) {
  put(out, entry.request);
  put(out, entry.attempt);
  put(out, entry.prev_delay);
  put(out, entry.event);
}

void get(std::istream& in, RetryGateway::PendingRetry& entry) {
  get(in, entry.request);
  get(in, entry.attempt);
  get(in, entry.prev_delay);
  get(in, entry.event);
}

void put(std::ostream& out, const RetryGateway::Snapshot& snap) {
  put(out, snap.rng);
  put(out, snap.budget_tokens);
  put(out, snap.breaker_state);
  put(out, snap.breaker_opened_at);
  put(out, snap.breaker_ring);
  put(out, snap.breaker_ring_idx);
  put(out, snap.breaker_in_window);
  put(out, snap.breaker_failures);
  put(out, snap.probes_issued);
  put(out, snap.probe_successes);
  put(out, snap.next_retry_seq);
  put(out, snap.client_requests);
  put(out, snap.client_succeeded);
  put(out, snap.client_failed);
  put(out, snap.client_attempts);
  put(out, snap.client_retries);
  put(out, snap.retry_budget_denied);
  put(out, snap.client_timeouts);
  put(out, snap.wasted_completions);
  put(out, snap.breaker_opens);
  put(out, snap.breaker_half_opens);
  put(out, snap.breaker_closes);
  put(out, snap.breaker_fast_fails);
  put(out, snap.in_flight);
  put(out, snap.retries);
}

void get(std::istream& in, RetryGateway::Snapshot& snap) {
  get(in, snap.rng);
  get(in, snap.budget_tokens);
  get(in, snap.breaker_state);
  get(in, snap.breaker_opened_at);
  get(in, snap.breaker_ring);
  get(in, snap.breaker_ring_idx);
  get(in, snap.breaker_in_window);
  get(in, snap.breaker_failures);
  get(in, snap.probes_issued);
  get(in, snap.probe_successes);
  get(in, snap.next_retry_seq);
  get(in, snap.client_requests);
  get(in, snap.client_succeeded);
  get(in, snap.client_failed);
  get(in, snap.client_attempts);
  get(in, snap.client_retries);
  get(in, snap.retry_budget_denied);
  get(in, snap.client_timeouts);
  get(in, snap.wasted_completions);
  get(in, snap.breaker_opens);
  get(in, snap.breaker_half_opens);
  get(in, snap.breaker_closes);
  get(in, snap.breaker_fast_fails);
  get(in, snap.in_flight);
  get(in, snap.retries);
}

void put(std::ostream& out, const WorldState::ResilienceState& state) {
  put(out, state.gateway);
  put(out, state.shedding.shed_deadline);
  put(out, state.shedding.shed_brownout);
  put(out, state.shedding.has_pending);
  put(out, state.shedding.pending_id);
  put(out, state.shedding.pending_kind);
  put(out, state.shedding.pending_time);
}

void get(std::istream& in, WorldState::ResilienceState& state) {
  get(in, state.gateway);
  get(in, state.shedding.shed_deadline);
  get(in, state.shedding.shed_brownout);
  get(in, state.shedding.has_pending);
  get(in, state.shedding.pending_id);
  get(in, state.shedding.pending_kind);
  get(in, state.shedding.pending_time);
}

void put(std::ostream& out, const ApptierState& state) {
  put(out, state.cache_datacenter);
  put(out, state.cache_provisioner);
  put(out, state.directory);
  put(out, state.rng);
  put(out, state.hits);
  put(out, state.misses);
  put(out, state.fills);
  put(out, state.evictions);
  put(out, state.expirations);
  put(out, state.invalidations);
  put(out, state.flushes);
  put(out, state.window_arrivals);
  put(out, state.window_hits);
  put(out, state.window_lookups);
  put(out, state.hit_ewma);
  put(out, state.last_window_hit_ratio);
  put(out, state.lambda_miss_sum);
  put(out, state.windows);
  put(out, state.response_stats);
  put(out, state.p95);
  put(out, state.p99);
  put(out, state.qos_violations);
  put(out, state.series);
  put(out, state.flush_events);
  put(out, state.crash_events);
  put(out, state.cache_decisions);
}

void get(std::istream& in, ApptierState& state) {
  get(in, state.cache_datacenter);
  get(in, state.cache_provisioner);
  get(in, state.directory);
  get(in, state.rng);
  get(in, state.hits);
  get(in, state.misses);
  get(in, state.fills);
  get(in, state.evictions);
  get(in, state.expirations);
  get(in, state.invalidations);
  get(in, state.flushes);
  get(in, state.window_arrivals);
  get(in, state.window_hits);
  get(in, state.window_lookups);
  get(in, state.hit_ewma);
  get(in, state.last_window_hit_ratio);
  get(in, state.lambda_miss_sum);
  get(in, state.windows);
  get(in, state.response_stats);
  get(in, state.p95);
  get(in, state.p99);
  get(in, state.qos_violations);
  get(in, state.series);
  get(in, state.flush_events);
  get(in, state.crash_events);
  get(in, state.cache_decisions);
}

}  // namespace

void write_checkpoint(std::ostream& out, const WorldState& state) {
  put(out, kMagic);
  put(out, kVersion);
  put(out, state.now);
  put(out, state.executed_events);
  put(out, state.push_counter);
  put(out, state.datacenter);
  put(out, state.provisioner);
  put(out, state.broker);
  put(out, state.source);
  put(out, state.policy_present);
  if (state.policy_present) put(out, state.policy);
  put(out, state.lookahead_rng);
  put(out, state.market);
  put(out, state.faults);
  put(out, state.reconciler);
  put(out, state.resilience);
  put(out, state.apptier);
  if (!out) throw std::runtime_error("checkpoint: write failed");
}

WorldState read_checkpoint(std::istream& in) {
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  get(in, magic);
  if (magic != kMagic) {
    throw std::runtime_error("checkpoint: bad magic (not a checkpoint file)");
  }
  get(in, version);
  if (version < kMinVersion || version > kVersion) {
    throw std::runtime_error("checkpoint: unsupported version");
  }
  g_read_version = version;
  WorldState state;
  get(in, state.now);
  get(in, state.executed_events);
  get(in, state.push_counter);
  get(in, state.datacenter);
  get(in, state.provisioner);
  get(in, state.broker);
  get(in, state.source);
  get(in, state.policy_present);
  if (state.policy_present) get(in, state.policy);
  get(in, state.lookahead_rng);
  get(in, state.market);
  get(in, state.faults);
  get(in, state.reconciler);
  if (version >= 2) get(in, state.resilience);
  if (version >= 3) get(in, state.apptier);
  g_read_version = kVersion;
  if (in.peek() != std::istream::traits_type::eof()) {
    throw std::runtime_error("checkpoint: trailing bytes after state");
  }
  return state;
}

void write_checkpoint_file(const std::string& path, const WorldState& state) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("checkpoint: cannot open for writing: " + path);
  }
  write_checkpoint(out, state);
}

WorldState read_checkpoint_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("checkpoint: cannot open for reading: " + path);
  }
  return read_checkpoint(in);
}

}  // namespace cloudprov
