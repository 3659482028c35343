#include "lookahead/checkpoint.h"

#include <algorithm>
#include <array>
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
// SheddingAdmission). Version 3 added the request `key` field (Arrival and
// Request are now encoded field-wise) and appended the optional apptier
// state. Older files still load: the field lists below skip what their
// version lacks, which leaves key = 0 and those layers absent.
constexpr std::uint32_t kVersion = 3;
constexpr std::uint32_t kMinVersion = 1;

// The length prefix is untrusted: reserve at most kMaxReserveBytes up front
// and let a prefix larger than the stream run into the truncation check,
// instead of a huge reserve escaping as std::length_error/std::bad_alloc.
constexpr std::uint64_t kMaxReserveBytes = std::uint64_t{1} << 20;

/// Encodes every value it visits, always in the current format.
class Writer {
 public:
  explicit Writer(std::ostream& out) : out_(out) {}
  std::uint32_t version() const { return kVersion; }
  template <typename T>
  void operator()(const T& value);

 private:
  template <typename T>
  void raw(const T& value);

  std::ostream& out_;
};

/// Decodes every value it visits from a file written at version().
class Reader {
 public:
  Reader(std::istream& in, std::uint32_t version)
      : in_(in), version_(version) {}
  std::uint32_t version() const { return version_; }
  template <typename T>
  void operator()(T& value);

 private:
  template <typename T>
  void raw(T& value);

  std::istream& in_;
  std::uint32_t version_;
};

// --- field lists ------------------------------------------------------------
//
// One list per composite type, in declaration order, walked by both the
// Writer and the Reader. A field that older versions lack sits behind a
// version check. Every other type is a vector, an optional or a raw leaf
// (Writer/Reader::operator() below).

// Pre-v3 files raw-copied Arrival and Request: `priority` was followed by
// four padding bytes, and there was no `key`.
template <typename V>
void pre_v3_padding(V& v) {
  if (v.version() >= 3) return;
  std::uint32_t padding = 0;
  v(padding);
}

template <typename V>
void fields(V& v, Arrival& arrival) {
  v(arrival.time);
  v(arrival.service_demand);
  v(arrival.priority);
  pre_v3_padding(v);
  v(arrival.deadline);
  if (v.version() >= 3) v(arrival.key);
}

template <typename V>
void fields(V& v, Request& request) {
  v(request.id);
  v(request.arrival_time);
  v(request.service_demand);
  v(request.priority);
  pre_v3_padding(v);
  v(request.deadline);
  if (v.version() >= 3) v(request.key);
}

template <typename V>
void fields(V& v, Vm::Snapshot& snap) {
  v(snap.id);
  v(snap.spec);
  v(snap.state);
  v(snap.boot_fail);
  v(snap.revoked);
  v(snap.priority_queueing);
  v(snap.waiting);
  v(snap.in_service);
  v(snap.service_started);
  v(snap.creation_time);
  v(snap.destruction_time);
  v(snap.busy_seconds);
  v(snap.completed);
  v(snap.boot_event);
  v(snap.completion_event);
}

template <typename V>
void fields(V& v, Datacenter::Snapshot& snap) {
  v(snap.hosts);
  v(snap.vms);
  v(snap.vm_host);
  v(snap.live_vms);
  v(snap.failed_hosts);
  v(snap.next_vm_id);
  v(snap.allocation_suspended);
}

template <typename V>
void fields(V& v, ApplicationProvisioner::Snapshot& snap) {
  v(snap.instances);
  v(snap.draining);
  v(snap.rr_cursor);
  v(snap.watchdogs);
  v(snap.accepted);
  v(snap.rejected);
  v(snap.qos_violations);
  v(snap.lost_to_failures);
  v(snap.instance_failures);
  v(snap.window_arrivals);
  v(snap.commanded_target);
  v(snap.failures_by_cause);
  v(snap.lost_by_cause);
  v(snap.recovery_stats);
  v(snap.in_deficit);
  v(snap.deficit_since);
  v(snap.deficit_seconds);
  v(snap.response_stats);
  v(snap.service_stats);
  v(snap.p95);
  v(snap.p99);
  v(snap.instance_count);
  v(snap.instance_history_started);
}

template <typename V>
void fields(V& v, Broker::Snapshot& snap) {
  v(snap.rng);
  v(snap.generated);
  v(snap.next_request_id);
  v(snap.pending_arrival);
  v(snap.pending_event);
}

template <typename V>
void fields(V& v, AdaptivePolicy::State& state) {
  v(state.analyzer);
  v(state.predictor);
  v(state.decisions);
}

template <typename V>
void fields(V& v, SpotPriceProcess::State& state) {
  v(state.rng);
  v(state.path);
  v(state.spike);
  v(state.spike_until);
}

template <typename V>
void fields(V& v, MarketBroker::Snapshot& snap) {
  v(snap.price);
  v(snap.entries);
  v(snap.kills);
  v(snap.running);
  v(snap.pending_tick);
  v(snap.last_accrual);
  v(snap.accrued_burn);
  v(snap.purchases);
  v(snap.revocations);
  v(snap.revocation_kills);
}

template <typename V>
void fields(V& v, FaultInjector::Snapshot& snap) {
  v(snap.vm_rng);
  v(snap.host_rng);
  v(snap.boot_rng);
  v(snap.degrade_rng);
  v(snap.running);
  v(snap.pending_vm);
  v(snap.pending_host);
  v(snap.pending_degrade);
  v(snap.timed);
  v(snap.active_outages);
  v(snap.vm_crashes);
  v(snap.host_crashes);
  v(snap.boot_failures);
  v(snap.stragglers);
  v(snap.degradations);
}

template <typename V>
void fields(V& v, Reconciler::Snapshot& snap) {
  v(snap.running);
  v(snap.pending);
  v(snap.last_target);
  v(snap.attempt);
  v(snap.next_backoff);
  v(snap.aborted);
  v(snap.heals);
  v(snap.retries);
  v(snap.aborts);
}

template <typename V>
void fields(V& v, RetryGateway::InFlightEntry& entry) {
  v(entry.attempt_id);
  v(entry.request);
  v(entry.attempt);
  v(entry.prev_delay);
  v(entry.probe);
  v(entry.timeout_event);
}

template <typename V>
void fields(V& v, RetryGateway::PendingRetry& entry) {
  v(entry.request);
  v(entry.attempt);
  v(entry.prev_delay);
  v(entry.event);
}

template <typename V>
void fields(V& v, RetryGateway::Snapshot& snap) {
  v(snap.rng);
  v(snap.budget_tokens);
  v(snap.breaker_state);
  v(snap.breaker_opened_at);
  v(snap.breaker_ring);
  v(snap.breaker_ring_idx);
  v(snap.breaker_in_window);
  v(snap.breaker_failures);
  v(snap.probes_issued);
  v(snap.probe_successes);
  v(snap.next_retry_seq);
  v(snap.client_requests);
  v(snap.client_succeeded);
  v(snap.client_failed);
  v(snap.client_attempts);
  v(snap.client_retries);
  v(snap.retry_budget_denied);
  v(snap.client_timeouts);
  v(snap.wasted_completions);
  v(snap.breaker_opens);
  v(snap.breaker_half_opens);
  v(snap.breaker_closes);
  v(snap.breaker_fast_fails);
  v(snap.in_flight);
  v(snap.retries);
}

template <typename V>
void fields(V& v, SheddingAdmission::Snapshot& snap) {
  v(snap.shed_deadline);
  v(snap.shed_brownout);
  v(snap.has_pending);
  v(snap.pending_id);
  v(snap.pending_kind);
  v(snap.pending_time);
}

template <typename V>
void fields(V& v, WorldState::ResilienceState& state) {
  v(state.gateway);
  v(state.shedding);
}

template <typename V>
void fields(V& v, ApptierState& state) {
  v(state.cache_datacenter);
  v(state.cache_provisioner);
  v(state.directory);
  v(state.rng);
  v(state.hits);
  v(state.misses);
  v(state.fills);
  v(state.evictions);
  v(state.expirations);
  v(state.invalidations);
  v(state.flushes);
  v(state.window_arrivals);
  v(state.window_hits);
  v(state.window_lookups);
  v(state.hit_ewma);
  v(state.last_window_hit_ratio);
  v(state.lambda_miss_sum);
  v(state.windows);
  v(state.response_stats);
  v(state.p95);
  v(state.p99);
  v(state.qos_violations);
  v(state.series);
  v(state.flush_events);
  v(state.crash_events);
  v(state.cache_decisions);
}

/// Everything after the magic/version header. Telemetry is not encoded.
template <typename V>
void fields(V& v, WorldState& state) {
  v(state.now);
  v(state.executed_events);
  v(state.push_counter);
  v(state.datacenter);
  v(state.provisioner);
  v(state.broker);
  v(state.source);
  v(state.policy_present);
  if (state.policy_present) v(state.policy);
  v(state.lookahead_rng);
  v(state.market);
  v(state.faults);
  v(state.reconciler);
  if (v.version() >= 2) v(state.resilience);
  if (v.version() >= 3) v(state.apptier);
}

// --- the visitor ------------------------------------------------------------
//
// Dispatch order: a field list, then a vector (u64 length prefix), then an
// optional (u8 engaged flag), then raw bytes. Field lists come first because
// Arrival, Request and InFlightEntry are trivially copyable yet encoded
// field-wise; optionals come before raw bytes for the same reason
// (std::optional<SimTime> is trivially copyable too). A vector's elements
// are field lists or raw bytes: v3 wrote the std::optional<EventStamp>
// elements of ApptierState's chaos-event vectors as raw objects, engaged
// flag and padding included.

template <typename V, typename T>
concept HasFieldList = requires(V& v, T& value) { fields(v, value); };

template <typename T, template <typename...> class Template>
inline constexpr bool kIs = false;
template <template <typename...> class Template, typename... Args>
inline constexpr bool kIs<Template<Args...>, Template> = true;

template <typename T>
void Writer::operator()(const T& value) {
  if constexpr (HasFieldList<Writer, T>) {
    // One list serves both directions, so it takes a mutable reference; the
    // Writer only reads through it.
    fields(*this, const_cast<T&>(value));
  } else if constexpr (kIs<T, std::vector>) {
    (*this)(static_cast<std::uint64_t>(value.size()));
    for (const auto& element : value) {
      if constexpr (kIs<typename T::value_type, std::optional>) {
        raw(element);
      } else {
        (*this)(element);
      }
    }
  } else if constexpr (kIs<T, std::optional>) {
    (*this)(static_cast<std::uint8_t>(value.has_value() ? 1 : 0));
    if (value.has_value()) (*this)(*value);
  } else {
    raw(value);
  }
}

template <typename T>
void Writer::raw(const T& value) {
  static_assert(std::is_trivially_copyable_v<T>,
                "checkpoint: non-trivial type needs a field list");
  out_.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
void Reader::operator()(T& value) {
  if constexpr (HasFieldList<Reader, T>) {
    fields(*this, value);
  } else if constexpr (kIs<T, std::vector>) {
    std::uint64_t size = 0;
    (*this)(size);
    value.clear();
    value.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(
        size, kMaxReserveBytes / sizeof(typename T::value_type))));
    for (std::uint64_t i = 0; i < size; ++i) {
      if constexpr (kIs<typename T::value_type, std::optional>) {
        raw(value.emplace_back());
      } else {
        (*this)(value.emplace_back());
      }
    }
  } else if constexpr (kIs<T, std::optional>) {
    std::uint8_t engaged = 0;
    (*this)(engaged);
    value.reset();
    if (engaged != 0) (*this)(value.emplace());
  } else {
    raw(value);
  }
}

template <typename T>
void Reader::raw(T& value) {
  static_assert(std::is_trivially_copyable_v<T>,
                "checkpoint: non-trivial type needs a field list");
  in_.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!in_) throw std::runtime_error("checkpoint: truncated stream");
}

// --- padding ----------------------------------------------------------------
//
// The Writer copies raw leaves byte for byte, padding included, so a decoded
// file re-encodes unchanged. Padding of a freshly taken snapshot holds
// whatever the stack held; clear_padding() zeroes it at snapshot time.

/// Zeroes the bytes of `value` that none of `Members` covers. The members
/// must be all of T's. The mask of covered bytes is built once per type.
template <auto... Members, typename T>
void zero_padding(T& value) {
  static const auto mask = [] {
    std::array<unsigned char, sizeof(T)> covered{};
    const T probe{};
    const auto* base = reinterpret_cast<const unsigned char*>(&probe);
    const auto cover = [&](const auto& member) {
      const auto* at = reinterpret_cast<const unsigned char*>(&member);
      std::fill_n(covered.begin() + (at - base), sizeof(member), 0xff);
    };
    (cover(probe.*Members), ...);
    return covered;
  }();
  unsigned char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  for (std::size_t i = 0; i < sizeof(T); ++i) bytes[i] &= mask[i];
  std::memcpy(static_cast<void*>(&value), bytes, sizeof(T));
}

// One overload per raw leaf that has padding; every other leaf is a no-op.
// Checkpoint.SameStateEncodesToSameBytes catches a padded leaf missing here.
template <typename T>
void clear_leaf(T&) {}
void clear_leaf(VmSpec& v) {
  zero_padding<&VmSpec::cores, &VmSpec::ram_gb, &VmSpec::speed>(v);
}
void clear_leaf(Rng::State& v) {
  using S = Rng::State;
  zero_padding<&S::s, &S::cached_normal, &S::has_cached_normal>(v);
}
void clear_leaf(Host::Snapshot& v) {
  using S = Host::Snapshot;
  zero_padding<&S::used_cores, &S::used_ram_gb, &S::vm_count,
               &S::powered_seconds, &S::powered_since, &S::powered,
               &S::failed>(v);
}
void clear_leaf(WorkloadAnalyzer::State& v) {
  using S = WorkloadAnalyzer::State;
  zero_padding<&S::last_prediction, &S::running, &S::tick>(v);
}
void clear_leaf(MarketBroker::Snapshot::EntrySnap& v) {
  using S = MarketBroker::Snapshot::EntrySnap;
  zero_padding<&S::vm_id, &S::class_index, &S::kind, &S::purchase_time,
               &S::revoked, &S::hard_killed>(v);
}
void clear_leaf(FaultInjector::Snapshot::Timed& v) {
  zero_padding<&ScriptedFault::kind, &ScriptedFault::time,
               &ScriptedFault::target>(v.script);
  using S = FaultInjector::Snapshot::Timed;
  zero_padding<&S::kind, &S::stamp, &S::script, &S::vm_id,
               &S::original_speed>(v);
}
void clear_leaf(ApptierState::DirectoryEntry& v) {
  using S = ApptierState::DirectoryEntry;
  zero_padding<&S::key, &S::expiry, &S::slot>(v);
}
/// A raw optional: the bytes after the engaged flag, and the whole payload
/// when disengaged.
void clear_leaf(std::optional<EventStamp>& v) {
  alignas(std::optional<EventStamp>) unsigned char image[sizeof(v)] = {};
  std::optional<EventStamp> clean;
  std::memcpy(static_cast<void*>(&clean), image, sizeof(v));  // disengaged
  if (v.has_value()) clean.emplace(*v);
  std::memcpy(static_cast<void*>(&v), &clean, sizeof(v));
}

/// Walks the field lists like the Writer and clears every raw leaf.
class PaddingClearer {
 public:
  std::uint32_t version() const { return kVersion; }
  template <typename T>
  void operator()(T& value) {
    if constexpr (HasFieldList<PaddingClearer, T>) {
      fields(*this, value);
    } else if constexpr (kIs<T, std::vector>) {
      for (auto& element : value) {
        if constexpr (kIs<typename T::value_type, std::optional>) {
          clear_leaf(element);  // written raw, see Writer
        } else {
          (*this)(element);
        }
      }
    } else if constexpr (kIs<T, std::optional>) {
      if (value.has_value()) (*this)(*value);
    } else {
      clear_leaf(value);
    }
  }
};

}  // namespace

void clear_padding(WorldState& state) { PaddingClearer()(state); }

void write_checkpoint(std::ostream& out, const WorldState& state) {
  Writer writer(out);
  writer(kMagic);
  writer(kVersion);
  writer(state);
  if (!out) throw std::runtime_error("checkpoint: write failed");
}

WorldState read_checkpoint(std::istream& in) {
  Reader header(in, kVersion);
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  header(magic);
  if (magic != kMagic) {
    throw std::runtime_error("checkpoint: bad magic (not a checkpoint file)");
  }
  header(version);
  if (version < kMinVersion || version > kVersion) {
    throw std::runtime_error("checkpoint: unsupported version");
  }
  WorldState state;
  Reader(in, version)(state);
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
