#include "apptier/cache_tier.h"

#include <algorithm>

#include "telemetry/telemetry.h"
#include "util/check.h"
#include "util/log.h"

namespace cloudprov {
namespace {

/// Service demand of a cache hit: kCacheServiceBase x U(1, 1 +
/// kCacheServiceSpread) seconds, an order of magnitude below a backend miss.
constexpr double kCacheServiceBase = 0.010;
constexpr double kCacheServiceSpread = 0.10;

}  // namespace

// --- CacheDirectory ---------------------------------------------------------

void CacheDirectory::unlink(std::uint32_t index) {
  const Entry& entry = slab_[index];
  if (entry.prev != kNil) {
    slab_[entry.prev].next = entry.next;
  } else {
    head_ = entry.next;
  }
  if (entry.next != kNil) {
    slab_[entry.next].prev = entry.prev;
  } else {
    tail_ = entry.prev;
  }
}

void CacheDirectory::link_front(std::uint32_t index) {
  Entry& entry = slab_[index];
  entry.prev = kNil;
  entry.next = head_;
  if (head_ != kNil) {
    slab_[head_].prev = index;
  } else {
    tail_ = index;
  }
  head_ = index;
}

void CacheDirectory::touch(std::uint32_t index) {
  if (index == head_) return;
  unlink(index);
  link_front(index);
}

void CacheDirectory::erase(std::size_t bucket) {
  const std::uint32_t index = index_.at(bucket);
  unlink(index);
  slab_[index].next = free_;
  free_ = index;
  index_.erase_at(bucket);
}

std::size_t CacheDirectory::evict_to(std::size_t limit) {
  std::size_t evicted = 0;
  for (; size() > limit; ++evicted) {
    erase(index_.bucket_of(slab_[tail_].key, key_of()));
  }
  return evicted;
}

CacheDirectory::Lookup CacheDirectory::lookup(std::uint64_t key, SimTime now,
                                              std::size_t shards) {
  if (size() == 0) return Lookup::kAbsent;
  const std::size_t bucket = index_.bucket_of(key, key_of());
  const std::uint32_t index = index_.at(bucket);
  if (index == kNil) return Lookup::kAbsent;
  const Entry& entry = slab_[index];
  if (entry.expiry <= now) {
    erase(bucket);
    return Lookup::kExpired;
  }
  if (entry.slot != static_cast<std::uint32_t>(key % shards)) {
    // Modulo-sharded slot moved (crash/resize): the resident copy is on the
    // wrong cache VM now — a real fleet would miss here too.
    erase(bucket);
    return Lookup::kInvalidated;
  }
  touch(index);
  return Lookup::kHit;
}

std::size_t CacheDirectory::fill(std::uint64_t key, SimTime expiry,
                                 std::size_t shards, std::size_t capacity) {
  const auto slot = static_cast<std::uint32_t>(key % shards);
  if (const std::uint32_t index = index_.find(key, key_of()); index != kNil) {
    // Refill of a resident key: it moves to MRU, then the (possibly shrunk)
    // capacity trims the LRU end.
    slab_[index].expiry = expiry;
    slab_[index].slot = slot;
    touch(index);
    return evict_to(capacity);
  }
  // A new key lands at MRU, so the entries it pushes out are exactly the
  // LRU tail beyond capacity - 1: evict them first.
  const std::size_t evicted = evict_to(capacity - 1);
  std::uint32_t index = free_;
  if (index != kNil) {
    free_ = slab_[index].next;
  } else {
    ensure(slab_.size() < kNil, "CacheDirectory: entry index overflow");
    index = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();
  }
  slab_[index].key = key;
  slab_[index].expiry = expiry;
  slab_[index].slot = slot;
  link_front(index);
  index_.insert(key, index, key_of());
  return evicted;
}

std::size_t CacheDirectory::clear() {
  const std::size_t dropped = size();
  slab_.clear();  // keeps its capacity: refills reuse it
  index_.clear();
  head_ = tail_ = free_ = kNil;
  return dropped;
}

void CacheDirectory::capture(
    std::vector<ApptierState::DirectoryEntry>& out) const {
  out.clear();
  out.reserve(size());
  for (std::uint32_t i = head_; i != kNil; i = slab_[i].next) {
    out.push_back(
        ApptierState::DirectoryEntry{slab_[i].key, slab_[i].expiry,
                                     slab_[i].slot});
  }
}

void CacheDirectory::restore(
    const std::vector<ApptierState::DirectoryEntry>& entries) {
  clear();
  for (const ApptierState::DirectoryEntry& entry : entries) {
    const auto index = static_cast<std::uint32_t>(slab_.size());
    slab_.push_back(Entry{entry.key, entry.expiry, entry.slot, tail_, kNil});
    ensure_arg(index_.insert(entry.key, index, key_of()),
               "CacheDirectory::restore: duplicate key in directory");
    if (tail_ != kNil) {
      slab_[tail_].next = index;
    } else {
      head_ = index;
    }
    tail_ = index;
  }
}

// --- CacheTier --------------------------------------------------------------

CacheTier::CacheTier(Simulation& sim, const ApptierConfig& config,
                     QosTargets qos, ApplicationProvisioner& cache_pool,
                     ApplicationProvisioner& backend_pool,
                     RequestSink& backend_sink, Rng rng, Telemetry* telemetry)
    : sim_(sim),
      config_(config),
      qos_(qos),
      cache_pool_(cache_pool),
      backend_pool_(backend_pool),
      backend_sink_(backend_sink),
      rng_(rng),
      telemetry_(telemetry),
      cache_demand_(kCacheServiceBase, kCacheServiceSpread) {
  ensure_arg(config_.cache_capacity_per_vm > 0,
             "CacheTier: capacity per VM must be > 0");
  ensure_arg(config_.ttl > 0.0, "CacheTier: ttl must be > 0");
  ensure_arg(config_.hit_ewma_alpha > 0.0 && config_.hit_ewma_alpha <= 1.0,
             "CacheTier: hit_ewma_alpha must be in (0, 1]");
  ensure_arg(
      config_.assumed_hit_ratio >= 0.0 && config_.assumed_hit_ratio < 1.0,
      "CacheTier: assumed_hit_ratio must be in [0, 1)");
  // Chain completion listeners: the tier interposes after whatever is
  // already installed (the resilience gateway registers first), so both see
  // every completion in a fixed order — tier accounting/fill, then chain.
  ApplicationProvisioner::CompletionListener backend_prev =
      backend_pool_.completion_listener();
  backend_pool_.set_completion_listener(
      [this, backend_prev = std::move(backend_prev)](const Request& request,
                                                     double response_time) {
        on_backend_complete(request, response_time);
        if (backend_prev) backend_prev(request, response_time);
      });
  ApplicationProvisioner::CompletionListener cache_prev =
      cache_pool_.completion_listener();
  cache_pool_.set_completion_listener(
      [this, cache_prev = std::move(cache_prev)](const Request& request,
                                                 double response_time) {
        on_cache_complete(request, response_time);
        if (cache_prev) cache_prev(request, response_time);
      });
}

void CacheTier::start() {
  flush_events_.assign(config_.flush_at.size(), kInvalidEventId);
  for (std::size_t i = 0; i < config_.flush_at.size(); ++i) {
    flush_events_[i] = sim_.schedule_at(config_.flush_at[i],
                                        [this, i] { fire_flush(i); });
  }
  crash_events_.assign(config_.cache_crash_at.size(), kInvalidEventId);
  for (std::size_t i = 0; i < config_.cache_crash_at.size(); ++i) {
    crash_events_[i] = sim_.schedule_at(config_.cache_crash_at[i],
                                        [this, i] { fire_crash(i); });
  }
}

std::size_t CacheTier::directory_capacity() const {
  return config_.cache_capacity_per_vm * cache_pool_.active_instances();
}

void CacheTier::on_request(const Request& request) {
  ++state_.window_arrivals;
  ++state_.window_lookups;
  const SimTime now = sim_.now();
  bool hit = false;
  const std::size_t shards = cache_pool_.active_instances();
  if (request.key != 0 && shards > 0) {
    switch (directory_.lookup(request.key, now, shards)) {
      case CacheDirectory::Lookup::kHit:
        hit = true;
        break;
      case CacheDirectory::Lookup::kExpired:
        ++state_.expirations;
        break;
      case CacheDirectory::Lookup::kInvalidated:
        ++state_.invalidations;
        break;
      case CacheDirectory::Lookup::kAbsent:
        break;
    }
  }
  if (hit) {
    ++state_.hits;
    ++state_.window_hits;
    Request served = request;
    served.service_demand = cache_demand_.sample(rng_);
    cache_pool_.on_request(served);  // admission + accounting in the pool
  } else {
    ++state_.misses;
    backend_sink_.on_request(request);
  }
  // After dispatch, so the span tracer's pending trace (created by the
  // pool's request_arrival) exists when the lookup tags its tier.
  if (telemetry_ != nullptr) {
    telemetry_->cache_lookup(now, request.id, hit);
  }
}

std::uint64_t CacheTier::take_window_arrivals() {
  const std::uint64_t n = state_.window_arrivals;
  state_.window_arrivals = 0;
  return n;
}

double CacheTier::fold_window() {
  if (state_.window_lookups > 0) {
    const double ratio = static_cast<double>(state_.window_hits) /
                         static_cast<double>(state_.window_lookups);
    state_.last_window_hit_ratio = ratio;
    state_.hit_ewma =
        state_.hit_ewma < 0.0
            ? ratio
            : config_.hit_ewma_alpha * ratio +
                  (1.0 - config_.hit_ewma_alpha) * state_.hit_ewma;
    state_.window_hits = 0;
    state_.window_lookups = 0;
  }
  return state_.hit_ewma;
}

void CacheTier::record_window_sample(SimTime t, double lambda_miss,
                                     double predicted_response) {
  state_.series.push_back(ApptierState::WindowSample{
      t, state_.last_window_hit_ratio, lambda_miss, predicted_response});
  state_.lambda_miss_sum += lambda_miss;
  ++state_.windows;
}

double CacheTier::hit_ratio() const {
  const std::uint64_t total = state_.hits + state_.misses;
  return total > 0
             ? static_cast<double>(state_.hits) / static_cast<double>(total)
             : 0.0;
}

double CacheTier::planning_hit_ratio() const {
  return state_.hit_ewma >= 0.0 ? state_.hit_ewma : config_.assumed_hit_ratio;
}

void CacheTier::on_cache_complete(const Request& request,
                                  double response_time) {
  (void)request;
  record_completion(response_time);
}

void CacheTier::on_backend_complete(const Request& request,
                                    double response_time) {
  record_completion(response_time);
  if (request.key == 0) return;
  const std::size_t capacity = directory_capacity();
  if (capacity == 0) return;  // no active cache VMs: nothing to fill into
  const SimTime now = sim_.now();
  state_.evictions += directory_.fill(request.key, now + config_.ttl,
                                      cache_pool_.active_instances(), capacity);
  ++state_.fills;
  if (telemetry_ != nullptr) telemetry_->cache_fill(now, request.id);
}

void CacheTier::record_completion(double response_time) {
  state_.response_stats.add(response_time);
  state_.p95.add(response_time);
  state_.p99.add(response_time);
  if (response_time > qos_.max_response_time) ++state_.qos_violations;
}

void CacheTier::fire_flush(std::size_t index) {
  flush_events_[index] = kInvalidEventId;
  const std::size_t dropped = directory_.clear();
  ++state_.flushes;
  if (telemetry_ != nullptr) {
    telemetry_->cache_flush(sim_.now(), dropped);
  }
  CLOUDPROV_LOG(Debug) << "apptier: TTL storm at t=" << sim_.now()
                       << " dropped " << dropped << " entries";
}

void CacheTier::fire_crash(std::size_t index) {
  crash_events_[index] = kInvalidEventId;
  if (cache_pool_.live_instances() == 0) return;
  const std::size_t lost = cache_pool_.inject_instance_failure(0);
  CLOUDPROV_LOG(Debug) << "apptier: cache VM crash at t=" << sim_.now()
                       << " lost " << lost << " in-flight hits";
}

void CacheTier::capture(ApptierState& state) const {
  static_cast<CacheTierState&>(state) = state_;
  directory_.capture(state.directory);
  state.rng = rng_.state();
  state.flush_events.clear();
  for (EventId id : flush_events_) state.flush_events.push_back(sim_.stamp(id));
  state.crash_events.clear();
  for (EventId id : crash_events_) state.crash_events.push_back(sim_.stamp(id));
}

void CacheTier::restore(const ApptierState& state) {
  ensure(directory_.size() == 0 && flush_events_.empty() &&
             crash_events_.empty(),
         "CacheTier::restore: tier already started");
  directory_.restore(state.directory);
  rng_.set_state(state.rng);
  state_ = state;
  ensure_arg(state.flush_events.size() == config_.flush_at.size() &&
                 state.crash_events.size() == config_.cache_crash_at.size(),
             "CacheTier::restore: chaos schedule mismatch");
  flush_events_.assign(config_.flush_at.size(), kInvalidEventId);
  for (std::size_t i = 0; i < state.flush_events.size(); ++i) {
    if (state.flush_events[i].has_value()) {
      flush_events_[i] = sim_.schedule_stamped(*state.flush_events[i],
                                               [this, i] { fire_flush(i); });
    }
  }
  crash_events_.assign(config_.cache_crash_at.size(), kInvalidEventId);
  for (std::size_t i = 0; i < state.crash_events.size(); ++i) {
    if (state.crash_events[i].has_value()) {
      crash_events_[i] = sim_.schedule_stamped(*state.crash_events[i],
                                               [this, i] { fire_crash(i); });
    }
  }
}

}  // namespace cloudprov
