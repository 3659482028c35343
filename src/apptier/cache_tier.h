// Cache tier: a keyed look-aside cache pool in front of the VM-pool backend.
//
// Sits between the broker (or whatever delivers requests) and the backend
// request sink. Every request does a synchronous directory lookup:
//
//   hit  -> the request is served by the cache pool with a small service
//           demand drawn from the apptier RNG stream (LRU touch);
//   miss -> the request is forwarded unchanged to the backend sink; when the
//           backend completes it, the key is filled with expiry now + TTL.
//
// The directory is an LRU list + key index with lazy TTL expiry, laid out
// flat (CacheDirectory below): one grow-only slab of entries doubly linked
// by 32-bit indices, with a free list, and an open-addressing key index.
// Once the slab and the index have grown to the directory's capacity, no
// lookup, fill, touch, expiry, invalidation, eviction or flush allocates.
// Entries are tagged with the modulo shard slot (key % active cache VMs)
// current at fill time; a lookup whose recomputed slot disagrees counts as
// an invalidation — so cache-VM crashes and resizes produce the realistic
// warmup transient of a consistent-hashing-free memcached fleet. Total
// capacity scales with the active cache pool (capacity_per_vm x active VMs).
//
// The tier also owns the END-TO-END request accounting (response stats, tail
// quantiles, QoS violations across both pools), since neither pool alone
// sees every completion.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "apptier/apptier_config.h"
#include "cloud/broker.h"
#include "core/adaptive_policy.h"
#include "core/application_provisioner.h"
#include "stats/quantile.h"
#include "stats/running_stats.h"
#include "util/distributions.h"
#include "util/flat_index.h"
#include "util/rng.h"

namespace cloudprov {

class Telemetry;

/// The cache tier's counters, statistics and window series: the state
/// CacheTier::capture() and restore() copy whole.
struct CacheTierState {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t fills = 0;
  std::uint64_t evictions = 0;
  std::uint64_t expirations = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t flushes = 0;
  std::uint64_t window_arrivals = 0;
  std::uint64_t window_hits = 0;
  std::uint64_t window_lookups = 0;
  double hit_ewma = -1.0;  ///< <0 = no window closed yet
  double last_window_hit_ratio = 0.0;
  double lambda_miss_sum = 0.0;
  std::uint64_t windows = 0;

  // End-to-end accounting across both pools.
  RunningStats response_stats;
  P2Quantile p95{0.95};
  P2Quantile p99{0.99};
  std::uint64_t qos_violations = 0;

  /// One sample per analysis window: the warmup-transient time series.
  struct WindowSample {
    SimTime t = 0.0;
    double hit_ratio = 0.0;  ///< instantaneous window ratio
    double lambda_miss = 0.0;
    double predicted_response = 0.0;  ///< tandem-model end-to-end prediction
  };
  std::vector<WindowSample> series;
};

/// Mutable apptier state for WorldState snapshot/restore and the disk
/// checkpoint codec (appended as an optional at codec version 3).
struct ApptierState : CacheTierState {
  Datacenter::Snapshot cache_datacenter;
  ApplicationProvisioner::Snapshot cache_provisioner;

  /// Directory in LRU order (front = most recently used).
  struct DirectoryEntry {
    std::uint64_t key = 0;
    SimTime expiry = 0.0;
    std::uint32_t slot = 0;
  };
  std::vector<DirectoryEntry> directory;

  Rng::State rng;  ///< cache service-demand stream

  /// Pending seeded-chaos events, parallel to config.flush_at /
  /// config.cache_crash_at; disengaged once fired.
  std::vector<std::optional<EventStamp>> flush_events;
  std::vector<std::optional<EventStamp>> crash_events;

  /// TieredProvisioner's cache-tier decision log (the backend tier's log
  /// rides in WorldState.policy.decisions).
  std::vector<AdaptivePolicy::DecisionRecord> cache_decisions;
};

/// The tier's LRU/TTL directory. Entries live in one grow-only slab, linked
/// MRU -> LRU by 32-bit prev/next indices, with freed slots chained on a
/// free list, and are found by key through a FlatIndex. A fill evicts before
/// it inserts, so neither ever holds more than `capacity` entries; both grow
/// only while the directory is growing, and a directory at its capacity
/// serves every operation without allocating.
class CacheDirectory {
 public:
  /// What a lookup found.
  enum class Lookup : std::uint8_t {
    kAbsent,       ///< no entry for the key
    kHit,          ///< live entry on the right slot; touched to MRU
    kExpired,      ///< TTL lapsed at lookup; erased
    kInvalidated,  ///< slot remapped since the fill; erased
  };

  /// Looks `key` up at `now` with `shards` active cache VMs (> 0): an entry
  /// whose expiry is <= now is expired, else one whose fill-time slot is not
  /// key % shards is invalidated; both are erased. A hit moves to MRU.
  Lookup lookup(std::uint64_t key, SimTime now, std::size_t shards);

  /// Puts `key` (replacing any resident entry) at the MRU end, tagged with
  /// slot key % shards, evicting from the LRU end so that at most
  /// `capacity` (> 0) entries remain. Returns the number evicted.
  std::size_t fill(std::uint64_t key, SimTime expiry, std::size_t shards,
                   std::size_t capacity);

  /// Drops every entry (TTL storm); returns how many were dropped.
  std::size_t clear();

  std::size_t size() const { return index_.size(); }

  /// Replaces `out` with the entries in LRU order (front = most recently
  /// used).
  void capture(std::vector<ApptierState::DirectoryEntry>& out) const;
  /// Replaces the contents with `entries` (front = most recently used).
  /// Throws std::invalid_argument when a key repeats: one key has one entry.
  void restore(const std::vector<ApptierState::DirectoryEntry>& entries);

 private:
  static constexpr std::uint32_t kNil = FlatIndex::kNil;

  struct Entry {
    std::uint64_t key = 0;
    SimTime expiry = 0.0;
    std::uint32_t slot = 0;
    std::uint32_t prev = kNil;  ///< towards MRU
    std::uint32_t next = kNil;  ///< towards LRU; free-list link when free
  };

  auto key_of() const {
    return [this](std::uint32_t index) { return slab_[index].key; };
  }
  void unlink(std::uint32_t index);
  void link_front(std::uint32_t index);
  void touch(std::uint32_t index);
  /// Unlinks the entry in index bucket `bucket`, frees its slot and empties
  /// the bucket.
  void erase(std::size_t bucket);
  /// Evicts LRU entries until at most `limit` remain; returns how many.
  std::size_t evict_to(std::size_t limit);

  std::vector<Entry> slab_;
  FlatIndex index_;
  std::uint32_t head_ = kNil;  ///< MRU
  std::uint32_t tail_ = kNil;  ///< LRU
  std::uint32_t free_ = kNil;
};

class CacheTier final : public RequestSink {
 public:
  /// Planning hit ratio assumed for the cache pool before the first window
  /// closes (the backend conservatively assumes h = 0 until then).
  static constexpr double kAssumedHitRatio = 0.5;
  /// EWMA weight of the latest window's hit ratio in the planning estimate
  /// h that derives the backend offered load lambda_miss = lambda * (1 - h).
  static constexpr double kHitEwmaAlpha = 0.3;

  /// `backend_sink` is where misses go (the resilience gateway when enabled,
  /// else the backend provisioner); `backend_pool` is the pool whose
  /// completion listener is wrapped for cache fills. The tier chains any
  /// previously installed listeners on both pools.
  CacheTier(Simulation& sim, const ApptierConfig& config, QosTargets qos,
            ApplicationProvisioner& cache_pool,
            ApplicationProvisioner& backend_pool, RequestSink& backend_sink,
            Rng rng, Telemetry* telemetry);

  /// Schedules the configured TTL-storm flushes and cache-VM crashes.
  /// Call once per fresh world; restored worlds re-arm via restore().
  void start();

  // --- RequestSink (the broker's sink in tiered worlds) -------------------
  void on_request(const Request& request) override;

  // --- windowed observation (TieredProvisioner, per analysis window) ------
  /// Front-door arrivals since the last call (the analyzer's tap).
  std::uint64_t take_window_arrivals();
  /// Folds the closing window's hit ratio into the planning EWMA and resets
  /// the window. Returns the EWMA (<0 until a window with lookups closed).
  double fold_window();
  /// Appends one warmup-transient series sample.
  void record_window_sample(SimTime t, double lambda_miss,
                            double predicted_response);

  // --- live signals -------------------------------------------------------
  double hit_ratio() const;  ///< lifetime hits / lookups
  /// Planning estimate h: the EWMA, or the configured assumption before the
  /// first closed window.
  double planning_hit_ratio() const;
  double last_window_hit_ratio() const { return state_.last_window_hit_ratio; }
  std::size_t directory_size() const { return directory_.size(); }
  std::size_t directory_capacity() const;

  std::uint64_t hits() const { return state_.hits; }
  std::uint64_t misses() const { return state_.misses; }
  std::uint64_t fills() const { return state_.fills; }
  std::uint64_t evictions() const { return state_.evictions; }
  std::uint64_t expirations() const { return state_.expirations; }
  std::uint64_t invalidations() const { return state_.invalidations; }
  std::uint64_t flushes() const { return state_.flushes; }
  std::uint64_t lookups() const { return state_.hits + state_.misses; }
  double lambda_miss_mean() const {
    return state_.windows > 0 ? state_.lambda_miss_sum /
                                    static_cast<double>(state_.windows)
                              : 0.0;
  }

  // --- end-to-end accounting ----------------------------------------------
  const RunningStats& response_time_stats() const {
    return state_.response_stats;
  }
  double response_p95() const { return state_.p95.value(); }
  double response_p99() const { return state_.p99.value(); }
  std::uint64_t qos_violations() const { return state_.qos_violations; }

  ApplicationProvisioner& cache_pool() { return cache_pool_; }
  const std::vector<ApptierState::WindowSample>& series() const {
    return state_.series;
  }

  // --- snapshot/restore (src/lookahead) -----------------------------------
  /// Fills the tier-owned part of `state` (directory, RNG, counters, stats,
  /// series, pending chaos-event stamps). The cache datacenter/provisioner
  /// snapshots and the decision logs are captured by their owners.
  void capture(ApptierState& state) const;
  /// Restores the tier-owned part and re-arms pending chaos events under
  /// their original stamps. Must run on a freshly constructed tier (before
  /// start(), which it replaces).
  void restore(const ApptierState& state);

 private:
  void on_cache_complete(const Request& request, double response_time);
  void on_backend_complete(const Request& request, double response_time);
  void record_completion(double response_time);
  void fire_flush(std::size_t index);
  void fire_crash(std::size_t index);

  Simulation& sim_;
  ApptierConfig config_;
  QosTargets qos_;
  ApplicationProvisioner& cache_pool_;
  ApplicationProvisioner& backend_pool_;
  RequestSink& backend_sink_;
  Rng rng_;
  Telemetry* telemetry_ = nullptr;
  ScaledUniformDistribution cache_demand_;

  CacheDirectory directory_;

  CacheTierState state_;

  std::vector<EventId> flush_events_;
  std::vector<EventId> crash_events_;
};

}  // namespace cloudprov
