// Multi-tier application subsystem tests (src/apptier + src/workload Zipf):
//
//   - ZipfWorkload: seeded determinism, Zipf(alpha) skew (alpha = 0
//     degenerates to uniform), hot-key-shift rank rotation, flash-crowd
//     rate multipliers, the guide-table sampler against a full CDF search,
//     and key-space bounds,
//   - CacheDirectory against a node-based (std::list + std::unordered_map)
//     reference under a seeded random operation mix,
//   - CacheTier mechanics against hand-driven pools: look-aside
//     miss -> backend -> fill -> hit, lazy TTL expiry, LRU eviction at
//     directory capacity, modulo-slot invalidation on pool resize, TTL-storm
//     flush, and the windowed hit-ratio EWMA that drives
//     lambda_miss = lambda * (1 - h),
//   - tiered end-to-end runs: the lambda_miss feedback reaches the backend
//     planner, the per-window series is recorded, and the planner's tandem
//     prediction bounds the simulated end-to-end response,
//   - snapshot/restore bit-identity of tiered worlds (including a snapshot
//     inside a TTL storm, with the pending chaos events re-armed),
//   - disk checkpoints: the v3 codec round-trips the apptier section and
//     rejects out-of-range versions, inflated length prefixes, and
//     directories that repeat a key.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <list>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "apptier/cache_tier.h"
#include "core/provisioning_policy.h"
#include "experiment/runner.h"
#include "experiment/world.h"
#include "lookahead/checkpoint.h"
#include "lookahead/world_state.h"
#include "metrics_equality.h"
#include "util/rng.h"
#include "workload/zipf_workload.h"

namespace cloudprov {
namespace {

// Tiered Zipf smoke: the AB14 sizing section's literals at a 4 h horizon.
ScenarioConfig tiered_config(double scale = 0.02) {
  ScenarioConfig config = zipf_scenario(scale);
  config.horizon = 4.0 * 3600.0;
  config.zipf.horizon = config.horizon;
  config.apptier.enabled = true;
  return config;
}

/// Runs to `snapshot_time`, snapshots, restores into a fresh World, and
/// finishes the run there (the lookahead suite's clone-continue idiom).
RunOutput clone_continue(const ScenarioConfig& config, const PolicySpec& policy,
                         std::uint64_t seed, SimTime snapshot_time) {
  World world(config, policy, seed, std::nullopt);
  world.start();
  world.run_to(snapshot_time);
  const WorldState state = world.snapshot();
  World resumed(config, policy, seed, state);
  resumed.run_to(config.horizon);
  return resumed.finish();
}

// --- ZipfWorkload ----------------------------------------------------------

ZipfWorkloadConfig small_zipf() {
  ZipfWorkloadConfig config;
  config.num_keys = 500;
  config.base_rate = 50.0;
  config.horizon = 600.0;
  return config;
}

TEST(ZipfWorkload, SameSeedSameArrivals) {
  ZipfWorkload a(small_zipf());
  ZipfWorkload b(small_zipf());
  Rng rng_a(42);
  Rng rng_b(42);
  for (int i = 0; i < 200; ++i) {
    const auto arrival_a = a.next(rng_a);
    const auto arrival_b = b.next(rng_b);
    ASSERT_TRUE(arrival_a.has_value());
    ASSERT_TRUE(arrival_b.has_value());
    EXPECT_EQ(arrival_a->time, arrival_b->time);
    EXPECT_EQ(arrival_a->service_demand, arrival_b->service_demand);
    EXPECT_EQ(arrival_a->key, arrival_b->key);
    ASSERT_GE(arrival_a->key, 1u);
    ASSERT_LE(arrival_a->key, 500u);
  }
}

// Count key frequencies over one seeded pass: with alpha = 1.2 the rank-1
// key must dwarf the coldest rank; with alpha = 0 popularity is uniform.
TEST(ZipfWorkload, AlphaControlsSkew) {
  ZipfWorkloadConfig config;
  config.num_keys = 50;
  config.base_rate = 200.0;
  config.horizon = 200.0;
  config.alpha = 1.2;

  const auto histogram = [](ZipfWorkloadConfig cfg) {
    ZipfWorkload workload(cfg);
    Rng rng(7);
    std::vector<std::uint64_t> counts(cfg.num_keys + 1, 0);
    while (const auto arrival = workload.next(rng)) ++counts[arrival->key];
    return counts;
  };

  const std::vector<std::uint64_t> skewed = histogram(config);
  // key_for_rank is the identity with no hot shifts: rank 1 -> key 1.
  EXPECT_GT(skewed[1], 5 * std::max<std::uint64_t>(1, skewed[50]));
  EXPECT_GT(skewed[1], skewed[25]);

  config.alpha = 0.0;
  const std::vector<std::uint64_t> uniform = histogram(config);
  std::uint64_t min_count = uniform[1];
  std::uint64_t max_count = uniform[1];
  for (std::uint64_t key = 1; key <= 50; ++key) {
    min_count = std::min(min_count, uniform[key]);
    max_count = std::max(max_count, uniform[key]);
  }
  EXPECT_GT(min_count, 0u);
  EXPECT_LT(max_count, 2 * min_count);
}

TEST(ZipfWorkload, HotShiftRotatesRanking) {
  ZipfWorkloadConfig config = small_zipf();
  config.num_keys = 9;  // default stride = num_keys / 3 = 3
  config.hot_shift_at = {100.0, 200.0};
  ZipfWorkload workload(config);

  EXPECT_EQ(workload.key_for_rank(1, 50.0), 1u);
  EXPECT_EQ(workload.key_for_rank(1, 100.0), 4u);  // shift boundary inclusive
  EXPECT_EQ(workload.key_for_rank(1, 150.0), 4u);
  EXPECT_EQ(workload.key_for_rank(1, 250.0), 7u);
  EXPECT_EQ(workload.key_for_rank(9, 150.0), 3u);  // wraps around the space

  // An explicit stride overrides the default.
  config.hot_shift_stride = 5;
  ZipfWorkload strided(config);
  EXPECT_EQ(strided.key_for_rank(1, 150.0), 6u);
}

TEST(ZipfWorkload, FlashCrowdMultipliesExpectedRate) {
  ZipfWorkloadConfig config = small_zipf();
  config.base_rate = 100.0;
  config.scale = 0.5;
  config.flash.push_back({10.0, 20.0, 3.0});
  ZipfWorkload workload(config);

  EXPECT_DOUBLE_EQ(workload.expected_rate(5.0), 50.0);
  EXPECT_DOUBLE_EQ(workload.expected_rate(10.0), 150.0);
  EXPECT_DOUBLE_EQ(workload.expected_rate(19.999), 150.0);
  EXPECT_DOUBLE_EQ(workload.expected_rate(20.0), 50.0);  // end exclusive
  EXPECT_DOUBLE_EQ(workload.expected_rate(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(workload.expected_rate(config.horizon), 0.0);
}

// The guide table only narrows the search range: for every u the sampler
// must return exactly the full std::lower_bound rank, including u on and
// next to every CDF value, on every power-of-two bucket boundary, and at
// both ends of [0, 1).
TEST(ZipfWorkload, GuideTableSamplerMatchesFullCdfSearch) {
  for (const double alpha : {0.0, 0.9, 1.2}) {
    for (const std::uint64_t num_keys : {1u, 3u, 20000u, 20001u}) {
      ZipfWorkloadConfig config;
      config.num_keys = num_keys;
      config.alpha = alpha;
      const ZipfWorkload workload(config);
      const std::vector<double>& cdf = workload.cdf();
      ASSERT_EQ(cdf.size(), num_keys);

      std::vector<double> probes = {0.0, 1.0 - 0x1p-53};
      for (const double c : cdf) {
        for (const double u :
             {std::nextafter(c, 0.0), c, std::nextafter(c, 2.0)}) {
          if (u < 1.0) probes.push_back(u);
        }
      }
      for (std::uint32_t j = 0; j < (1u << 16); ++j) {
        const double boundary = std::ldexp(static_cast<double>(j), -16);
        probes.push_back(boundary);
        if (j > 0) probes.push_back(std::nextafter(boundary, 0.0));
      }
      for (const double u : probes) {
        const auto full = static_cast<std::uint64_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin() + 1);
        ASSERT_EQ(workload.sample_rank(u), full)
            << "alpha " << alpha << " keys " << num_keys << " u "
            << std::hexfloat << u;
      }
    }
  }
}

// A key space beyond the sampler's 32-bit rank index is rejected up front
// (e.g. --keys -1 wraps to 2^64 - 1) instead of attempting a multi-GB CDF.
TEST(ZipfWorkload, RejectsKeySpaceBeyondRankIndexWidth) {
  ZipfWorkloadConfig config;
  config.num_keys = std::uint64_t{1} << 32;
  EXPECT_THROW(ZipfWorkload workload(config), std::invalid_argument);
  config.num_keys = std::numeric_limits<std::uint64_t>::max();
  EXPECT_THROW(ZipfWorkload workload(config), std::invalid_argument);
}

// --- CacheTier mechanics ---------------------------------------------------

// Hand-driven tier: one backend pool (also the miss sink) and one cache
// pool, loose QoS so admission never interferes with directory mechanics.
struct TierFixture {
  Simulation sim;
  Datacenter backend_dc;
  ApplicationProvisioner backend;
  Datacenter cache_dc;
  ApplicationProvisioner cache_pool;
  ApptierConfig config;
  CacheTier tier;

  explicit TierFixture(ApptierConfig apptier = make_apptier(),
                       std::size_t cache_vms = 1)
      : backend_dc(sim, small_dc(), std::make_unique<LeastLoadedPlacement>()),
        backend(sim, backend_dc, loose_qos(), pool_config(0.1),
                std::make_unique<KBoundAdmission>()),
        cache_dc(sim, small_dc(), std::make_unique<LeastLoadedPlacement>()),
        cache_pool(sim, cache_dc, loose_qos(),
                   pool_config(0.011),
                   std::make_unique<KBoundAdmission>()),
        config(apptier),
        tier(sim, apptier, loose_qos(), cache_pool, backend, backend, Rng(99),
             nullptr) {
    backend.scale_to(1);
    cache_pool.scale_to(cache_vms);
  }

  static ApptierConfig make_apptier() {
    ApptierConfig config;
    config.enabled = true;
    return config;
  }
  static DatacenterConfig small_dc() {
    DatacenterConfig config;
    config.host_count = 4;
    return config;
  }
  static QosTargets loose_qos() { return QosTargets{10.0, 0.0, 0.5}; }
  static ProvisionerConfig pool_config(double service_estimate) {
    ProvisionerConfig config;
    config.initial_service_time_estimate = service_estimate;
    return config;
  }

  Request request(std::uint64_t id, std::uint64_t key, double demand = 0.1) {
    Request r;
    r.id = id;
    r.arrival_time = sim.now();
    r.service_demand = demand;
    r.key = key;
    return r;
  }
};

TEST(CacheTier, MissFillsOnBackendCompletionThenHits) {
  TierFixture f;
  f.tier.on_request(f.request(1, 7));
  EXPECT_EQ(f.tier.misses(), 1u);
  EXPECT_EQ(f.tier.hits(), 0u);
  // The fill happens when the backend COMPLETES the miss, not at dispatch.
  EXPECT_EQ(f.tier.directory_size(), 0u);
  f.sim.run();
  EXPECT_EQ(f.tier.fills(), 1u);
  EXPECT_EQ(f.tier.directory_size(), 1u);

  f.tier.on_request(f.request(2, 7));
  EXPECT_EQ(f.tier.hits(), 1u);
  f.sim.run();
  EXPECT_DOUBLE_EQ(f.tier.hit_ratio(), 0.5);

  // Keyless requests (key = 0) bypass the directory entirely.
  f.tier.on_request(f.request(3, 0));
  EXPECT_EQ(f.tier.misses(), 2u);
  f.sim.run();
  EXPECT_EQ(f.tier.fills(), 1u);

  // The tier owns end-to-end accounting: all three completions recorded.
  EXPECT_EQ(f.tier.response_time_stats().count(), 3u);
}

TEST(CacheTier, TtlExpiresLazilyAtLookup) {
  ApptierConfig apptier = TierFixture::make_apptier();
  apptier.ttl = 50.0;
  TierFixture f(apptier);

  f.tier.on_request(f.request(1, 7));
  f.sim.run();
  ASSERT_EQ(f.tier.fills(), 1u);

  // Well past the fill's expiry (~ t=0.1 + 50): the resident entry lapses
  // at lookup time, counts as an expiration, and the miss refills.
  f.sim.schedule_at(100.0, [&f] { f.tier.on_request(f.request(2, 7)); });
  f.sim.run();
  EXPECT_EQ(f.tier.expirations(), 1u);
  EXPECT_EQ(f.tier.misses(), 2u);
  EXPECT_EQ(f.tier.fills(), 2u);

  // Within the refreshed TTL: a hit.
  f.sim.schedule_at(120.0, [&f] { f.tier.on_request(f.request(3, 7)); });
  f.sim.run();
  EXPECT_EQ(f.tier.hits(), 1u);
  EXPECT_EQ(f.tier.expirations(), 1u);
}

TEST(CacheTier, LruEvictsColdestAtCapacity) {
  ApptierConfig apptier = TierFixture::make_apptier();
  apptier.cache_capacity_per_vm = 2;  // one cache VM -> capacity 2
  TierFixture f(apptier);
  EXPECT_EQ(f.tier.directory_capacity(), 2u);

  for (std::uint64_t key = 1; key <= 3; ++key) {
    f.tier.on_request(f.request(key, key));
    f.sim.run();
  }
  EXPECT_EQ(f.tier.fills(), 3u);
  EXPECT_EQ(f.tier.evictions(), 1u);
  EXPECT_EQ(f.tier.directory_size(), 2u);

  // Key 1 was the LRU tail when key 3 filled; keys 2 and 3 survive.
  f.tier.on_request(f.request(10, 2));
  f.tier.on_request(f.request(11, 3));
  EXPECT_EQ(f.tier.hits(), 2u);
  f.tier.on_request(f.request(12, 1));
  EXPECT_EQ(f.tier.misses(), 4u);
  f.sim.run();
}

TEST(CacheTier, PoolResizeInvalidatesRemappedSlots) {
  // Two cache VMs: key 3 fills with slot tag 3 % 2 = 1.
  TierFixture f(TierFixture::make_apptier(), 2);
  f.tier.on_request(f.request(1, 3));
  f.sim.run();
  ASSERT_EQ(f.tier.fills(), 1u);

  // Shrinking to one VM remaps every key to slot 0; the resident copy is
  // on the wrong cache VM now and the next lookup misses as an
  // invalidation (not an expiration).
  f.cache_pool.scale_to(1);
  f.sim.run();
  f.tier.on_request(f.request(2, 3));
  EXPECT_EQ(f.tier.invalidations(), 1u);
  EXPECT_EQ(f.tier.expirations(), 0u);
  EXPECT_EQ(f.tier.misses(), 2u);
  f.sim.run();
}

TEST(CacheTier, ScheduledFlushEmptiesDirectory) {
  ApptierConfig apptier = TierFixture::make_apptier();
  apptier.flush_at = {30.0};
  TierFixture f(apptier);
  f.tier.start();  // arms the TTL storm

  f.tier.on_request(f.request(1, 7));
  f.sim.run();  // drains past the flush at t = 30
  EXPECT_EQ(f.tier.flushes(), 1u);
  EXPECT_EQ(f.tier.directory_size(), 0u);

  f.sim.schedule_at(40.0, [&f] { f.tier.on_request(f.request(2, 7)); });
  f.sim.run();
  EXPECT_EQ(f.tier.hits(), 0u);
  EXPECT_EQ(f.tier.misses(), 2u);
}

TEST(CacheTier, WindowFoldDrivesPlanningEwma) {
  TierFixture f;
  // Before any closed window the planner uses the configured assumption.
  EXPECT_DOUBLE_EQ(f.tier.planning_hit_ratio(), CacheTier::kAssumedHitRatio);
  EXPECT_LT(f.tier.fold_window(), 0.0);  // no lookups yet: EWMA unseeded

  // Window 1: one miss, one hit -> ratio 0.5 seeds the EWMA.
  f.tier.on_request(f.request(1, 7));
  f.sim.run();
  f.tier.on_request(f.request(2, 7));
  f.sim.run();
  EXPECT_EQ(f.tier.take_window_arrivals(), 2u);
  EXPECT_DOUBLE_EQ(f.tier.fold_window(), 0.5);
  EXPECT_DOUBLE_EQ(f.tier.planning_hit_ratio(), 0.5);
  EXPECT_EQ(f.tier.take_window_arrivals(), 0u);

  // Window 2: two hits -> ratio 1.0 folds at alpha = 0.3.
  f.tier.on_request(f.request(3, 7));
  f.tier.on_request(f.request(4, 7));
  f.sim.run();
  const double expected = CacheTier::kHitEwmaAlpha * 1.0 +
                          (1.0 - CacheTier::kHitEwmaAlpha) * 0.5;
  EXPECT_DOUBLE_EQ(f.tier.fold_window(), expected);
  EXPECT_DOUBLE_EQ(f.tier.last_window_hit_ratio(), 1.0);
}

TEST(CacheTier, RestoreRejectsDuplicateDirectoryKeys) {
  TierFixture f;
  for (std::uint64_t key = 1; key <= 3; ++key) {
    f.tier.on_request(f.request(key, key));
    f.sim.run();
  }
  ApptierState state;
  f.tier.capture(state);
  ASSERT_EQ(state.directory.size(), 3u);
  {
    TierFixture clean;
    clean.tier.restore(state);
    EXPECT_EQ(clean.tier.directory_size(), 3u);
  }

  // The flat index holds one entry per key: a repeated key is malformed.
  state.directory.push_back(state.directory.front());
  TierFixture fresh;
  EXPECT_THROW(fresh.tier.restore(state), std::invalid_argument);
}

// --- CacheDirectory vs a node-based reference -------------------------------

// The std::list LRU + std::unordered_map index the flat directory replaced,
// kept as the differential oracle: identical operations must yield identical
// lookup outcomes, evictions, drops and LRU order.
class ReferenceDirectory {
 public:
  using Entry = ApptierState::DirectoryEntry;
  using Lookup = CacheDirectory::Lookup;

  Lookup lookup(std::uint64_t key, SimTime now, std::size_t shards) {
    const auto it = index_.find(key);
    if (it == index_.end()) return Lookup::kAbsent;
    if (it->second->expiry <= now) {
      erase(it);
      return Lookup::kExpired;
    }
    if (it->second->slot != key % shards) {
      erase(it);
      return Lookup::kInvalidated;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    return Lookup::kHit;
  }

  std::size_t fill(std::uint64_t key, SimTime expiry, std::size_t shards,
                   std::size_t capacity) {
    if (const auto it = index_.find(key); it != index_.end()) erase(it);
    lru_.push_front(
        Entry{key, expiry, static_cast<std::uint32_t>(key % shards)});
    index_[key] = lru_.begin();
    std::size_t evicted = 0;
    while (lru_.size() > capacity) {
      index_.erase(lru_.back().key);
      lru_.pop_back();
      ++evicted;
    }
    return evicted;
  }

  std::size_t clear() {
    const std::size_t dropped = lru_.size();
    lru_.clear();
    index_.clear();
    return dropped;
  }

  std::size_t size() const { return lru_.size(); }
  std::vector<Entry> capture() const { return {lru_.begin(), lru_.end()}; }

  void restore(const std::vector<Entry>& entries) {
    clear();
    for (const Entry& entry : entries) {
      lru_.push_back(entry);
      index_[entry.key] = std::prev(lru_.end());
    }
  }

 private:
  using Index = std::unordered_map<std::uint64_t, std::list<Entry>::iterator>;
  void erase(Index::const_iterator it) {
    lru_.erase(it->second);
    index_.erase(it);
  }

  std::list<Entry> lru_;
  Index index_;
};

void expect_same_directory(const std::vector<ApptierState::DirectoryEntry>& a,
                           const std::vector<ApptierState::DirectoryEntry>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key) << "position " << i;
    EXPECT_EQ(a[i].expiry, b[i].expiry) << "position " << i;
    EXPECT_EQ(a[i].slot, b[i].slot) << "position " << i;
  }
}

// Seeded random mix over the whole directory surface: skewed lookups (hits,
// lazy TTL expiry, slot invalidations after pool resizes), fills (refills of
// resident keys, LRU evictions, capacity shrinks), TTL-storm flushes, and
// capture -> restore into a fresh directory mid-sequence. Half the keys are
// sequential (the Zipf key space), half arbitrary 64-bit values, so probe
// runs wrap the index and backward-shift deletes move entries across it.
TEST(CacheDirectory, MatchesNodeBasedReferenceUnderRandomOperations) {
  using Lookup = CacheDirectory::Lookup;
  Rng rng(2024);
  std::vector<std::uint64_t> keys;
  for (std::uint64_t key = 1; key <= 96; ++key) keys.push_back(key);
  for (int i = 0; i < 96; ++i) keys.push_back(rng.next() | 1u);
  constexpr std::size_t kCapacityPerShard = 16;
  constexpr SimTime kTtl = 40.0;

  CacheDirectory flat;
  ReferenceDirectory reference;
  std::size_t shards = 2;
  SimTime now = 0.0;
  std::array<std::uint64_t, 4> outcomes{};  // indexed by Lookup
  std::uint64_t evictions = 0;
  std::uint64_t flushes = 0;
  std::uint64_t restores = 0;
  std::vector<ApptierState::DirectoryEntry> captured;
  for (int step = 0; step < 200000; ++step) {
    now += rng.uniform(0.0, 0.5);
    const double u = rng.uniform();  // u^2: low key indices are hot
    const double hot = u * u * static_cast<double>(keys.size());
    const std::uint64_t key = keys[static_cast<std::size_t>(hot)];
    const std::uint64_t op = rng.uniform_int(0, 999);
    if (op < 550) {
      const Lookup got = flat.lookup(key, now, shards);
      ASSERT_EQ(got, reference.lookup(key, now, shards)) << "step " << step;
      ++outcomes[static_cast<std::size_t>(got)];
    } else if (op < 990) {
      const std::size_t capacity = kCapacityPerShard * shards;
      const std::size_t evicted = flat.fill(key, now + kTtl, shards, capacity);
      ASSERT_EQ(evicted, reference.fill(key, now + kTtl, shards, capacity))
          << "step " << step;
      evictions += evicted;
    } else if (op < 996) {
      // Pool resize: remaps slots and, on a shrink, lowers the capacity the
      // next fill evicts down to.
      shards = static_cast<std::size_t>(rng.uniform_int(1, 6));
    } else if (op < 998) {
      ASSERT_EQ(flat.clear(), reference.clear()) << "step " << step;
      ++flushes;
    } else {
      flat.capture(captured);
      expect_same_directory(captured, reference.capture());
      flat = CacheDirectory{};
      flat.restore(captured);
      reference.restore(captured);
      ++restores;
    }
    ASSERT_EQ(flat.size(), reference.size()) << "step " << step;
  }
  flat.capture(captured);
  expect_same_directory(captured, reference.capture());

  // The mix reached every outcome and every structural operation.
  for (const Lookup kind : {Lookup::kAbsent, Lookup::kHit, Lookup::kExpired,
                            Lookup::kInvalidated}) {
    EXPECT_GT(outcomes[static_cast<std::size_t>(kind)], 100u)
        << static_cast<int>(kind);
  }
  EXPECT_GT(evictions, 1000u);
  EXPECT_GT(flushes, 100u);
  EXPECT_GT(restores, 100u);
}

// --- tiered end-to-end runs ------------------------------------------------

// The lambda_miss = lambda * (1 - h) feedback: a tiered run absorbs the
// Zipf hot head in the cache, plans the backend for the miss flow only, and
// records the per-window series.
TEST(TieredRun, LambdaMissFeedbackReachesBackendPlanner) {
  const ScenarioConfig config = tiered_config();
  const RunOutput out = run_scenario(config, PolicySpec::adaptive(), 42);
  const RunMetrics& m = out.metrics;

  // Every generated request passed through the look-aside directory.
  EXPECT_EQ(m.cache_hits + m.cache_misses, m.generated);
  EXPECT_GT(m.cache_hit_ratio, 0.3);
  EXPECT_LT(m.cache_hit_ratio, 1.0);
  EXPECT_GT(m.cache_fills, 0u);
  EXPECT_GT(m.cache_vm_hours, 0.0);

  // The backend planner saw a strictly sub-lambda offered load.
  const double total_rate = config.zipf.base_rate * config.scale;
  EXPECT_GT(m.lambda_miss_mean, 0.0);
  EXPECT_LT(m.lambda_miss_mean, total_rate * (1.0 - 0.3));

  // Per-window warmup series: one sample per planning window, each with a
  // sane hit ratio (predictions are 0 only in zero-rate windows, e.g. the
  // one planned exactly at the horizon).
  ASSERT_FALSE(out.apptier_series.empty());
  std::size_t positive_predictions = 0;
  for (const auto& sample : out.apptier_series) {
    EXPECT_GE(sample.hit_ratio, 0.0);
    EXPECT_LE(sample.hit_ratio, 1.0);
    EXPECT_GE(sample.lambda_miss, 0.0);
    EXPECT_GE(sample.predicted_response, 0.0);
    if (sample.predicted_response > 0.0) ++positive_predictions;
  }
  EXPECT_GT(positive_predictions, out.apptier_series.size() / 2);
  EXPECT_FALSE(out.decisions.empty());

  // Per-tier measured latency: cache hits are an order of magnitude
  // cheaper than backend misses.
  EXPECT_GT(m.cache_avg_response_time, 0.0);
  EXPECT_GT(m.backend_avg_response_time, m.cache_avg_response_time);
}

// The analytic side of a tiered run against the simulated side: the mean of
// the planner's per-window end-to-end prediction (the hit/miss mixture over
// queueing::solve_tandem) bounds the observed mean response from above. The
// model over-predicts because service is nearly deterministic, as the
// paper's M/M/1/k model does; a solver or mixture bug leaves [1.1, 1.5].
TEST(TieredRun, TandemPredictionBoundsObservedEndToEnd) {
  for (const std::uint64_t seed : {42u, 7u}) {
    const RunOutput out =
        run_scenario(tiered_config(), PolicySpec::adaptive(), seed);
    double predicted = 0.0;
    std::size_t windows = 0;
    for (const auto& sample : out.apptier_series) {
      if (sample.predicted_response <= 0.0) continue;
      predicted += sample.predicted_response;
      ++windows;
    }
    ASSERT_GT(windows, 0u);
    ASSERT_GT(out.metrics.avg_response_time, 0.0);
    const double ratio = predicted / static_cast<double>(windows) /
                         out.metrics.avg_response_time;
    SCOPED_TRACE(testing::Message() << "seed " << seed << " ratio " << ratio);
    EXPECT_GE(ratio, 1.1);
    EXPECT_LE(ratio, 1.5);
  }
}

// --- snapshot/restore bit-identity -----------------------------------------

// Snapshot a tiered run with pending chaos (a cache-VM crash and a TTL
// storm) both BEFORE the chaos fires and mid-storm AFTER the flush; the
// restored world must re-arm the pending events and finish bit-identically.
TEST(TieredClone, SnapshotRestoreIsBitIdenticalIncludingMidTtlStorm) {
  ScenarioConfig config = tiered_config();
  config.apptier.cache_crash_at = {5400.0};
  config.apptier.flush_at = {7200.0};

  const RunOutput full = run_scenario(config, PolicySpec::adaptive(), 42);
  ASSERT_EQ(full.metrics.cache_flushes, 1u);
  ASSERT_GT(full.metrics.cache_invalidations, 0u);

  for (const SimTime snapshot_time : {3601.7, 7300.9}) {
    const RunOutput resumed =
        clone_continue(config, PolicySpec::adaptive(), 42, snapshot_time);
    expect_same_metrics(resumed.metrics, full.metrics, {"wall_seconds"});
    ASSERT_EQ(resumed.apptier_series.size(), full.apptier_series.size())
        << "snapshot at " << snapshot_time;
    for (std::size_t i = 0; i < full.apptier_series.size(); ++i) {
      EXPECT_EQ(resumed.apptier_series[i].t, full.apptier_series[i].t);
      EXPECT_EQ(resumed.apptier_series[i].hit_ratio,
                full.apptier_series[i].hit_ratio);
      EXPECT_EQ(resumed.apptier_series[i].lambda_miss,
                full.apptier_series[i].lambda_miss);
      EXPECT_EQ(resumed.apptier_series[i].predicted_response,
                full.apptier_series[i].predicted_response);
    }
    EXPECT_EQ(resumed.decisions.size(), full.decisions.size());
  }
}

// --- disk checkpoints ------------------------------------------------------

// The v3 codec serializes the optional apptier section; a checkpoint of a
// tiered world (with a pending TTL storm) loads and continues bit-identically.
TEST(TieredCheckpoint, DiskRoundtripContinuesBitIdentical) {
  ScenarioConfig config = tiered_config();
  config.apptier.flush_at = {7200.0};
  const RunOutput full = run_scenario(config, PolicySpec::adaptive(), 42);

  World world(config, PolicySpec::adaptive(), 42, std::nullopt);
  world.start();
  world.run_to(5000.5);
  const WorldState state = world.snapshot();
  ASSERT_TRUE(state.apptier.has_value());
  ASSERT_EQ(state.apptier->flush_events.size(), 1u);
  EXPECT_TRUE(state.apptier->flush_events[0].has_value());  // storm pending

  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  write_checkpoint(buffer, state);
  const WorldState loaded = read_checkpoint(buffer);
  ASSERT_TRUE(loaded.apptier.has_value());
  EXPECT_EQ(loaded.apptier->directory.size(), state.apptier->directory.size());
  EXPECT_EQ(loaded.apptier->hits, state.apptier->hits);
  EXPECT_EQ(loaded.apptier->series.size(), state.apptier->series.size());
  ASSERT_EQ(loaded.apptier->flush_events.size(), 1u);
  EXPECT_TRUE(loaded.apptier->flush_events[0].has_value());

  World resumed(config, PolicySpec::adaptive(), 42, loaded);
  resumed.run_to(config.horizon);
  expect_same_metrics(resumed.finish().metrics, full.metrics, {"wall_seconds"});
}

// Single-tier worlds never carry the section, and the codec rejects
// versions outside [kMinVersion, kVersion] instead of misdecoding.
TEST(TieredCheckpoint, UntieredOmitsApptierAndBadVersionsAreRejected) {
  ScenarioConfig config = web_scenario(0.02);
  config.horizon = 600.0;
  config.web.horizon = config.horizon;
  World world(config, PolicySpec::adaptive(), 3, std::nullopt);
  world.start();
  world.run_to(300.0);
  const WorldState state = world.snapshot();
  EXPECT_FALSE(state.apptier.has_value());

  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  write_checkpoint(buffer, state);
  const std::string bytes = buffer.str();

  // Sanity: the unpatched buffer loads.
  {
    std::stringstream in(std::ios::in | std::ios::out | std::ios::binary);
    in << bytes;
    EXPECT_FALSE(read_checkpoint(in).apptier.has_value());
  }

  // The version word sits right after the 4-byte magic.
  for (const std::uint32_t bad_version : {0u, 99u}) {
    std::string patched = bytes;
    std::memcpy(patched.data() + 4, &bad_version, sizeof(bad_version));
    std::stringstream in(std::ios::in | std::ios::out | std::ios::binary);
    in << patched;
    EXPECT_THROW(read_checkpoint(in), std::runtime_error)
        << "version " << bad_version;
  }
}

// Length prefixes are untrusted input: inflating the directory's element
// count in a valid tiered checkpoint must surface as the documented
// std::runtime_error (the stream runs out), not as std::length_error or
// std::bad_alloc from reserving the claimed size up front.
TEST(TieredCheckpoint, InflatedDirectoryLengthPrefixIsRejected) {
  const ScenarioConfig config = tiered_config();
  World world(config, PolicySpec::adaptive(), 42, std::nullopt);
  world.start();
  world.run_to(3000.5);
  const WorldState state = world.snapshot();
  ASSERT_TRUE(state.apptier.has_value());
  const std::vector<ApptierState::DirectoryEntry>& directory =
      state.apptier->directory;
  ASSERT_FALSE(directory.empty());

  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  write_checkpoint(buffer, state);
  const std::string bytes = buffer.str();

  // The prefix is the u64 count right before the first entry's key/expiry.
  const std::uint64_t count = directory.size();
  std::string needle(3 * sizeof(std::uint64_t), '\0');
  std::memcpy(needle.data(), &count, sizeof(count));
  std::memcpy(needle.data() + 8, &directory.front().key, sizeof(std::uint64_t));
  std::memcpy(needle.data() + 16, &directory.front().expiry, sizeof(double));
  const std::size_t at = bytes.find(needle);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(bytes.find(needle, at + 1), std::string::npos);

  for (const std::uint64_t inflated :
       {count + 1, std::uint64_t{1} << 32, std::uint64_t{1} << 62,
        std::numeric_limits<std::uint64_t>::max()}) {
    std::string patched = bytes;
    std::memcpy(patched.data() + at, &inflated, sizeof(inflated));
    std::stringstream in(std::ios::in | std::ios::out | std::ios::binary);
    in << patched;
    EXPECT_THROW(read_checkpoint(in), std::runtime_error)
        << "count " << inflated;
  }
}

}  // namespace
}  // namespace cloudprov
