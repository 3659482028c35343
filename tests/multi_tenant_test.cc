// Multi-tenant sharded scale-out: determinism and contention tests.
//
// The load-bearing test here is the golden bit-identity check: a sharded
// run (--shards >= 2, worker threads + barrier) must produce *byte-identical*
// per-tenant metrics and span CSVs to the sequential run (--shards 1) on the
// same tenant set — the conservative-PDES correctness argument made
// executable, following the kernel_golden_test.cc pattern.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "experiment/multi_tenant.h"
#include "metrics_equality.h"
#include "profile/wall_profiler.h"
#include "sim/shard_executor.h"
#include "telemetry/export.h"

namespace cloudprov {
namespace {

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::uint64_t double_bits(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

std::uint64_t span_csv_hash(const TenantResult& tenant) {
  EXPECT_NE(tenant.telemetry, nullptr);
  EXPECT_NE(tenant.telemetry->spans(), nullptr);
  std::ostringstream out;
  write_span_csv(out, *tenant.telemetry->spans());
  return fnv1a(out.str());
}

/// Mixed web/BoT population under a deliberately tight shared capacity, so
/// the arbiter actually clips (contention is part of what must replay
/// identically across shard counts).
MultiTenantConfig golden_config() {
  MultiTenantConfig config;
  config.tenants = 10;
  config.seed = 2011;
  config.horizon = 1500.0;
  config.window = 60.0;
  config.bot_fraction = 0.3;
  config.tenant_scale = 0.004;
  config.capacity = 20;
  return config;
}

MultiTenantConfig market_config() {
  MultiTenantConfig config;
  config.tenants = 6;
  config.seed = 77;
  config.horizon = 1200.0;
  config.window = 60.0;
  config.bot_fraction = 0.0;
  config.tenant_scale = 0.004;
  config.capacity = 12;
  config.market_enabled = true;
  config.spot_fraction = 0.5;
  config.bid = 0.7;
  return config;
}

// --- shard executor ------------------------------------------------------

TEST(ShardExecutor, CommitScheduleIdenticalAcrossShardCounts) {
  constexpr std::size_t kUnits = 5;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{3}}) {
    std::vector<std::vector<double>> advances(kUnits);
    std::vector<double> commits;
    const std::uint64_t windows = run_sharded_windows(
        workers, kUnits, 60.0, 450.0,
        [&](std::size_t, std::size_t unit, SimTime t) {
          advances[unit].push_back(t);
        },
        [&](SimTime t) { commits.push_back(t); });
    EXPECT_EQ(windows, 7u) << workers;  // boundaries 60..420 are < 450
    const std::vector<double> expected_commits{60,  120, 180, 240,
                                               300, 360, 420};
    EXPECT_EQ(commits, expected_commits) << workers;
    std::vector<double> expected_advances = expected_commits;
    expected_advances.push_back(450.0);  // final segment, no commit
    for (std::size_t unit = 0; unit < kUnits; ++unit) {
      EXPECT_EQ(advances[unit], expected_advances) << workers << "/" << unit;
    }
  }
}

TEST(ShardExecutor, HorizonOnBoundaryCommitsOnlyBelowHorizon) {
  std::vector<double> commits;
  const std::uint64_t windows = run_sharded_windows(
      1, 1, 60.0, 180.0, [](std::size_t, std::size_t, SimTime) {},
      [&](SimTime t) { commits.push_back(t); });
  EXPECT_EQ(windows, 2u);
  EXPECT_EQ(commits, (std::vector<double>{60, 120}));
}

// Every unit is advanced exactly once to every boundary and to the horizon,
// by some worker, and a commit sees every unit already at its boundary —
// including with more workers than units, where some homes are empty.
TEST(ShardExecutor, EveryUnitAdvancesOncePerBoundary) {
  const std::vector<double> expected{60, 120, 180, 240, 300, 360, 420, 450};
  for (const std::size_t workers : {1u, 2u, 3u, 4u}) {
    for (const std::size_t units : {1u, 3u, 7u}) {
      SCOPED_TRACE(std::to_string(workers) + " workers, " +
                   std::to_string(units) + " units");
      // Unit u's row is written only by the worker advancing u this window;
      // the barrier orders it before the commit and the next window.
      std::vector<std::vector<double>> advances(units);
      std::vector<std::size_t> bad_workers;  // stays empty
      std::size_t commits = 0;
      std::size_t stale_commits = 0;
      run_sharded_windows(
          workers, units, 60.0, 450.0,
          [&](std::size_t worker, std::size_t unit, SimTime t) {
            if (worker >= workers) bad_workers.push_back(worker);
            advances[unit].push_back(t);
          },
          [&](SimTime t) {
            ++commits;
            for (const std::vector<double>& row : advances) {
              if (row.size() != commits || row.back() != t) ++stale_commits;
            }
          });
      EXPECT_EQ(commits, 7u);
      EXPECT_EQ(stale_commits, 0u);
      EXPECT_TRUE(bad_workers.empty());
      for (std::size_t unit = 0; unit < units; ++unit) {
        EXPECT_EQ(advances[unit], expected) << "unit " << unit;
      }
    }
  }
}

// A worker that finished its own units claims the unfinished ones of a
// worker that is still busy. Unit 1 (worker 1's home) holds its worker until
// unit 3, also worker 1's, has advanced; only worker 0 can advance unit 3
// meanwhile. Unit 0 waits until unit 1 has started, so worker 1 has claimed
// unit 1 before worker 0 runs out of work whichever thread starts first.
// Every wait is bounded, so an executor without claiming fails instead of
// hanging.
TEST(ShardExecutor, IdleWorkerClaimsAnotherWorkersUnit) {
  constexpr auto kBound = std::chrono::seconds(10);
  std::mutex mutex;
  std::condition_variable changed;
  bool unit1_started = false;
  bool unit3_advanced = false;
  const auto wait_for = [&](const bool& flag) {
    std::unique_lock<std::mutex> lock(mutex);
    return changed.wait_for(lock, kBound, [&] { return flag; });
  };
  const auto raise = [&](bool& flag) {
    {
      std::scoped_lock<std::mutex> lock(mutex);
      flag = true;
    }
    changed.notify_all();
  };

  std::vector<std::vector<std::size_t>> advanced_by(4);  // per unit
  bool unit0_waited = false;
  bool unit1_waited = false;
  run_sharded_windows(
      2, 4, 60.0, 120.0,
      [&](std::size_t worker, std::size_t unit, SimTime) {
        advanced_by[unit].push_back(worker);
        if (advanced_by[unit].size() > 1) return;  // only the first window
        if (unit == 0) unit0_waited = wait_for(unit1_started);
        if (unit == 1) {
          raise(unit1_started);
          unit1_waited = wait_for(unit3_advanced);
        }
        if (unit == 3) raise(unit3_advanced);
      },
      [](SimTime) {});

  EXPECT_TRUE(unit0_waited);
  EXPECT_TRUE(unit1_waited);
  ASSERT_EQ(advanced_by[3].size(), 2u);  // the window and the horizon
  EXPECT_EQ(advanced_by[3].front(), 0u)
      << "unit 3 waited for its home worker instead of being claimed";
  EXPECT_EQ(advanced_by[1].front(), 1u);
  for (const std::vector<std::size_t>& workers : advanced_by) {
    EXPECT_EQ(workers.size(), 2u);
  }
}

// --- capacity arbiter ----------------------------------------------------

TEST(CapacityArbiter, GrantsInIdOrderUnderContention) {
  CapacityArbiter arbiter(10, 0, 3);
  EXPECT_EQ(arbiter.arbitrate({5, 5, 5}),
            (std::vector<std::size_t>{5, 5, 0}));
  EXPECT_EQ(arbiter.clips(), 1u);
  EXPECT_EQ(arbiter.denied(), 5u);

  // Tenant 0 shrinks: the freed slots go to the lowest starved id.
  EXPECT_EQ(arbiter.arbitrate({2, 5, 5}),
            (std::vector<std::size_t>{2, 5, 3}));
  EXPECT_EQ(arbiter.clips(), 2u);
  EXPECT_EQ(arbiter.denied(), 7u);
  EXPECT_EQ(arbiter.peak_granted(), 10u);
}

TEST(CapacityArbiter, PerTenantCapBindsBeforeSharedCapacity) {
  CapacityArbiter arbiter(10, 3, 3);
  EXPECT_EQ(arbiter.arbitrate({5, 1, 5}),
            (std::vector<std::size_t>{3, 1, 3}));
  EXPECT_EQ(arbiter.clips(), 2u);
  EXPECT_EQ(arbiter.denied(), 4u);
  EXPECT_EQ(arbiter.peak_granted(), 7u);
}

// --- profiler drain (per-shard instances merged at the barrier) ----------

TEST(WallProfilerDrain, MovesTotalsAndPathsThenZeroes) {
  WallProfiler worker(1.0);
  WallProfiler run(1.0);
  worker.begin(ProfileCategory::kShardRun);
  worker.end(ProfileCategory::kShardRun);
  worker.begin(ProfileCategory::kShardBarrier);
  worker.end(ProfileCategory::kShardBarrier);
  worker.drain_into(run);

  const auto run_idx = static_cast<std::size_t>(ProfileCategory::kShardRun);
  EXPECT_EQ(worker.totals()[run_idx].count, 0u);
  EXPECT_TRUE(worker.folded().empty());
  EXPECT_EQ(run.totals()[run_idx].count, 1u);
  const auto wait_idx =
      static_cast<std::size_t>(ProfileCategory::kShardBarrier);
  EXPECT_EQ(run.totals()[wait_idx].count, 1u);
  EXPECT_EQ(run.folded().size(), 2u);

  // Draining again is a no-op; a second batch accumulates.
  worker.drain_into(run);
  EXPECT_EQ(run.totals()[run_idx].count, 1u);
  worker.begin(ProfileCategory::kShardRun);
  worker.end(ProfileCategory::kShardRun);
  worker.drain_into(run);
  EXPECT_EQ(run.totals()[run_idx].count, 2u);
}

// A claimed tenant's world runs on the claiming worker's profiler: after
// set_profiler, the kernel's engine.run scopes and the policy's decision
// scopes nested in them land on the new profiler only, and handing the
// world back restores its home profiler.
TEST(WallProfilerHandOff, WorldScopesFollowSetProfiler) {
  WallProfiler home(1.0);
  WallProfiler claimer(1.0);
  World world(web_scenario(0.002), PolicySpec::adaptive(), 7, std::nullopt,
              &home);
  world.start();
  world.run_to(600.0);
  world.set_profiler(&claimer);
  world.run_to(1200.0);
  world.set_profiler(&home);
  world.run_to(1800.0);

  const auto count = [](const WallProfiler& profiler,
                        ProfileCategory category) {
    return profiler.totals()[static_cast<std::size_t>(category)].count;
  };
  EXPECT_EQ(count(home, ProfileCategory::kWorldBuild), 1u);
  EXPECT_EQ(count(home, ProfileCategory::kEngineRun), 2u);
  EXPECT_EQ(count(claimer, ProfileCategory::kWorldBuild), 0u);
  EXPECT_EQ(count(claimer, ProfileCategory::kEngineRun), 1u);
  EXPECT_GT(count(claimer, ProfileCategory::kPolicyDecision), 0u);
}

// --- tenant population ---------------------------------------------------

TEST(MultiTenant, SpecsAreDeterministicAndMixed) {
  MultiTenantConfig config = golden_config();
  config.tenants = 16;
  config.bot_fraction = 0.5;
  const std::vector<TenantSpec> first = multi_tenant_specs(config);
  const std::vector<TenantSpec> second = multi_tenant_specs(config);
  ASSERT_EQ(first.size(), 16u);
  std::size_t bots = 0;
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].id, i);
    EXPECT_EQ(first[i].seed, second[i].seed);
    EXPECT_EQ(first[i].scenario.workload, second[i].scenario.workload);
    EXPECT_EQ(double_bits(first[i].scenario.scale),
              double_bits(second[i].scenario.scale));
    EXPECT_EQ(double_bits(first[i].scenario.qos.max_response_time),
              double_bits(second[i].scenario.qos.max_response_time));
    if (first[i].scenario.workload == WorkloadKind::kScientific) ++bots;
  }
  EXPECT_GT(bots, 0u);
  EXPECT_LT(bots, first.size());
}

// --- the golden: sharded == sequential, bit for bit ----------------------

TEST(MultiTenantGolden, ShardedMatchesSequentialBitIdentically) {
  const MultiTenantConfig config = golden_config();
  MultiTenantOptions sequential;
  sequential.shards = 1;
  sequential.traced_tenants = 2;
  const MultiTenantResult base = run_multi_tenant(config, sequential);
  ASSERT_EQ(base.tenants.size(), config.tenants);
  EXPECT_EQ(base.windows, 24u);  // 1500 s / 60 s, final boundary == horizon

  std::vector<std::uint64_t> base_span_hashes;
  for (std::size_t i = 0; i < sequential.traced_tenants; ++i) {
    base_span_hashes.push_back(span_csv_hash(base.tenants[i]));
  }

  for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
    MultiTenantOptions options = sequential;
    options.shards = shards;
    const MultiTenantResult sharded = run_multi_tenant(config, options);
    ASSERT_EQ(sharded.tenants.size(), base.tenants.size());
    EXPECT_EQ(sharded.shards, shards);
    EXPECT_EQ(sharded.windows, base.windows);
    for (std::size_t i = 0; i < base.tenants.size(); ++i) {
      SCOPED_TRACE("tenant " + std::to_string(i) + " shards " +
                   std::to_string(shards));
      expect_same_metrics(base.tenants[i].metrics, sharded.tenants[i].metrics,
                          {"wall_seconds"});
    }
    for (std::size_t i = 0; i < sequential.traced_tenants; ++i) {
      EXPECT_EQ(span_csv_hash(sharded.tenants[i]), base_span_hashes[i])
          << "span CSV diverged for tenant " << i << " at " << shards
          << " shards";
    }
    // Arbitration history and the aggregate roll up identically too
    // (wall_seconds is the only legitimately shard-dependent output).
    EXPECT_EQ(sharded.grant_clips, base.grant_clips);
    EXPECT_EQ(sharded.instances_denied, base.instances_denied);
    EXPECT_EQ(sharded.peak_granted, base.peak_granted);
    EXPECT_EQ(sharded.simulated_events, base.simulated_events);
    expect_same_metrics(sharded.aggregate, base.aggregate, {"wall_seconds"});
  }
}

TEST(MultiTenantGolden, SharedMarketRunMatchesAcrossShardCounts) {
  const MultiTenantConfig config = market_config();
  MultiTenantOptions sequential;
  const MultiTenantResult base = run_multi_tenant(config, sequential);

  // One shared spot trajectory: every tenant observes the same price path.
  ASSERT_GT(base.tenants.size(), 1u);
  const double mean0 = base.tenants.front().metrics.spot_price_mean;
  EXPECT_GT(mean0, 0.0);
  for (const TenantResult& tenant : base.tenants) {
    EXPECT_EQ(double_bits(tenant.metrics.spot_price_mean),
              double_bits(mean0));
  }

  MultiTenantOptions threaded;
  threaded.shards = 3;
  const MultiTenantResult sharded = run_multi_tenant(config, threaded);
  for (std::size_t i = 0; i < base.tenants.size(); ++i) {
    SCOPED_TRACE("tenant " + std::to_string(i));
    expect_same_metrics(base.tenants[i].metrics, sharded.tenants[i].metrics,
                        {"wall_seconds"});
  }
}

// --- contention + aggregate sanity ---------------------------------------

TEST(MultiTenant, TightCapacityProducesContention) {
  MultiTenantConfig config = golden_config();
  config.horizon = 900.0;
  config.tenant_scale = 0.03;        // hot tenants...
  config.capacity = config.tenants;  // ...on ~1 slot each: heavy contention
  const MultiTenantResult result = run_multi_tenant(config, {});

  EXPECT_GT(result.instances_denied, 0u);
  EXPECT_GT(result.grant_clips, 0u);
  EXPECT_LE(result.peak_granted, result.capacity);
  std::uint64_t tenant_clips = 0;
  for (const TenantResult& tenant : result.tenants) {
    tenant_clips += tenant.metrics.capacity_clips;
  }
  EXPECT_GT(tenant_clips, 0u);

  // Conservation: the aggregate is a faithful rollup.
  EXPECT_EQ(result.aggregate.accepted + result.aggregate.rejected,
            result.aggregate.generated);
  EXPECT_GT(result.aggregate.generated, 0u);
  EXPECT_GT(result.simulated_events, 0u);
  EXPECT_EQ(result.aggregate.simulated_events, result.simulated_events);
}

TEST(MultiTenant, ProfiledShardedRunIsNeutralAndAttributed) {
  MultiTenantConfig config = golden_config();
  config.tenants = 6;
  config.horizon = 600.0;
  config.capacity = 12;

  MultiTenantOptions plain;
  plain.shards = 2;
  const MultiTenantResult base = run_multi_tenant(config, plain);

  WallProfiler profiler(/*snapshot_interval_seconds=*/0.01);
  MultiTenantOptions profiled = plain;
  profiled.profiler = &profiler;
  const MultiTenantResult observed = run_multi_tenant(config, profiled);

  // Profiling is output-only even in sharded mode.
  for (std::size_t i = 0; i < base.tenants.size(); ++i) {
    SCOPED_TRACE("tenant " + std::to_string(i));
    expect_same_metrics(base.tenants[i].metrics, observed.tenants[i].metrics,
                        {"wall_seconds"});
  }

  // The shard workers' private profilers were drained into the run-level
  // one: shard advance scopes, barrier waits, and the serial arbiter
  // rounds (windows + the t=0 round) all show up.
  const auto& totals = profiler.totals();
  EXPECT_GT(
      totals[static_cast<std::size_t>(ProfileCategory::kShardRun)].count, 0u);
  EXPECT_GT(
      totals[static_cast<std::size_t>(ProfileCategory::kShardBarrier)].count,
      0u);
  EXPECT_EQ(totals[static_cast<std::size_t>(ProfileCategory::kArbiter)].count,
            observed.windows + 1);
  EXPECT_GT(profiler.covered_seconds(), 0.0);

  // Every tenant's kernel runs once per window and once to the horizon,
  // each run an engine.run scope inside its worker's shard.run, and the
  // policy's decisions nest inside those.
  EXPECT_EQ(
      totals[static_cast<std::size_t>(ProfileCategory::kEngineRun)].count,
      config.tenants * (observed.windows + 1));
  // Each tenant's finish() is a world.finish scope on its shard's profiler,
  // which is drained after the tenants finish.
  EXPECT_EQ(
      totals[static_cast<std::size_t>(ProfileCategory::kWorldFinish)].count,
      config.tenants);
  const std::vector<ProfileCategory> decision_path{
      ProfileCategory::kShardRun, ProfileCategory::kEngineRun,
      ProfileCategory::kPolicyDecision};
  EXPECT_TRUE(std::ranges::any_of(
      profiler.folded(), [&](const WallProfiler::PathStat& row) {
        return row.path == decision_path;
      }));
}

// --- per-shard telemetry batching ----------------------------------------

// The fleet window series is accumulated shard-locally and drained at the
// barrier: one row per commit, cumulative sums equal to the final per-tenant
// totals, and — like everything else — bit-identical across shard counts.
TEST(MultiTenant, FleetWindowSeriesSumsToTotalsAcrossShardCounts) {
  const MultiTenantConfig config = golden_config();
  const MultiTenantResult base = run_multi_tenant(config, {});
  // windows counts barrier commits; the executor never commits at the
  // horizon itself, so the final window drains as one extra tail row.
  ASSERT_EQ(base.window_series.size(), base.windows + 1);
  EXPECT_EQ(base.window_series.back().t, config.horizon);

  FleetWindowSample cumulative;
  for (const FleetWindowSample& row : base.window_series) {
    EXPECT_GT(row.t, 0.0);
    cumulative.generated += row.generated;
    cumulative.accepted += row.accepted;
    cumulative.rejected += row.rejected;
    cumulative.completed += row.completed;
    cumulative.qos_violations += row.qos_violations;
  }
  EXPECT_EQ(cumulative.generated, base.aggregate.generated);
  EXPECT_EQ(cumulative.accepted, base.aggregate.accepted);
  EXPECT_EQ(cumulative.rejected, base.aggregate.rejected);
  EXPECT_EQ(cumulative.completed, base.aggregate.completed);
  EXPECT_EQ(cumulative.qos_violations, base.aggregate.qos_violations);

  for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
    MultiTenantOptions options;
    options.shards = shards;
    const MultiTenantResult sharded = run_multi_tenant(config, options);
    ASSERT_EQ(sharded.window_series.size(), base.window_series.size())
        << shards << " shards";
    for (std::size_t i = 0; i < base.window_series.size(); ++i) {
      SCOPED_TRACE("window " + std::to_string(i) + " shards " +
                   std::to_string(shards));
      const FleetWindowSample& a = base.window_series[i];
      const FleetWindowSample& b = sharded.window_series[i];
      EXPECT_EQ(a.t, b.t);
      EXPECT_EQ(a.generated, b.generated);
      EXPECT_EQ(a.accepted, b.accepted);
      EXPECT_EQ(a.rejected, b.rejected);
      EXPECT_EQ(a.completed, b.completed);
      EXPECT_EQ(a.qos_violations, b.qos_violations);
      EXPECT_EQ(a.cache_hits, b.cache_hits);
      EXPECT_EQ(a.cache_misses, b.cache_misses);
    }
  }
}

// Zipf tenants with the cache tier enabled ride the sharded path: specs are
// deterministic, tier state lives on each tenant's own kernel, and per-tenant
// results (including every cache_* counter) stay bit-identical across shard
// counts.
TEST(MultiTenantGolden, TieredZipfTenantsMatchAcrossShardCounts) {
  MultiTenantConfig config = golden_config();
  config.tenants = 8;
  config.zipf_fraction = 0.5;
  config.zipf_tiers = true;
  config.horizon = 900.0;

  std::size_t zipf_tenants = 0;
  for (const TenantSpec& spec : multi_tenant_specs(config)) {
    if (spec.scenario.workload == WorkloadKind::kZipf) {
      ++zipf_tenants;
      EXPECT_TRUE(spec.scenario.apptier.enabled);
    }
  }
  ASSERT_GT(zipf_tenants, 0u);
  ASSERT_LT(zipf_tenants, config.tenants);

  const MultiTenantResult base = run_multi_tenant(config, {});
  EXPECT_GT(base.aggregate.cache_hits, 0u);
  std::uint64_t series_hits = 0;
  for (const FleetWindowSample& row : base.window_series) {
    series_hits += row.cache_hits;
  }
  EXPECT_EQ(series_hits, base.aggregate.cache_hits);

  MultiTenantOptions threaded;
  threaded.shards = 3;
  const MultiTenantResult sharded = run_multi_tenant(config, threaded);
  for (std::size_t i = 0; i < base.tenants.size(); ++i) {
    SCOPED_TRACE("tenant " + std::to_string(i));
    expect_same_metrics(base.tenants[i].metrics, sharded.tenants[i].metrics,
                        {"wall_seconds"});
  }
}

TEST(MultiTenant, TenantCsvHasOneRowPerTenant) {
  MultiTenantConfig config = golden_config();
  config.tenants = 4;
  config.horizon = 300.0;
  const MultiTenantResult result = run_multi_tenant(config, {});
  std::ostringstream out;
  write_tenant_csv(out, result);
  const std::string csv = out.str();
  std::size_t rows = 0;
  for (const char c : csv) rows += c == '\n' ? 1u : 0u;
  EXPECT_EQ(rows, config.tenants + 1);  // header + one row per tenant
  EXPECT_NE(csv.find("tenant,kind,policy,seed,"), std::string::npos);
}

// The rollup sums every counter the schema visits, not a hand-picked subset:
// a tiered Zipf population exercises the cache counters too.
TEST(MultiTenant, AggregateSumsEveryCounter) {
  MultiTenantConfig config = golden_config();
  config.tenants = 3;
  config.bot_fraction = 0.0;
  config.zipf_fraction = 1.0;
  config.zipf_tiers = true;
  config.horizon = 900.0;
  const MultiTenantResult result = run_multi_tenant(config, {});

  std::vector<std::uint64_t> sums;
  for (const TenantResult& tenant : result.tenants) {
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
  for_each_metric(result.aggregate, [&](const char* name, const auto& value,
                                        MetricDirection, MetricGroup) {
    if constexpr (std::is_same_v<std::decay_t<decltype(value)>,
                                 std::uint64_t>) {
      const std::uint64_t sum = sums[i++];
      const std::string_view metric(name);
      if (std::string_view(name) == "seed") return;
      EXPECT_EQ(value, sum) << name;
    }
  });
  EXPECT_EQ(result.aggregate.seed, config.seed);
  EXPECT_EQ(result.aggregate.simulated_events, result.simulated_events);
  EXPECT_GT(result.aggregate.cache_expirations, 0u);
}

/// Fails once per double that is nonzero in some tenant but 0 in
/// `aggregate`, except the percentiles MultiTenantResult::aggregate lists as
/// not aggregatable.
void expect_doubles_roll_up(const std::vector<TenantResult>& tenants,
                            const RunMetrics& aggregate) {
  std::set<std::string_view> carried;
  for (const TenantResult& tenant : tenants) {
    for_each_metric(tenant.metrics, [&](const char* name, const auto& value,
                                        MetricDirection, MetricGroup) {
      if constexpr (std::is_same_v<std::decay_t<decltype(value)>, double>) {
        if (value != 0.0) carried.insert(name);
      }
    });
  }
  const std::set<std::string_view> not_aggregatable{"p95_response_time",
                                                    "p99_response_time"};
  for_each_metric(aggregate, [&](const char* name, const auto& value,
                                 MetricDirection, MetricGroup) {
    if constexpr (std::is_same_v<std::decay_t<decltype(value)>, double>) {
      if (carried.contains(name) && !not_aggregatable.contains(name)) {
        EXPECT_NE(value, 0.0) << name;
      }
    }
  });
}

// Every double has a rollup rule. Multi-tenant runs enable neither faults
// nor the drift and SLO monitors, so synthetic tenants carry a value in
// every field the run leaves 0; wall_seconds is the run's, set by
// run_multi_tenant.
TEST(MultiTenant, RollupCarriesEveryDoubleButThePercentiles) {
  std::vector<TenantResult> tenants(3);
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    for_each_metric(tenants[t].metrics, [&](const char* name, auto& value,
                                            MetricDirection, MetricGroup) {
      if (std::string_view(name) == "wall_seconds") return;
      value = static_cast<std::remove_cvref_t<decltype(value)>>(t + 1);
    });
  }
  expect_doubles_roll_up(tenants, tenant_rollup(tenants));
  expect_same_metrics(tenant_rollup({}), RunMetrics{}, {"wall_seconds"});

  // Two tenants of two completions each, {1, 1} and {3, 3}: the pooled
  // sample deviation is that of {1, 1, 3, 3}; mttr_mean weighs by
  // recoveries and mttr_max takes the larger.
  std::vector<TenantResult> pair(2);
  pair[0].metrics.completed = 2;
  pair[0].metrics.avg_response_time = 1.0;
  pair[0].metrics.recoveries = 1;
  pair[0].metrics.mttr_mean = 10.0;
  pair[0].metrics.mttr_max = 12.0;
  pair[1].metrics.completed = 2;
  pair[1].metrics.avg_response_time = 3.0;
  pair[1].metrics.recoveries = 3;
  pair[1].metrics.mttr_mean = 20.0;
  pair[1].metrics.mttr_max = 30.0;
  const RunMetrics rollup = tenant_rollup(pair);
  EXPECT_DOUBLE_EQ(rollup.avg_response_time, 2.0);
  EXPECT_DOUBLE_EQ(rollup.std_response_time, std::sqrt(4.0 / 3.0));
  EXPECT_DOUBLE_EQ(rollup.mttr_mean, 17.5);
  EXPECT_DOUBLE_EQ(rollup.mttr_max, 30.0);
}

// The same holds on a run: tiered Zipf and web tenants on a shared market.
TEST(MultiTenant, RunAggregateCarriesEveryTenantDouble) {
  MultiTenantConfig config = market_config();
  config.tenants = 4;
  config.zipf_fraction = 0.5;
  config.zipf_tiers = true;
  config.horizon = 900.0;
  const MultiTenantResult result = run_multi_tenant(config, {});
  EXPECT_GT(result.aggregate.cache_avg_instances, 0.0);
  EXPECT_GT(result.aggregate.std_response_time, 0.0);
  expect_doubles_roll_up(result.tenants, result.aggregate);
}

// --- pinned outputs: a mixed population at shards 1 and 3 ---------------

/// Web, BoT and tiered-Zipf tenants under a shared capacity tight enough
/// that the arbiter clips every few windows.
MultiTenantConfig mixed_config() {
  MultiTenantConfig config;
  config.tenants = 9;
  config.seed = 2026;
  config.horizon = 1800.0;
  config.window = 60.0;
  config.bot_fraction = 0.3;
  config.zipf_fraction = 0.3;
  config.zipf_tiers = true;
  config.tenant_scale = 0.05;
  config.capacity = 24;
  return config;
}

/// FNV-1a over every metric's name and bits, in visit order, except
/// wall_seconds (the host's) and simulated_events (the kernels' count).
std::uint64_t metrics_hash(const RunMetrics& m) {
  std::string bytes;
  for_each_metric(m, [&](const char* name, const auto& value,
                         MetricDirection, MetricGroup) {
    const std::string_view metric(name);
    if (metric == "wall_seconds" || metric == "simulated_events") return;
    using T = std::remove_cvref_t<decltype(value)>;
    std::uint64_t bits = 0;
    if constexpr (std::is_floating_point_v<T>) {
      bits = double_bits(value);
    } else {
      bits = value;
    }
    bytes.append(metric);
    bytes.append(reinterpret_cast<const char*>(&bits), sizeof(bits));
  });
  return fnv1a(bytes);
}

// Pinned before tenants had kernels of their own: every tenant's metrics,
// the traced tenants' span CSVs and the arbiter's history must not move,
// whatever the shard count.
TEST(MultiTenantGolden, MixedPopulationOutputsArePinned) {
  const MultiTenantConfig config = mixed_config();
  std::size_t kinds[3] = {0, 0, 0};
  for (const TenantSpec& spec : multi_tenant_specs(config)) {
    ++kinds[static_cast<std::size_t>(spec.scenario.workload)];
  }
  ASSERT_GT(kinds[static_cast<std::size_t>(WorkloadKind::kWeb)], 0u);
  ASSERT_GT(kinds[static_cast<std::size_t>(WorkloadKind::kScientific)], 0u);
  ASSERT_GT(kinds[static_cast<std::size_t>(WorkloadKind::kZipf)], 0u);

  static constexpr std::uint64_t kTenantHashes[] = {
      0x42999f0bc1dd1b88ULL, 0x42d3c196099745f2ULL, 0xd496a09d73beb31bULL,
      0x8f4125c9b13ae393ULL, 0x5bb820bcd0173524ULL, 0xa6104e196607f6f6ULL,
      0x9c85866a6b00d9d1ULL, 0x846a2e1c1a391d8eULL, 0x18a5b82ceab0b5a6ULL};
  static constexpr std::uint64_t kSpanHashes[] = {0x631b9182707bca9bULL,
                                                  0x59696eb0cb16812aULL};

  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    MultiTenantOptions options;
    options.shards = shards;
    options.traced_tenants = std::size(kSpanHashes);
    const MultiTenantResult result = run_multi_tenant(config, options);
    ASSERT_EQ(result.tenants.size(), std::size(kTenantHashes));
    for (std::size_t i = 0; i < result.tenants.size(); ++i) {
      EXPECT_EQ(metrics_hash(result.tenants[i].metrics), kTenantHashes[i])
          << "tenant " << i << " hash 0x" << std::hex
          << metrics_hash(result.tenants[i].metrics);
    }
    for (std::size_t i = 0; i < std::size(kSpanHashes); ++i) {
      EXPECT_EQ(span_csv_hash(result.tenants[i]), kSpanHashes[i])
          << "tenant " << i << " span hash 0x" << std::hex
          << span_csv_hash(result.tenants[i]);
    }
    EXPECT_EQ(result.grant_clips, 31u);
    EXPECT_EQ(result.instances_denied, 79u);
    EXPECT_EQ(result.peak_granted, 24u);

    // Each tenant counts its own events, and they make up the run's total.
    std::uint64_t events = 0;
    for (const TenantResult& tenant : result.tenants) {
      EXPECT_GT(tenant.metrics.simulated_events, 0u) << tenant.id;
      events += tenant.metrics.simulated_events;
    }
    EXPECT_EQ(events, result.simulated_events);
  }
}

// Every tenant's workload source runs to the population's horizon, whatever
// the default horizon of its workload kind.
TEST(MultiTenant, SpecsCarryTheHorizonIntoEveryWorkload) {
  MultiTenantConfig config = golden_config();
  config.horizon = 2.0 * 86400.0;
  for (const TenantSpec& spec : multi_tenant_specs(config)) {
    EXPECT_EQ(spec.scenario.horizon, 172800.0);
    EXPECT_EQ(spec.scenario.web.horizon, 172800.0);
    EXPECT_EQ(spec.scenario.bot.horizon, 172800.0);
    EXPECT_EQ(spec.scenario.zipf.horizon, 172800.0);
  }
}

}  // namespace
}  // namespace cloudprov
