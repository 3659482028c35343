// Wall-clock profiler + run-manifest tests.
//
// Three layers: EventQueue's surfaced kernel internals against
// hand-constructed push/cancel/pop sequences (exact expected counts),
// WallProfiler scope attribution (self vs total under nesting, folded
// paths, snapshot cadence), and the run-manifest JSON writer (structure,
// seed-stream provenance, brace balance). Timing assertions compare
// measured scopes against busy-wait floors only — never wall-clock upper
// bounds, which would flake under load.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "experiment/manifest.h"
#include "experiment/scenario.h"
#include "lookahead/world_state.h"
#include "profile/profile_export.h"
#include "profile/wall_profiler.h"
#include "sim/event_queue.h"

namespace cloudprov {
namespace {

// ---------------------------------------------------------------- EventQueue

TEST(EventQueueStats, HighWatersTrackPeakNotCurrent) {
  EventQueue queue;
  for (int i = 0; i < 10; ++i) queue.push(static_cast<double>(i), [] {});
  EXPECT_EQ(queue.heap_depth(), 10u);
  EXPECT_EQ(queue.heap_high_water(), 10u);
  EXPECT_EQ(queue.slab_high_water(), 10u);

  // Draining shrinks the heap but never the high waters.
  while (!queue.empty()) queue.pop();
  EXPECT_EQ(queue.heap_depth(), 0u);
  EXPECT_EQ(queue.heap_high_water(), 10u);
  EXPECT_EQ(queue.slab_high_water(), 10u);

  // Refilling below the peak reuses slab slots: high waters stay put.
  for (int i = 0; i < 4; ++i) queue.push(static_cast<double>(i), [] {});
  EXPECT_EQ(queue.heap_high_water(), 10u);
  EXPECT_EQ(queue.slab_high_water(), 10u);

  // Exceeding the old peak moves both.
  for (int i = 0; i < 20; ++i) queue.push(static_cast<double>(i), [] {});
  EXPECT_EQ(queue.heap_high_water(), 24u);
  EXPECT_EQ(queue.slab_high_water(), 24u);
}

TEST(EventQueueStats, StaleDropsCountCompactionAndLazyTopDrops) {
  EventQueue queue;
  std::vector<EventId> ids;
  ids.reserve(100);
  for (int i = 0; i < 100; ++i) {
    ids.push_back(queue.push(static_cast<double>(i), [] {}));
  }
  EXPECT_EQ(queue.stale_drops(), 0u);

  // Cancel the first 60. Cancels leave stale heap records behind until the
  // compaction heuristic fires (heap >= 64 entries and live < half of
  // them): at the 51st cancel live drops to 49 < 100/2, compact sweeps all
  // 51 stale records at once. The remaining 9 cancels stay lazy (heap is
  // down to 49 entries, below the 64 floor).
  for (int i = 0; i < 60; ++i) queue.cancel(ids[static_cast<std::size_t>(i)]);
  EXPECT_EQ(queue.size(), 40u);
  EXPECT_EQ(queue.stale_drops(), 51u);
  EXPECT_EQ(queue.heap_depth(), 49u);  // 40 live + 9 lazy stale

  // Draining discards the 9 lazy records as they surface.
  std::uint64_t popped = 0;
  while (!queue.empty()) {
    queue.pop();
    ++popped;
  }
  EXPECT_EQ(popped, 40u);
  EXPECT_EQ(queue.stale_drops(), 60u);
  EXPECT_EQ(queue.heap_depth(), 0u);

  // Cancelling an already-cancelled / already-executed handle is a no-op
  // and must not inflate the stale counter.
  queue.cancel(ids[0]);
  queue.cancel(ids[99]);
  EXPECT_EQ(queue.stale_drops(), 60u);
}

TEST(EventQueueStats, InlineActionsNeverBox) {
  EventQueue queue;
  int counter = 0;
  for (int i = 0; i < 32; ++i) {
    queue.push(static_cast<double>(i), [&counter] { ++counter; });
  }
  EXPECT_EQ(queue.boxed_pushed_count(), 0u);
  while (!queue.empty()) queue.pop().action();
  EXPECT_EQ(counter, 32);
}

// -------------------------------------------------------------- WallProfiler

void busy_wait(double seconds) {
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::duration<double>(seconds);
  while (std::chrono::steady_clock::now() < until) {
  }
}

TEST(WallProfiler, NestedScopesSplitSelfFromTotal) {
  WallProfiler profiler;
  constexpr auto kOuter = ProfileCategory::kEngineRun;
  constexpr auto kInner = ProfileCategory::kPolicyDecision;
  {
    ProfileScope outer(&profiler, kOuter);
    busy_wait(0.002);
    {
      ProfileScope inner(&profiler, kInner);
      busy_wait(0.002);
    }
  }
  const auto& outer_stat = profiler.totals()[static_cast<std::size_t>(kOuter)];
  const auto& inner_stat = profiler.totals()[static_cast<std::size_t>(kInner)];
  EXPECT_EQ(outer_stat.count, 1u);
  EXPECT_EQ(inner_stat.count, 1u);
  // Both waits ran at least their floor.
  EXPECT_GE(inner_stat.self_seconds, 0.0015);
  EXPECT_GE(outer_stat.self_seconds, 0.0015);
  // total includes the child, self excludes it.
  EXPECT_GE(outer_stat.total_seconds,
            outer_stat.self_seconds + inner_stat.self_seconds - 1e-9);
  // self-sum coverage never double counts: covered <= wall.
  EXPECT_LE(profiler.covered_seconds(), profiler.wall_seconds() + 1e-6);
  EXPECT_GE(profiler.covered_seconds(), 0.003);
  EXPECT_GE(profiler.clock_overhead_seconds(), 0.0);
}

TEST(WallProfiler, FoldedStacksCarryFullPaths) {
  WallProfiler profiler;
  {
    ProfileScope outer(&profiler, ProfileCategory::kEngineRun);
    busy_wait(0.001);
    ProfileScope inner(&profiler, ProfileCategory::kPolicyDecision);
    busy_wait(0.001);
  }
  const std::vector<WallProfiler::PathStat> rows = profiler.folded();
  ASSERT_EQ(rows.size(), 2u);
  // Sorted by path: [engine.run] before [engine.run, policy.decision].
  ASSERT_EQ(rows[0].path.size(), 1u);
  EXPECT_EQ(rows[0].path[0], ProfileCategory::kEngineRun);
  ASSERT_EQ(rows[1].path.size(), 2u);
  EXPECT_EQ(rows[1].path[0], ProfileCategory::kEngineRun);
  EXPECT_EQ(rows[1].path[1], ProfileCategory::kPolicyDecision);
  EXPECT_EQ(rows[0].count, 1u);
  EXPECT_EQ(rows[1].count, 1u);

  std::ostringstream folded;
  write_folded_stacks(folded, profiler);
  EXPECT_NE(folded.str().find("engine.run "), std::string::npos);
  EXPECT_NE(folded.str().find("engine.run;policy.decision "),
            std::string::npos);
}

TEST(WallProfiler, NullScopeIsANoOp) {
  // The disabled configuration every instrumented site ships with.
  ProfileScope scope(nullptr, ProfileCategory::kEngineRun);
  SUCCEED();
}

TEST(WallProfiler, SnapshotCadenceFollowsWallInterval) {
  // Interval 0: every maybe_snapshot() records a row.
  WallProfiler eager(0.0);
  eager.maybe_snapshot(10.0, 100, 5, 5, 8, 8, 0, 0);
  eager.maybe_snapshot(20.0, 300, 5, 5, 8, 8, 0, 0);
  ASSERT_EQ(eager.snapshots().size(), 2u);
  EXPECT_EQ(eager.snapshots()[1].executed_events, 300u);
  EXPECT_EQ(eager.snapshots()[1].heap_high_water, 8u);

  // A long interval suppresses periodic rows, but force_snapshot (the
  // end-of-run flush) always records.
  WallProfiler lazy(3600.0);
  lazy.maybe_snapshot(10.0, 100, 5, 5, 8, 8, 0, 0);
  EXPECT_TRUE(lazy.snapshots().empty());
  lazy.force_snapshot(86400.0, 1385227, 0, 0, 12, 16, 3, 1);
  ASSERT_EQ(lazy.snapshots().size(), 1u);
  const ProfileSnapshot& last = lazy.snapshots().back();
  EXPECT_EQ(last.sim_time, 86400.0);
  EXPECT_EQ(last.executed_events, 1385227u);
  EXPECT_EQ(last.stale_drops, 3u);
  EXPECT_EQ(last.boxed_pushed, 1u);
  EXPECT_GT(last.events_per_second, 0.0);
  EXPECT_GT(last.speedup, 0.0);
}

TEST(WallProfiler, ProfileCsvHasStableSchema) {
  WallProfiler profiler(0.0);
  {
    ProfileScope scope(&profiler, ProfileCategory::kEngineRun);
    busy_wait(0.001);
    profiler.maybe_snapshot(42.0, 4096, 3, 3, 7, 9, 1, 0);
  }
  std::ostringstream csv;
  write_profile_csv(csv, profiler);
  const std::string text = csv.str();
  EXPECT_EQ(text.rfind("record,wall_seconds,sim_seconds,name,value\n", 0), 0u)
      << text.substr(0, 80);
  EXPECT_NE(text.find("snapshot,"), std::string::npos);
  EXPECT_NE(text.find(",heap_high_water,7"), std::string::npos);
  EXPECT_NE(text.find("category_self,"), std::string::npos);
  EXPECT_NE(text.find(",engine.run,"), std::string::npos);
}

// ------------------------------------------------------------- run manifest

std::size_t count_char(const std::string& text, char c) {
  std::size_t n = 0;
  for (const char ch : text) {
    if (ch == c) ++n;
  }
  return n;
}

TEST(RunManifest, CarriesProvenanceAndBalancedJson) {
  const ScenarioConfig config = web_scenario(0.002);
  RunMetrics metrics;
  metrics.policy = "Adaptive";
  metrics.seed = 42;
  metrics.generated = 1000;
  metrics.accepted = 990;
  metrics.rejected = 10;
  metrics.simulated_events = 2000;
  metrics.wall_seconds = 0.5;

  WallProfiler profiler(0.0);
  {
    ProfileScope scope(&profiler, ProfileCategory::kEngineRun);
    busy_wait(0.001);
    profiler.maybe_snapshot(100.0, 2000, 0, 0, 12, 16, 3, 0);
  }

  std::ostringstream out;
  write_run_manifest(out, config, "Adaptive", 42, 1, metrics, &profiler);
  const std::string json = out.str();

  EXPECT_NE(json.find("\"schema\":\"cloudprov-run-manifest/1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"git_commit\":"), std::string::npos);
  EXPECT_NE(json.find("\"compiler_id\":"), std::string::npos);
  EXPECT_NE(json.find("\"generated\":1000"), std::string::npos);
  EXPECT_NE(json.find("\"covered_fraction\":"), std::string::npos);
  EXPECT_NE(json.find("\"category\":\"engine.run\""), std::string::npos);
  EXPECT_NE(json.find("\"heap_high_water\":12"), std::string::npos);

  // Seed-stream provenance must match the derivation every subsystem uses.
  const SeedStreams streams = derive_streams(42);
  EXPECT_NE(json.find("\"workload\":" + std::to_string(streams.workload)),
            std::string::npos);
  EXPECT_NE(json.find("\"fault\":" + std::to_string(streams.fault)),
            std::string::npos);
  EXPECT_NE(json.find("\"resilience\":" + std::to_string(streams.resilience)),
            std::string::npos);

  EXPECT_EQ(count_char(json, '{'), count_char(json, '}'));
  EXPECT_EQ(count_char(json, '['), count_char(json, ']'));
}

TEST(RunManifest, NullProfilerYieldsEmptyBreakdown) {
  const ScenarioConfig config = web_scenario(0.002);
  RunMetrics metrics;
  metrics.policy = "Static";
  metrics.seed = 7;
  metrics.generated = 10;
  metrics.accepted = 10;
  metrics.wall_seconds = 0.1;

  std::ostringstream out;
  write_run_manifest(out, config, "Static", 7, 4, metrics, nullptr);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"replications\":4"), std::string::npos);
  EXPECT_NE(json.find("\"breakdown\":[]"), std::string::npos);
  EXPECT_EQ(json.find("\"covered_fraction\""), std::string::npos);
  EXPECT_EQ(count_char(json, '{'), count_char(json, '}'));
}

/// The manifest's flat `scenario` block: what compare_runs.py compares to
/// decide whether two runs had the same inputs.
std::string scenario_block(const ScenarioConfig& config) {
  std::ostringstream out;
  write_run_manifest(out, config, "Adaptive", 42, 1, RunMetrics{}, nullptr);
  const std::string json = out.str();
  const std::size_t begin = json.find("\"scenario\":{");
  EXPECT_NE(begin, std::string::npos);
  return json.substr(begin, json.find('}', begin) - begin);
}

TEST(RunManifest, ScenarioBlockTellsVmMtbfsApart) {
  ScenarioConfig six_hours = web_scenario(0.002);
  six_hours.fault.vm_mtbf = 6 * 3600.0;
  ScenarioConfig twelve_hours = six_hours;
  twelve_hours.fault.vm_mtbf = 12 * 3600.0;
  EXPECT_EQ(scenario_block(six_hours), scenario_block(six_hours));
  EXPECT_NE(scenario_block(six_hours), scenario_block(twelve_hours));
}

TEST(RunManifest, ScenarioBlockTellsBidsApart) {
  ScenarioConfig low_bid = web_scenario(0.002);
  low_bid.market.enabled = true;
  low_bid.market.acquisition.spot_fraction = 0.5;
  low_bid.market.acquisition.bid = 0.45;
  ScenarioConfig high_bid = low_bid;
  high_bid.market.acquisition.bid = 0.7;
  EXPECT_EQ(scenario_block(low_bid), scenario_block(low_bid));
  EXPECT_NE(scenario_block(low_bid), scenario_block(high_bid));
}

}  // namespace
}  // namespace cloudprov
