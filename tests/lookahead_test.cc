// Co-simulation lookahead subsystem tests (src/lookahead + experiment/World):
//
//   - seed-stream derivation order regression (workload -> placement ->
//     fault -> market -> lookahead, pinned against raw splitmix64 draws),
//   - clone-continue bit-identity: snapshot a run mid-flight, restore into a
//     fresh World, continue to the horizon, and require every deterministic
//     RunMetrics field (and the full span CSV byte stream) to equal the
//     uninterrupted run's — with telemetry, with the fault layer, and with a
//     live spot market,
//   - snapshot fuzz at arbitrary (window-unaligned) times plus a chained
//     snapshot-of-a-restored-world,
//   - disk checkpoint roundtrip through the binary codec, loading the
//     v1/v2/v3 files older builds wrote (tests/data), and a searching world
//     resumed with its forecast stream,
//   - AdaptivePolicy's lookahead search (the LookaheadPolicy suite): the
//     disabled search (K = 1, no bids) is bit-identical to plain adaptive,
//     and an enabled search only ever commits candidates that do not
//     degrade QoS versus Algorithm 1's own choice,
//   - bounded what-if forks: a fork stops early only when its full run
//     would break a bound, and otherwise reports that full run bit for bit.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "experiment/runner.h"
#include "experiment/world.h"
#include "lookahead/checkpoint.h"
#include "lookahead/world_state.h"
#include "metrics_equality.h"
#include "telemetry/export.h"
#include "util/rng.h"

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

// Figure 5 smoke (same literals the kernel golden test pins): web workload
// at scale 0.01, one day, adaptive, seed 42, every request traced.
ScenarioConfig fig5_config() {
  ScenarioConfig config = web_scenario(0.01);
  config.horizon = 86400.0;
  config.web.horizon = config.horizon;
  return config;
}

TelemetryOptions fig5_telemetry(const ScenarioConfig& config) {
  TelemetryOptions opts;
  opts.span_sample_rate = 1.0;
  opts.drift_enabled = true;
  opts.drift.qos_max_response_time = config.qos.max_response_time;
  opts.slo_enabled = true;
  opts.slo.log_alerts = false;
  return opts;
}

// The fault-ablation smoke of the kernel golden test: stochastic VM/host
// crashes, boot faults, degradations, an outage window, a scripted host
// crash, boot watchdog, reconciler. Seed 7, simulated_events = 1387838.
ScenarioConfig fault_smoke_config() {
  ScenarioConfig config = web_scenario(0.01);
  config.horizon = 86400.0;
  config.web.horizon = config.horizon;
  config.fault.vm_mtbf = 4.0 * 3600.0;
  config.fault.host_mtbf = 12.0 * 3600.0;
  config.fault.boot_fail_prob = 0.1;
  config.fault.straggler_prob = 0.1;
  config.fault.degraded_mtbf = 2.0 * 3600.0;
  config.fault.outages.push_back({30000.0, 32000.0});
  config.fault.scripted.push_back(
      {ScriptedFault::Kind::kHostCrash, 40000.0, 1});
  config.boot_timeout = 300.0;
  config.reconciler.enabled = true;
  config.reconciler.interval = 60.0;
  return config;
}

// Live spot market: half the pool on revocable spot capacity at a 0.70 bid,
// reconciler healing revocation deficits (bench_ablation_spotmarket smoke).
ScenarioConfig spot_smoke_config() {
  ScenarioConfig config = web_scenario(0.02);
  config.horizon = 6.0 * 3600.0;
  config.web.horizon = config.horizon;
  config.market.enabled = true;
  config.market.acquisition.spot_fraction = 0.5;
  config.market.acquisition.bid = 0.70;
  config.reconciler.enabled = true;
  config.reconciler.interval = 60.0;
  return config;
}

// Full resilience storm: an IaaS allocation outage under client timeouts,
// budgeted expo-jitter retries, a circuit breaker, and both shed modes —
// every piece of gateway/shedding state is live when a snapshot lands
// inside the outage window.
ScenarioConfig retry_storm_config() {
  ScenarioConfig config = web_scenario(0.01);
  config.horizon = 4.0 * 3600.0;
  config.web.horizon = config.horizon;
  config.fault.outages.push_back({600.0, 1500.0});
  config.resilience.enabled = true;
  config.resilience.attempt_timeout = 0.2;
  config.resilience.request_deadline = 2.0;
  config.resilience.retry.max_attempts = 4;
  config.resilience.retry.base = 0.05;
  config.resilience.retry.cap = 0.5;
  config.resilience.budget.enabled = true;
  config.resilience.budget.ratio = 0.2;
  config.resilience.breaker.enabled = true;
  config.resilience.shed.deadline_enabled = true;
  config.resilience.shed.brownout_enabled = true;
  config.resilience.shed.brownout_utilization = 0.8;
  config.resilience.shed.brownout_fraction = 0.3;
  return config;
}

/// Runs to `snapshot_time`, snapshots, restores into a fresh World, and
/// finishes the run there.
RunOutput clone_continue(const ScenarioConfig& config, const PolicySpec& policy,
                         std::uint64_t seed,
                         const std::optional<TelemetryOptions>& telemetry,
                         SimTime snapshot_time) {
  World world(config, policy, seed, telemetry);
  world.start();
  world.run_to(snapshot_time);
  const WorldState state = world.snapshot();
  World resumed(config, policy, seed, state);
  resumed.run_to(config.horizon);
  return resumed.finish();
}

// --- satellite: seed-stream derivation order ------------------------------

TEST(SeedStreams,
     DerivationOrderIsWorkloadPlacementFaultMarketLookaheadResilienceApptier) {
  for (const std::uint64_t seed : {0ULL, 7ULL, 42ULL, 0xdeadbeefULL}) {
    SplitMix64 seeder(seed);
    const std::uint64_t workload = seeder.next();
    const std::uint64_t placement = seeder.next();
    const std::uint64_t fault = seeder.next();
    const std::uint64_t market = seeder.next();
    const std::uint64_t lookahead = seeder.next();
    const std::uint64_t resilience = seeder.next();
    const std::uint64_t apptier = seeder.next();

    const SeedStreams streams = derive_streams(seed);
    EXPECT_EQ(streams.workload, workload) << "seed " << seed;
    EXPECT_EQ(streams.placement, placement) << "seed " << seed;
    EXPECT_EQ(streams.fault, fault) << "seed " << seed;
    EXPECT_EQ(streams.market, market) << "seed " << seed;
    EXPECT_EQ(streams.lookahead, lookahead) << "seed " << seed;
    EXPECT_EQ(streams.resilience, resilience) << "seed " << seed;
    EXPECT_EQ(streams.apptier, apptier) << "seed " << seed;
  }
}

TEST(SeedStreams, DistinctStreamsAndSeeds) {
  const SeedStreams a = derive_streams(42);
  const SeedStreams b = derive_streams(43);
  EXPECT_NE(a.workload, a.placement);
  EXPECT_NE(a.workload, a.fault);
  EXPECT_NE(a.workload, a.market);
  EXPECT_NE(a.workload, a.lookahead);
  EXPECT_NE(a.workload, a.resilience);
  EXPECT_NE(a.workload, a.apptier);
  EXPECT_NE(a.workload, b.workload);
  EXPECT_NE(a.lookahead, b.lookahead);
  EXPECT_NE(a.resilience, b.resilience);
  EXPECT_NE(a.apptier, b.apptier);
}

// --- tentpole: clone-continue bit-identity --------------------------------

// Snapshot the telemetry-instrumented Figure 5 smoke mid-run (at a
// window-unaligned instant), restore, continue — and reproduce the exact
// pre-PR golden literals plus the full span CSV byte stream.
TEST(WorldClone, Fig5GoldenCloneContinueIsBitIdentical) {
  const ScenarioConfig config = fig5_config();
  const TelemetryOptions telemetry = fig5_telemetry(config);

  const RunOutput full =
      run_scenario(config, PolicySpec::adaptive(), 42, telemetry);
  const RunOutput resumed = clone_continue(config, PolicySpec::adaptive(), 42,
                                           telemetry, /*snapshot_time=*/40323.7);

  expect_same_metrics(resumed.metrics, full.metrics, {"wall_seconds"});
  // Anchor against the historical goldens, not just the sibling run.
  EXPECT_EQ(resumed.metrics.generated, 707184u);
  EXPECT_EQ(resumed.metrics.simulated_events, 1385227u);

  ASSERT_NE(resumed.telemetry, nullptr);
  std::ostringstream csv;
  write_span_csv(csv, *resumed.telemetry->spans());
  const std::string bytes = csv.str();
  EXPECT_EQ(bytes.size(), 14729937u);
  EXPECT_EQ(fnv1a(bytes), 0xbdf90a2e3fd773c6ULL);
}

// Same contract with the whole fault/self-healing layer live: the snapshot
// carries injector RNG sub-streams, pending crash/degrade events, watchdogs,
// and reconciler backoff state. Snapshot lands after the outage window and
// the scripted host crash so their consequences are mid-flight.
TEST(WorldClone, FaultSmokeCloneContinueIsBitIdentical) {
  const ScenarioConfig config = fault_smoke_config();
  const RunOutput full = run_scenario(config, PolicySpec::adaptive(), 7);
  const RunOutput resumed = clone_continue(config, PolicySpec::adaptive(), 7,
                                           std::nullopt,
                                           /*snapshot_time=*/50411.3);
  expect_same_metrics(resumed.metrics, full.metrics, {"wall_seconds"});
  EXPECT_EQ(resumed.metrics.simulated_events, 1387838u);
  EXPECT_GT(resumed.metrics.instance_failures, 0u);
}

// And with a live spot market: price-path RNG, ledger entries, accrued burn,
// pending revocation hard-kills, and the market tick all travel through the
// snapshot; the final bill must come out identical to the cent (bitwise).
TEST(WorldClone, SpotMarketCloneContinueIsBitIdentical) {
  const ScenarioConfig config = spot_smoke_config();
  const RunOutput full = run_scenario(config, PolicySpec::adaptive(), 42);
  const RunOutput resumed = clone_continue(config, PolicySpec::adaptive(), 42,
                                           std::nullopt,
                                           /*snapshot_time=*/9013.9);
  expect_same_metrics(resumed.metrics, full.metrics, {"wall_seconds"});
  EXPECT_GT(resumed.metrics.billed_cost, 0.0);
  EXPECT_GT(resumed.metrics.spot_purchases, 0u);
}

// Satellite: checkpoint with the resilience layer live, snapshot landing
// inside the outage while a retry storm is raging — pending retry and
// timeout events, breaker ring/state, budget tokens, and the shedding
// pending-decision all travel through the snapshot. The span CSV of the
// resumed run must match the uninterrupted run byte for byte.
TEST(WorldClone, RetryStormCloneContinueIsBitIdentical) {
  const ScenarioConfig config = retry_storm_config();
  const TelemetryOptions telemetry = fig5_telemetry(config);
  const RunOutput full =
      run_scenario(config, PolicySpec::adaptive(), 42, telemetry);
  // Mid-outage: the breaker has tripped and retries/timeouts are in flight.
  const RunOutput resumed = clone_continue(config, PolicySpec::adaptive(), 42,
                                           telemetry, /*snapshot_time=*/901.3);
  expect_same_metrics(resumed.metrics, full.metrics, {"wall_seconds"});
  // The storm actually stormed (otherwise this pins nothing).
  EXPECT_GT(full.metrics.client_retries, 0u);
  EXPECT_GT(full.metrics.client_timeouts, 0u);

  ASSERT_NE(full.telemetry, nullptr);
  ASSERT_NE(resumed.telemetry, nullptr);
  std::ostringstream full_csv;
  write_span_csv(full_csv, *full.telemetry->spans());
  std::ostringstream resumed_csv;
  write_span_csv(resumed_csv, *resumed.telemetry->spans());
  EXPECT_EQ(resumed_csv.str().size(), full_csv.str().size());
  EXPECT_EQ(fnv1a(resumed_csv.str()), fnv1a(full_csv.str()));
}

// Snapshot times swept across the run (none window-aligned), including a
// chained snapshot taken on an already-restored world: restoring a restore
// must be as good as the original.
TEST(WorldClone, SnapshotFuzzAtArbitraryTimes) {
  ScenarioConfig config = web_scenario(0.02);
  config.horizon = 2.0 * 3600.0;
  config.web.horizon = config.horizon;
  config.fault.vm_mtbf = 2.0 * 3600.0;
  config.fault.boot_fail_prob = 0.05;
  config.boot_timeout = 300.0;

  const RunOutput full = run_scenario(config, PolicySpec::adaptive(), 11);

  Rng fuzz(0xf0220ed);
  for (int round = 0; round < 5; ++round) {
    const SimTime snap_time = fuzz.uniform(60.0, config.horizon - 60.0);
    const RunOutput resumed = clone_continue(
        config, PolicySpec::adaptive(), 11, std::nullopt, snap_time);
    expect_same_metrics(resumed.metrics, full.metrics, {"wall_seconds"});
  }

  // Chained: snapshot at t1, restore, run to t2, snapshot again, restore.
  World world(config, PolicySpec::adaptive(), 11, std::nullopt);
  world.start();
  world.run_to(1234.5);
  const WorldState first = world.snapshot();
  World middle(config, PolicySpec::adaptive(), 11, first);
  middle.run_to(4321.0);
  const WorldState second = middle.snapshot();
  World last(config, PolicySpec::adaptive(), 11, second);
  last.run_to(config.horizon);
  expect_same_metrics(last.finish().metrics, full.metrics, {"wall_seconds"});
}

// --- satellite: disk checkpoint roundtrip ---------------------------------

TEST(Checkpoint, DiskRoundtripContinuesBitIdentical) {
  const ScenarioConfig config = spot_smoke_config();
  const RunOutput full = run_scenario(config, PolicySpec::adaptive(), 42);

  World world(config, PolicySpec::adaptive(), 42, std::nullopt);
  world.start();
  world.run_to(7777.0);
  const WorldState state = world.snapshot();

  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  write_checkpoint(buffer, state);
  const WorldState loaded = read_checkpoint(buffer);

  EXPECT_EQ(loaded.now, state.now);
  EXPECT_EQ(loaded.executed_events, state.executed_events);
  EXPECT_EQ(loaded.push_counter, state.push_counter);
  EXPECT_EQ(loaded.datacenter.vms.size(), state.datacenter.vms.size());
  EXPECT_EQ(loaded.policy_present, state.policy_present);
  ASSERT_TRUE(loaded.market.has_value());
  EXPECT_EQ(loaded.telemetry, nullptr);  // disk format excludes telemetry

  World resumed(config, PolicySpec::adaptive(), 42, loaded);
  resumed.run_to(config.horizon);
  expect_same_metrics(resumed.finish().metrics, full.metrics, {"wall_seconds"});
}

// Satellite: the disk codec (v2) serializes the optional resilience section;
// a checkpoint written mid-retry-storm restores to a bit-identical run.
TEST(Checkpoint, DiskRoundtripMidRetryStormIsBitIdentical) {
  const ScenarioConfig config = retry_storm_config();
  const RunOutput full = run_scenario(config, PolicySpec::adaptive(), 42);

  World world(config, PolicySpec::adaptive(), 42, std::nullopt);
  world.start();
  world.run_to(901.3);
  const WorldState state = world.snapshot();
  ASSERT_TRUE(state.resilience.has_value());

  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  write_checkpoint(buffer, state);
  const WorldState loaded = read_checkpoint(buffer);
  ASSERT_TRUE(loaded.resilience.has_value());
  EXPECT_EQ(loaded.resilience->gateway.in_flight.size(),
            state.resilience->gateway.in_flight.size());
  EXPECT_EQ(loaded.resilience->gateway.retries.size(),
            state.resilience->gateway.retries.size());

  World resumed(config, PolicySpec::adaptive(), 42, loaded);
  resumed.run_to(config.horizon);
  expect_same_metrics(resumed.finish().metrics, full.metrics, {"wall_seconds"});
  EXPECT_GT(full.metrics.client_retries, 0u);
}

// --- checkpoint fixtures (tests/data/README.md records each command) -------

std::string fixture_path(const std::string& name) {
  return std::string(CLOUDPROV_TEST_DATA_DIR) + "/" + name;
}

/// Restores a fixture written at t = 600 s of a `--seed 42` web day and
/// requires the continuation to equal an uninterrupted run of the same
/// config. run_scenario runs replication 0 under the first seed that
/// replication_seeds derives from --seed.
WorldState expect_fixture_continues(const std::string& name,
                                    const ScenarioConfig& config) {
  WorldState state = read_checkpoint_file(fixture_path(name));
  EXPECT_EQ(state.now, 600.0);
  const std::uint64_t seed = replication_seeds(1, 42).front();
  const RunOutput full = run_scenario(config, PolicySpec::adaptive(), seed);
  World resumed(config, PolicySpec::adaptive(), seed, state);
  resumed.run_to(config.horizon);
  expect_same_metrics(resumed.finish().metrics, full.metrics, {"wall_seconds"});
  return state;
}

TEST(CheckpointFixture, Version1ContinuesBitIdentical) {
  const WorldState state =
      expect_fixture_continues("checkpoint_v1.bin", fig5_config());
  EXPECT_FALSE(state.resilience.has_value());
  EXPECT_FALSE(state.apptier.has_value());
}

TEST(CheckpointFixture, Version2ContinuesBitIdentical) {
  ScenarioConfig config = fig5_config();
  config.resilience.enabled = true;
  config.resilience.retry.max_attempts = 3;
  config.resilience.attempt_timeout = 0.5;
  const WorldState state =
      expect_fixture_continues("checkpoint_v2.bin", config);
  ASSERT_TRUE(state.resilience.has_value());
  EXPECT_GT(state.resilience->gateway.client_retries, 0u);
  EXPECT_FALSE(state.apptier.has_value());
}

TEST(CheckpointFixture, Version3DecodesAndReencodesByteForByte) {
  std::ifstream file(fixture_path("checkpoint_v3.bin"), std::ios::binary);
  ASSERT_TRUE(file.good());
  std::stringstream in(std::ios::in | std::ios::out | std::ios::binary);
  in << file.rdbuf();
  const std::string bytes = in.str();
  const WorldState state = read_checkpoint(in);
  ASSERT_TRUE(state.apptier.has_value());
  EXPECT_FALSE(state.apptier->directory.empty());
  ASSERT_EQ(state.apptier->flush_events.size(), 1u);
  EXPECT_FALSE(state.apptier->flush_events[0].has_value());  // fired at 60 s
  ASSERT_EQ(state.apptier->crash_events.size(), 1u);
  EXPECT_TRUE(state.apptier->crash_events[0].has_value());  // due at 600 s

  std::stringstream out(std::ios::in | std::ios::out | std::ios::binary);
  write_checkpoint(out, state);
  EXPECT_EQ(out.str().size(), bytes.size());
  EXPECT_TRUE(out.str() == bytes) << "re-encoded v3 fixture differs";
}

std::string encode_checkpoint(const WorldState& state) {
  std::stringstream out(std::ios::in | std::ios::out | std::ios::binary);
  write_checkpoint(out, state);
  return out.str();
}

/// Runs two worlds built the same way side by side (so their heaps and
/// stacks differ) and requires their snapshots at `at` to encode to the same
/// bytes: no raw leaf may carry uninitialised padding into a checkpoint.
void expect_same_checkpoint_bytes(const ScenarioConfig& config, SimTime at) {
  World first(config, PolicySpec::adaptive(), 42, std::nullopt);
  World second(config, PolicySpec::adaptive(), 42, std::nullopt);
  first.start();
  second.start();
  first.run_to(at);
  second.run_to(at);
  const std::string a = encode_checkpoint(first.snapshot());
  const std::string b = encode_checkpoint(second.snapshot());
  ASSERT_EQ(a.size(), b.size());
  std::size_t differing = 0;
  for (std::size_t i = 0; i < a.size(); ++i) differing += a[i] != b[i];
  EXPECT_EQ(differing, 0u) << "bytes differ out of " << a.size();
}

TEST(Checkpoint, SameStateEncodesToSameBytes) {
  expect_same_checkpoint_bytes(web_scenario(0.02), 43200.0);

  // Every raw leaf with padding: hosts, VM specs, RNG streams, the analyzer,
  // market entries, fault timers, the cache directory, and the tier's raw
  // chaos stamps (one fired, so disengaged, and one pending).
  ScenarioConfig layered = zipf_scenario(0.01);
  layered.apptier.enabled = true;
  layered.apptier.flush_at = {600.0};
  layered.apptier.cache_crash_at = {5000.0};
  layered.market.enabled = true;
  layered.market.acquisition.spot_fraction = 0.5;
  layered.market.acquisition.bid = 0.7;
  layered.fault.degraded_mtbf = 1800.0;
  layered.fault.scripted.push_back(
      {ScriptedFault::Kind::kHostCrash, 5000.0, 0});
  layered.resilience.enabled = true;
  layered.resilience.attempt_timeout = 0.5;
  layered.resilience.retry.max_attempts = 3;
  expect_same_checkpoint_bytes(layered, 3600.0);
}

/// Snapshots a world at `at`, encodes it, decodes it into a fresh World and
/// snapshots that again without running: every field a snapshot carries
/// must come back through restore(), or the second encoding differs.
/// Returns the decoded state, so callers can check which layers were live.
WorldState expect_restore_resnapshots_same_bytes(const ScenarioConfig& config,
                                                 const PolicySpec& policy,
                                                 std::uint64_t seed,
                                                 SimTime at) {
  SCOPED_TRACE(testing::Message() << "snapshot at t=" << at);
  World world(config, policy, seed, std::nullopt);
  world.start();
  world.run_to(at);
  const std::string bytes = encode_checkpoint(world.snapshot());
  std::stringstream in(bytes, std::ios::in | std::ios::binary);
  WorldState state = read_checkpoint(in);
  const World restored(config, policy, seed, state);
  const std::string again = encode_checkpoint(restored.snapshot());
  EXPECT_EQ(again.size(), bytes.size());
  EXPECT_TRUE(again == bytes) << "restored world re-snapshots differently";
  return state;
}

TEST(Checkpoint, RestoredWorldResnapshotsToSameBytes) {
  // Every layer live under the adaptive policy: the layered Zipf world of
  // SameStateEncodesToSameBytes plus VM crashes, the reconciler, a retry
  // budget and breaker, both shed modes, an outage and a host crash.
  ScenarioConfig layered = zipf_scenario(0.01);
  layered.apptier.enabled = true;
  layered.apptier.flush_at = {600.0};
  layered.apptier.cache_crash_at = {5000.0};
  layered.market.enabled = true;
  layered.market.acquisition.spot_fraction = 0.5;
  layered.market.acquisition.bid = 0.7;
  layered.fault.vm_mtbf = 2.0 * 3600.0;
  layered.fault.degraded_mtbf = 1800.0;
  layered.fault.outages.push_back({2000.0, 2600.0});
  layered.fault.scripted.push_back(
      {ScriptedFault::Kind::kHostCrash, 2100.0, 0});
  layered.fault.scripted.push_back(
      {ScriptedFault::Kind::kHostCrash, 5000.0, 0});
  layered.reconciler.enabled = true;
  layered.reconciler.interval = 60.0;
  layered.resilience.enabled = true;
  layered.resilience.attempt_timeout = 0.5;
  layered.resilience.request_deadline = 1.0;
  layered.resilience.retry.max_attempts = 3;
  layered.resilience.budget.enabled = true;
  layered.resilience.breaker.enabled = true;
  layered.resilience.shed.deadline_enabled = true;
  layered.resilience.shed.brownout_enabled = true;
  layered.resilience.shed.brownout_utilization = 0.5;
  for (const SimTime at : {3600.0, 6000.0}) {
    const WorldState state = expect_restore_resnapshots_same_bytes(
        layered, PolicySpec::adaptive(), 42, at);
    // Otherwise the bytes pin empty counters.
    ASSERT_TRUE(state.resilience.has_value());
    EXPECT_GT(state.resilience->gateway.client_retries, 0u);
    EXPECT_GT(state.resilience->shedding.shed_brownout, 0u);
    ASSERT_TRUE(state.apptier.has_value());
    EXPECT_GT(state.apptier->hits, 0u);
    ASSERT_TRUE(state.market.has_value());
    EXPECT_GT(state.market->purchases[static_cast<std::size_t>(
                  PurchaseKind::kSpot)],
              0u);
  }

  // A static pool keeps the reconciler healing (the adaptive policy re-sizes
  // before it has to); the first snapshot lands inside the outage.
  for (const SimTime at : {31000.0, 50411.3}) {
    const WorldState state = expect_restore_resnapshots_same_bytes(
        fault_smoke_config(), PolicySpec::fixed(50), 7, at);
    ASSERT_TRUE(state.reconciler.has_value());
    EXPECT_GT(state.reconciler->heals, 0u);
  }
}

// A searching world resumed from a disk checkpoint ends in the same state as
// the uninterrupted run. The forecast stream rides in the checkpoint
// (WorldState::lookahead_rng): a lost or reseeded stream leaves the decision
// log unchanged here but not the final checkpoint bytes, so the bytes are
// the check. The literals were captured before the search moved into
// AdaptivePolicy.
TEST(Checkpoint, LookaheadWorldResumesToSameBytes) {
  ScenarioConfig config = web_scenario(0.01);
  config.horizon = 6.0 * 3600.0;
  config.web.horizon = config.horizon;
  const PolicySpec policy =
      PolicySpec::lookahead_spec(3, 3, PredictorKind::kEwma);

  World full(config, policy, 42, std::nullopt);
  full.start();
  full.run_to(config.horizon);

  World first(config, policy, 42, std::nullopt);
  first.start();
  first.run_to(3.0 * 3600.0);
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  write_checkpoint(buffer, first.snapshot());
  const WorldState loaded = read_checkpoint(buffer);
  ASSERT_TRUE(loaded.lookahead_rng.has_value());
  World resumed(config, policy, 42, loaded);
  resumed.run_to(config.horizon);

  const std::string full_bytes = encode_checkpoint(full.snapshot());
  EXPECT_EQ(full_bytes.size(), 75281u);
  EXPECT_EQ(fnv1a(full_bytes), 0xe4b48aaba048c5d9ULL);
  EXPECT_TRUE(encode_checkpoint(resumed.snapshot()) == full_bytes)
      << "resumed lookahead world encodes differently";

  const RunOutput full_out = full.finish();
  const RunOutput resumed_out = resumed.finish();
  ASSERT_EQ(resumed_out.decisions.size(), full_out.decisions.size());
  for (std::size_t i = 0; i < full_out.decisions.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "decision " << i);
    EXPECT_EQ(resumed_out.decisions[i].time, full_out.decisions[i].time);
    EXPECT_EQ(resumed_out.decisions[i].target_instances,
              full_out.decisions[i].target_instances);
    EXPECT_EQ(resumed_out.decisions[i].achieved_instances,
              full_out.decisions[i].achieved_instances);
  }
}

TEST(Checkpoint, RejectsGarbageAndTruncation) {
  std::stringstream garbage(std::ios::in | std::ios::out | std::ios::binary);
  garbage << "not a checkpoint";
  EXPECT_THROW(read_checkpoint(garbage), std::runtime_error);

  ScenarioConfig config = web_scenario(0.02);
  config.horizon = 600.0;
  config.web.horizon = config.horizon;
  World world(config, PolicySpec::adaptive(), 3, std::nullopt);
  world.start();
  world.run_to(300.0);
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  write_checkpoint(buffer, world.snapshot());
  const std::string bytes = buffer.str();
  std::stringstream truncated(std::ios::in | std::ios::out | std::ios::binary);
  truncated << bytes.substr(0, bytes.size() / 2);
  EXPECT_THROW(read_checkpoint(truncated), std::runtime_error);
}

// --- lookahead policy -----------------------------------------------------

// K = 1 with no bid levels must never consult the engine or draw from the
// lookahead stream: the run is bit-identical to the adaptive baseline.
TEST(LookaheadPolicy, DisabledSearchIsBitIdenticalToAdaptive) {
  ScenarioConfig config = web_scenario(0.02);
  config.horizon = 6.0 * 3600.0;
  config.web.horizon = config.horizon;

  const RunOutput adaptive =
      run_scenario(config, PolicySpec::adaptive(), 42);
  const RunOutput lookahead =
      run_scenario(config, PolicySpec::lookahead_spec(1, 1), 42);

  expect_same_metrics(lookahead.metrics, adaptive.metrics,
                      {"policy", "wall_seconds"});
  ASSERT_EQ(lookahead.decisions.size(), adaptive.decisions.size());
  for (std::size_t i = 0; i < adaptive.decisions.size(); ++i) {
    EXPECT_EQ(lookahead.decisions[i].target_instances,
              adaptive.decisions[i].target_instances);
    EXPECT_EQ(lookahead.decisions[i].achieved_instances,
              adaptive.decisions[i].achieved_instances);
  }
}

// ISSUE 7 acceptance: with the resilience layer fully live, K = 1 lookahead
// still defers every window to Algorithm 1 — clone worlds rebuild and
// restore the gateway/shedding state, so even a mid-storm window changes
// nothing versus plain adaptive.
TEST(LookaheadPolicy, DisabledSearchMatchesAdaptiveWithResilienceOn) {
  const ScenarioConfig config = retry_storm_config();
  const RunOutput adaptive = run_scenario(config, PolicySpec::adaptive(), 42);
  const RunOutput lookahead =
      run_scenario(config, PolicySpec::lookahead_spec(1, 1), 42);
  expect_same_metrics(lookahead.metrics, adaptive.metrics,
                      {"policy", "wall_seconds"});
  EXPECT_GT(adaptive.metrics.client_retries, 0u);
}

// An enabled search commits only candidates its clones certified as no
// worse than Algorithm 1's choice — so the realized pool can shrink (cost
// win) but rejections/violations stay in the same regime as adaptive.
TEST(LookaheadPolicy, SearchNeverDegradesQosVersusAdaptive) {
  ScenarioConfig config = web_scenario(0.02);
  config.horizon = 4.0 * 3600.0;
  config.web.horizon = config.horizon;

  const RunMetrics adaptive =
      run_scenario(config, PolicySpec::adaptive(), 42).metrics;
  const RunOutput lookahead_out =
      run_scenario(config, PolicySpec::lookahead_spec(3, 2), 42);
  const RunMetrics& lookahead = lookahead_out.metrics;

  EXPECT_FALSE(lookahead_out.decisions.empty());
  EXPECT_GT(lookahead.completed, 0u);
  // Without a market the what-if cost is the VM-hours proxy, so committed
  // overrides can only shrink the pool.
  EXPECT_LE(lookahead.vm_hours, adaptive.vm_hours * 1.02);
  // The clones' feasibility gate keeps the QoS regime: allow stochastic
  // drift (forecast vs realized arrivals) but not a different regime.
  EXPECT_LE(lookahead.rejection_rate,
            adaptive.rejection_rate + config.modeler.rejection_tolerance);
}

// --- bounded what-if forks --------------------------------------------------

void expect_same_outcome(const WhatIfOutcome& actual,
                         const WhatIfOutcome& expected) {
  EXPECT_EQ(actual.valid, expected.valid);
  EXPECT_EQ(actual.dominated, expected.dominated);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(actual.cost),
            std::bit_cast<std::uint64_t>(expected.cost));
  EXPECT_EQ(actual.rejected, expected.rejected);
  EXPECT_EQ(actual.qos_violations, expected.qos_violations);
  EXPECT_EQ(actual.completed, expected.completed);
}

WhatIfSpec bounded_by(WhatIfSpec spec, const WhatIfOutcome& outcome) {
  spec.max_rejected = outcome.rejected;
  spec.max_qos_violations = outcome.qos_violations;
  spec.cost_to_beat = outcome.cost;
  return spec;
}

// The forks of KernelGolden.WhatIfOutcomesAreBitIdentical (6 h and 12 h,
// pool sizes 1-4, forecast rate 10, seed 2024, three windows ahead), each
// run unbounded, bounded by the target-2 outcome, and bounded by its own.
// A bounded fork that runs to the horizon must report the unbounded outcome
// bit for bit; one that stops early must stand for a full run that breaks a
// bound. The cost bound holds only without a market, where the cost is the
// VM-hours proxy. A fork bounded by its own outcome breaks no count bound
// and ties its cost bound only at the horizon, where no check runs, so it
// must never stop.
void expect_bounded_forks_stop_only_when_they_lose(
    const ScenarioConfig& config) {
  const bool cost_bounded = !config.market.enabled;
  World world(config, PolicySpec::lookahead_spec(3, 3), 42);
  world.start();
  std::size_t stopped = 0;
  std::size_t ran = 0;
  for (const SimTime at : {6.0 * 3600.0, 12.0 * 3600.0}) {
    world.run_to(at);
    WhatIfSpec spec;
    spec.forecast_rate = 10.0;
    spec.forecast_seed = 2024;
    spec.horizon = at + 180.0;
    std::vector<WhatIfOutcome> full;
    for (std::size_t target = 1; target <= 4; ++target) {
      spec.target_instances = target;
      full.push_back(world.what_if(spec));
      ASSERT_TRUE(full.back().valid);
      ASSERT_FALSE(full.back().dominated);
    }
    const WhatIfOutcome& yardstick = full[1];  // target 2
    for (std::size_t target = 1; target <= 4; ++target) {
      SCOPED_TRACE(testing::Message() << "t=" << at << " target=" << target);
      spec.target_instances = target;
      const WhatIfOutcome& unbounded = full[target - 1];
      expect_same_outcome(world.what_if(bounded_by(spec, unbounded)),
                          unbounded);

      const WhatIfOutcome outcome = world.what_if(bounded_by(spec, yardstick));
      EXPECT_TRUE(outcome.valid);
      if (!outcome.dominated) {
        ++ran;
        expect_same_outcome(outcome, unbounded);
        continue;
      }
      ++stopped;
      EXPECT_TRUE(unbounded.rejected > yardstick.rejected ||
                  unbounded.qos_violations > yardstick.qos_violations ||
                  (cost_bounded && unbounded.cost >= yardstick.cost));
    }
  }
  EXPECT_GT(stopped, 0u);
  EXPECT_GT(ran, 0u);
}

TEST(WhatIf, BoundedForkStopsOnlyWhenItLoses) {
  expect_bounded_forks_stop_only_when_they_lose(web_scenario(0.01));
}

// With a live spot market the cost is the market ledger, which the fork
// leaves unbounded: only the rejection and QoS-violation bounds stop it.
TEST(WhatIf, BoundedMarketForkIgnoresTheCostBound) {
  ScenarioConfig config = web_scenario(0.01);
  config.market.enabled = true;
  config.market.acquisition.spot_fraction = 0.5;
  config.market.acquisition.bid = 0.70;
  expect_bounded_forks_stop_only_when_they_lose(config);
}

}  // namespace
}  // namespace cloudprov
