// Experiment runner: wires a scenario + policy into a full simulation,
// executes it, and extracts the paper's output metrics.
//
// Each replication derives every random stream (workload, broker, placement)
// from a single base seed via splitmix64 splitting, so a (scenario, policy,
// seed) triple is fully reproducible and policies can be compared on
// identically-seeded workloads.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "experiment/metrics.h"
#include "experiment/scenario.h"
#include "experiment/world.h"
#include "stats/timeseries.h"
#include "telemetry/telemetry.h"

namespace cloudprov {
// RunOutput lives in experiment/world.h; run_scenario is a thin wrapper over
// World (construct, start, run to horizon, finish).

/// Runs one replication. `seed` selects the replication's random streams.
/// Passing `telemetry` options instruments the whole pipeline (engine,
/// data center, VMs, provisioner, adaptive policy) and returns the
/// collector in RunOutput::telemetry. Passing a `profiler` (borrowed)
/// attributes the run's wall time; like telemetry it is output-only and
/// leaves all metrics bit-identical.
RunOutput run_scenario(const ScenarioConfig& config, const PolicySpec& policy,
                       std::uint64_t seed,
                       const std::optional<TelemetryOptions>& telemetry =
                           std::nullopt,
                       WallProfiler* profiler = nullptr);

/// Scoped sim-time log prefix: while a telemetry-instrumented world runs,
/// the lines its thread logs carry [t=...] so they correlate with trace
/// events; a world without telemetry installs none. The provider is
/// per-thread, so replications running beside it on other threads log
/// without one. Every path that runs an instrumented World holds one.
class ScopedLogTime {
 public:
  explicit ScopedLogTime(World& world);
  ~ScopedLogTime();
  ScopedLogTime(const ScopedLogTime&) = delete;
  ScopedLogTime& operator=(const ScopedLogTime&) = delete;

 private:
  bool installed_;
};

/// Seeds used by run_replications for `replications` runs from `base_seed`
/// (splitmix64 sequence): lets callers reproduce any single replication
/// outside the batch.
std::vector<std::uint64_t> replication_seeds(std::size_t replications,
                                             std::uint64_t base_seed);

/// Runs `replications` independent seeds and returns the per-run metrics in
/// seed order. The calling thread runs replication 0 while
/// min(parallelism, replications) - 1 worker threads (`parallelism` 0 =
/// one per hardware thread) take the others; the caller then takes what is
/// left and joins them. `replication_zero` (optional) runs replication 0
/// in place of run_scenario, given its seed: an instrumented run whose
/// telemetry, profiler and thread-local log prefix stay on the calling
/// thread. `progress` (optional) is invoked after each completed run
/// (serialized). Results are identical for any parallelism level because
/// every replication's seed is fixed up front and no state is shared
/// between runs. The first exception a run throws is rethrown here once
/// every thread has stopped.
std::vector<RunMetrics> run_replications(
    const ScenarioConfig& config, const PolicySpec& policy,
    std::size_t replications, std::uint64_t base_seed = 42,
    const std::function<void(const RunMetrics&)>& progress = {},
    std::size_t parallelism = 1,
    const std::function<RunMetrics(std::uint64_t seed)>& replication_zero =
        {});

/// Samples a workload's realized arrival-rate curve (no serving system):
/// used by the Figure 3 / Figure 4 reproductions. Returns one point per
/// `window` seconds averaged over `replications` seeds.
std::vector<SampledSeries::Point> workload_rate_curve(
    const ScenarioConfig& config, SimTime window, std::size_t replications,
    std::uint64_t base_seed = 42);

}  // namespace cloudprov
