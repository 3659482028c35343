#include "experiment/runner.h"

#include <atomic>
#include <mutex>
#include <thread>
#include <memory>

#include "experiment/world.h"
#include "util/check.h"
#include "util/log.h"

namespace cloudprov {
namespace {

// Scoped sim-time log prefix: while a telemetry-instrumented replication
// runs, CLOUDPROV_LOG lines carry [t=...] so they correlate with trace
// events. Never installed for batch/parallel runs (the provider is global).
class ScopedLogTime {
 public:
  explicit ScopedLogTime(const Simulation& sim) {
    Logger::instance().set_time_provider([&sim] { return sim.now(); });
  }
  ~ScopedLogTime() { Logger::instance().set_time_provider(nullptr); }
  ScopedLogTime(const ScopedLogTime&) = delete;
  ScopedLogTime& operator=(const ScopedLogTime&) = delete;
};

}  // namespace

RunOutput run_scenario(const ScenarioConfig& config, const PolicySpec& policy,
                       std::uint64_t seed,
                       const std::optional<TelemetryOptions>& telemetry_opts,
                       WallProfiler* profiler) {
  World world(config, policy, seed, telemetry_opts, profiler);
  std::optional<ScopedLogTime> log_time;
  if (world.telemetry() != nullptr) log_time.emplace(world.sim());
  world.start();
  world.run_to(config.horizon);
  return world.finish();
}

std::vector<std::uint64_t> replication_seeds(std::size_t replications,
                                             std::uint64_t base_seed) {
  std::vector<std::uint64_t> seeds(replications);
  SplitMix64 seeder(base_seed);
  for (auto& seed : seeds) seed = seeder.next();
  return seeds;
}

std::size_t effective_parallelism(std::size_t parallelism,
                                  std::size_t replications) {
  if (parallelism == 0) {
    parallelism = std::max(1u, std::thread::hardware_concurrency());
  }
  return std::min(parallelism, replications);
}

std::vector<RunMetrics> run_replications(
    const ScenarioConfig& config, const PolicySpec& policy,
    std::size_t replications, std::uint64_t base_seed,
    const std::function<void(const RunMetrics&)>& progress,
    std::size_t parallelism) {
  ensure_arg(replications >= 1, "run_replications: need at least one run");
  parallelism = effective_parallelism(parallelism, replications);

  // Seeds are fixed up front so the result set does not depend on worker
  // scheduling; each replication is fully self-contained (own Simulation,
  // Datacenter, RNG streams), making this loop embarrassingly parallel.
  const std::vector<std::uint64_t> seeds =
      replication_seeds(replications, base_seed);

  std::vector<RunMetrics> runs(replications);
  if (parallelism == 1) {
    for (std::size_t i = 0; i < replications; ++i) {
      runs[i] = run_scenario(config, policy, seeds[i]).metrics;
      if (progress) progress(runs[i]);
    }
    return runs;
  }

  std::atomic<std::size_t> next_index{0};
  std::mutex progress_mutex;
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next_index.fetch_add(1);
      if (i >= replications) return;
      RunMetrics metrics = run_scenario(config, policy, seeds[i]).metrics;
      if (progress) {
        std::scoped_lock lock(progress_mutex);
        progress(metrics);
      }
      runs[i] = std::move(metrics);
    }
  };
  std::vector<std::thread> workers;
  workers.reserve(parallelism);
  for (std::size_t w = 0; w < parallelism; ++w) workers.emplace_back(worker);
  for (std::thread& thread : workers) thread.join();
  return runs;
}

std::vector<SampledSeries::Point> workload_rate_curve(
    const ScenarioConfig& config, SimTime window, std::size_t replications,
    std::uint64_t base_seed) {
  ensure_arg(window > 0.0, "workload_rate_curve: window must be > 0");
  ensure_arg(replications >= 1, "workload_rate_curve: need at least one run");
  const auto bins = static_cast<std::size_t>(config.horizon / window);
  std::vector<double> counts(bins, 0.0);
  SplitMix64 seeder(base_seed);
  for (std::size_t rep = 0; rep < replications; ++rep) {
    Rng rng(seeder.next());
    auto source = make_scenario_source(config);
    while (auto arrival = source->next(rng)) {
      const auto bin = static_cast<std::size_t>(arrival->time / window);
      if (bin < bins) counts[bin] += 1.0;
    }
  }
  std::vector<SampledSeries::Point> points;
  points.reserve(bins);
  for (std::size_t i = 0; i < bins; ++i) {
    points.push_back(SampledSeries::Point{
        static_cast<double>(i) * window,
        counts[i] / (window * static_cast<double>(replications))});
  }
  return points;
}

}  // namespace cloudprov
