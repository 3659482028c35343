#include "experiment/runner.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "experiment/world.h"
#include "util/check.h"
#include "util/log.h"

namespace cloudprov {

ScopedLogTime::ScopedLogTime(World& world)
    : installed_(world.telemetry() != nullptr) {
  if (installed_) {
    const Simulation& sim = world.sim();
    Logger::instance().set_time_provider([&sim] { return sim.now(); });
  }
}

ScopedLogTime::~ScopedLogTime() {
  if (installed_) Logger::instance().set_time_provider(nullptr);
}

RunOutput run_scenario(const ScenarioConfig& config, const PolicySpec& policy,
                       std::uint64_t seed,
                       const std::optional<TelemetryOptions>& telemetry_opts,
                       WallProfiler* profiler) {
  World world(config, policy, seed, telemetry_opts, profiler);
  const ScopedLogTime log_time(world);
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

std::vector<RunMetrics> run_replications(
    const ScenarioConfig& config, const PolicySpec& policy,
    std::size_t replications, std::uint64_t base_seed,
    const std::function<void(const RunMetrics&)>& progress,
    std::size_t parallelism,
    const std::function<RunMetrics(std::uint64_t seed)>& replication_zero) {
  ensure_arg(replications >= 1, "run_replications: need at least one run");
  if (parallelism == 0) {
    parallelism = std::max(1u, std::thread::hardware_concurrency());
  }
  parallelism = std::min(parallelism, replications);

  // Seeds are fixed up front so the result set does not depend on worker
  // scheduling; each replication is fully self-contained (own Simulation,
  // Datacenter, RNG streams), making this loop embarrassingly parallel.
  const std::vector<std::uint64_t> seeds =
      replication_seeds(replications, base_seed);

  std::vector<RunMetrics> runs(replications);
  std::mutex mutex;  // serializes `progress` and guards `failure`
  std::exception_ptr failure;
  // Replication 0 is the caller's; each thread then claims the next index.
  std::atomic<std::size_t> next_index{1};
  const auto run_from = [&](std::size_t i) {
    try {
      for (; i < replications; i = next_index.fetch_add(1)) {
        RunMetrics metrics = i == 0 && replication_zero
                                 ? replication_zero(seeds[0])
                                 : run_scenario(config, policy, seeds[i]).metrics;
        if (progress) {
          std::scoped_lock lock(mutex);
          progress(metrics);
        }
        runs[i] = std::move(metrics);
      }
    } catch (...) {
      next_index = replications;  // the others stop after their current run
      std::scoped_lock lock(mutex);
      if (failure == nullptr) failure = std::current_exception();
    }
  };
  {
    std::vector<std::jthread> workers;  // joined at the end of this block
    workers.reserve(parallelism - 1);
    for (std::size_t w = 1; w < parallelism; ++w) {
      workers.emplace_back([&] { run_from(next_index.fetch_add(1)); });
    }
    run_from(0);
  }
  if (failure != nullptr) std::rethrow_exception(failure);
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
