// Microbenchmark MB4: end-to-end simulator throughput.
//
// Measures simulated requests per wall-clock second for a served Poisson
// workload (broker -> admission -> round-robin -> VM service -> stats),
// and for raw workload generation. These rates determine the wall time of a
// paper-scale (--scale 1) Figure 5 replication: ~500M requests.
#include <benchmark/benchmark.h>

#include <memory>
#include <optional>

#include "cloud/broker.h"
#include "core/application_provisioner.h"
#include "experiment/multi_tenant.h"
#include "experiment/world.h"
#include "profile/wall_profiler.h"
#include "resilience/retry_gateway.h"
#include "telemetry/telemetry.h"
#include "workload/bot_workload.h"
#include "workload/poisson_source.h"
#include "workload/web_workload.h"

namespace cloudprov {
namespace {

void BM_ServedPoissonRequests(benchmark::State& state) {
  const auto instances = static_cast<std::size_t>(state.range(0));
  std::uint64_t total_requests = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Simulation sim;
    DatacenterConfig dc_config;
    dc_config.host_count = instances / 8 + 1;
    Datacenter datacenter(sim, dc_config, std::make_unique<LeastLoadedPlacement>());
    QosTargets qos;
    qos.max_response_time = 0.250;
    ProvisionerConfig prov_config;
    prov_config.initial_service_time_estimate = 0.105;
    ApplicationProvisioner provisioner(sim, datacenter, qos, prov_config);
    provisioner.scale_to(instances);
    const double lambda = 8.0 * static_cast<double>(instances);  // rho = 0.84
    PoissonSource source(lambda,
                         std::make_shared<ScaledUniformDistribution>(0.1, 0.1),
                         0.0, 100000.0 / lambda);
    Broker broker(sim, source, provisioner, Rng(7));
    broker.start();
    state.ResumeTiming();
    sim.run();
    total_requests += broker.generated();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(total_requests));
}
BENCHMARK(BM_ServedPoissonRequests)->Arg(2)->Arg(16)->Arg(150)
    ->Unit(benchmark::kMillisecond);

// Telemetry overhead on the served-request hot path: arg 0 selects the
// configuration (0 = telemetry off, 1 = monitors on + spans sampled at 5%,
// 2 = monitors on + every request traced). Compare items/s against
// configuration 0 to price the observability subsystem.
void BM_ServedRequestsTelemetry(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  constexpr std::size_t kInstances = 16;
  std::uint64_t total_requests = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::unique_ptr<Telemetry> telemetry;
    if (mode > 0) {
      TelemetryOptions options;
      options.span_sample_rate = mode == 1 ? 0.05 : 1.0;
      options.drift_enabled = true;
      options.slo_enabled = true;
      options.slo.log_alerts = false;
      telemetry = std::make_unique<Telemetry>(options);
    }
    Simulation sim;
    sim.set_telemetry(telemetry.get());
    DatacenterConfig dc_config;
    dc_config.host_count = kInstances / 8 + 1;
    Datacenter datacenter(sim, dc_config, std::make_unique<LeastLoadedPlacement>());
    datacenter.set_telemetry(telemetry.get());
    QosTargets qos;
    qos.max_response_time = 0.250;
    ProvisionerConfig prov_config;
    prov_config.initial_service_time_estimate = 0.105;
    ApplicationProvisioner provisioner(sim, datacenter, qos, prov_config);
    provisioner.set_telemetry(telemetry.get());
    provisioner.scale_to(kInstances);
    const double lambda = 8.0 * static_cast<double>(kInstances);  // rho = 0.84
    PoissonSource source(lambda,
                         std::make_shared<ScaledUniformDistribution>(0.1, 0.1),
                         0.0, 100000.0 / lambda);
    Broker broker(sim, source, provisioner, Rng(7));
    broker.start();
    state.ResumeTiming();
    sim.run();
    total_requests += broker.generated();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(total_requests));
}
BENCHMARK(BM_ServedRequestsTelemetry)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

// Overhead of the neutral resilience gateway on the served-request hot
// path: arg 0 wires the Broker straight to the provisioner, arg 1 inserts a
// RetryGateway with every feature off (attempt 1 forwards verbatim, no
// timers, no RNG). Compare items/s: the delta prices the per-request
// accounting the layer adds when merely enabled.
void BM_RetryPathOverhead(benchmark::State& state) {
  const bool gated = state.range(0) != 0;
  constexpr std::size_t kInstances = 16;
  std::uint64_t total_requests = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Simulation sim;
    DatacenterConfig dc_config;
    dc_config.host_count = kInstances / 8 + 1;
    Datacenter datacenter(sim, dc_config,
                          std::make_unique<LeastLoadedPlacement>());
    QosTargets qos;
    qos.max_response_time = 0.250;
    ProvisionerConfig prov_config;
    prov_config.initial_service_time_estimate = 0.105;
    ApplicationProvisioner provisioner(sim, datacenter, qos, prov_config);
    provisioner.scale_to(kInstances);
    std::optional<RetryGateway> gateway;
    if (gated) {
      ResilienceConfig resilience;
      resilience.enabled = true;  // every feature at its neutral default
      gateway.emplace(sim, provisioner, resilience, Rng(11));
    }
    RequestSink& sink = gated ? static_cast<RequestSink&>(*gateway)
                              : static_cast<RequestSink&>(provisioner);
    const double lambda = 8.0 * kInstances;  // rho = 0.84
    PoissonSource source(lambda,
                         std::make_shared<ScaledUniformDistribution>(0.1, 0.1),
                         0.0, 100000.0 / lambda);
    Broker broker(sim, source, sink, Rng(7));
    broker.start();
    state.ResumeTiming();
    sim.run();
    total_requests += broker.generated();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(total_requests));
}
BENCHMARK(BM_RetryPathOverhead)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

// Wall-clock profiler overhead on the served-request hot path: arg 0 runs
// with no profiler attached (the null-pointer fast path — must be free),
// arg 1 attaches a WallProfiler so the run loop pays the stride-gated
// snapshot check plus one scope around the whole run. Compare items/s
// against arg 0: the delta must stay under 2% (the profiler deliberately
// scopes subsystem hooks, not individual events).
void BM_ProfilerOverhead(benchmark::State& state) {
  const bool profiled = state.range(0) != 0;
  constexpr std::size_t kInstances = 16;
  std::uint64_t total_requests = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::optional<WallProfiler> profiler;
    if (profiled) profiler.emplace(/*snapshot_interval_seconds=*/0.01);
    Simulation sim;
    sim.set_profiler(profiler.has_value() ? &*profiler : nullptr);
    DatacenterConfig dc_config;
    dc_config.host_count = kInstances / 8 + 1;
    Datacenter datacenter(sim, dc_config,
                          std::make_unique<LeastLoadedPlacement>());
    QosTargets qos;
    qos.max_response_time = 0.250;
    ProvisionerConfig prov_config;
    prov_config.initial_service_time_estimate = 0.105;
    ApplicationProvisioner provisioner(sim, datacenter, qos, prov_config);
    provisioner.scale_to(kInstances);
    const double lambda = 8.0 * kInstances;  // rho = 0.84
    PoissonSource source(lambda,
                         std::make_shared<ScaledUniformDistribution>(0.1, 0.1),
                         0.0, 100000.0 / lambda);
    Broker broker(sim, source, provisioner, Rng(7));
    broker.start();
    state.ResumeTiming();
    sim.run();
    total_requests += broker.generated();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(total_requests));
}
BENCHMARK(BM_ProfilerOverhead)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

// Cost of one what-if fork: snapshot the whole world (telemetry and
// decision logs off, as the lookahead search forks) and restore it into a
// fresh World with every pending event re-pushed. This prices a lookahead
// candidate before its forecast windows even run; the arg is how many
// simulated hours of the web day the world has already executed (pool
// history, VM records, and pending events all grow the state).
void BM_WorldSnapshotClone(benchmark::State& state) {
  const auto hours = static_cast<double>(state.range(0));
  ScenarioConfig config = web_scenario(0.02);
  config.set_horizon(86400.0);
  World world(config, PolicySpec::adaptive(), 42);
  world.start();
  world.run_to(hours * 3600.0);
  std::uint64_t clones = 0;
  for (auto _ : state) {
    const WorldState snap = world.snapshot(/*include_records=*/false);
    World clone(config, PolicySpec::adaptive(), 42, snap);
    benchmark::DoNotOptimize(clone.now());
    ++clones;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(clones));
}
BENCHMARK(BM_WorldSnapshotClone)->Arg(1)->Arg(6)->Arg(18)
    ->Unit(benchmark::kMicrosecond);

void BM_WebWorkloadGeneration(benchmark::State& state) {
  std::uint64_t generated = 0;
  for (auto _ : state) {
    WebWorkloadConfig config;
    config.scale = 0.01;
    config.horizon = 86400.0;
    WebWorkload workload(config);
    Rng rng(3);
    while (workload.next(rng)) ++generated;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(generated));
}
BENCHMARK(BM_WebWorkloadGeneration)->Unit(benchmark::kMillisecond);

void BM_BotWorkloadGeneration(benchmark::State& state) {
  std::uint64_t generated = 0;
  for (auto _ : state) {
    BotWorkload workload{};
    Rng rng(3);
    while (workload.next(rng)) ++generated;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(generated));
}
BENCHMARK(BM_BotWorkloadGeneration)->Unit(benchmark::kMillisecond);

// Sharded multi-tenant scale-out: 64 tenants contending for shared capacity,
// each on its own event kernel, partitioned across N worker shards with a
// barrier commit every 60 s analysis window. Items/s counts aggregate
// completed requests, measured on wall clock (UseRealTime) — thread-parallel
// shards only help elapsed time, not CPU time. The CPU time column is the
// whole process's (MeasureProcessCPUTime), every worker thread included, so
// bench/record_bench.py can store CPU items/s beside wall items/s: on a host
// with fewer cores than shards the wall figure alone says little. Results are
// bit-identical across shard counts (see tests/multi_tenant_test.cc), so this
// isolates pure execution cost: speedup tracks available cores.
void BM_ShardedMultiTenant(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  MultiTenantConfig config;
  config.tenants = 64;
  config.seed = 42;
  config.horizon = 600.0;
  config.window = 60.0;
  config.tenant_scale = 0.01;
  config.capacity = 256;
  std::uint64_t completed = 0;
  std::uint64_t events = 0;
  for (auto _ : state) {
    MultiTenantOptions options;
    options.shards = shards;
    const MultiTenantResult result = run_multi_tenant(config, options);
    completed += result.aggregate.completed;
    events += result.simulated_events;
    benchmark::DoNotOptimize(result.aggregate.avg_response_time);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(completed));
  state.counters["events_per_s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ShardedMultiTenant)->Arg(1)->Arg(2)->Arg(4)
    ->MeasureProcessCPUTime()->UseRealTime()->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace cloudprov
