// Steady-state allocation audit for the serve hot path.
//
// This binary replaces the global allocator with a counting one and drives
// the same configuration as BM_ServedPoissonRequests/16 (broker -> admission
// -> round-robin -> VM service -> stats, telemetry off). After a warmup that
// brings every arena to its steady capacity — the event slab, the 4-ary
// heap, and each VM's waiting ring — a measured window of ~13k served
// requests must perform ZERO heap allocations: the kernel's typed inline
// delegates, the slab free list, and the ring buffers make the per-request
// cycle allocation-free.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>

#include "cloud/broker.h"
#include "core/application_provisioner.h"
#include "experiment/scenario.h"
#include "experiment/world.h"
#include "layered_web.h"
#include "workload/poisson_source.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (align < sizeof(void*)) align = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, align, size ? size : 1) != 0) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
// The nothrow forms too (std::stable_sort's temporary buffer uses them), so
// that every allocation is counted and is released by the free() below.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace cloudprov {
namespace {

TEST(ServePathAllocation, SteadyStateServesWithZeroHeapAllocations) {
  constexpr std::size_t kInstances = 16;
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
  const double lambda = 8.0 * static_cast<double>(kInstances);  // rho = 0.84
  PoissonSource source(lambda,
                       std::make_shared<ScaledUniformDistribution>(0.1, 0.1),
                       0.0, 200.0);
  Broker broker(sim, source, provisioner, Rng(7));
  broker.start();

  // Warmup: boots complete, arenas (slab, heap, waiting rings) reach their
  // steady capacity, and the adaptive queue bound settles on monitored data.
  sim.run(100.0);
  const std::uint64_t generated_before = broker.generated();
  const std::uint64_t completed_before = provisioner.completed();
  ASSERT_GT(generated_before, 10000u);  // the warmup actually served traffic

  const std::uint64_t allocations_before =
      g_allocations.load(std::memory_order_relaxed);
  sim.run(200.0);
  const std::uint64_t allocations_during =
      g_allocations.load(std::memory_order_relaxed) - allocations_before;

  // The window really exercised the full cycle...
  EXPECT_GT(broker.generated() - generated_before, 10000u);
  EXPECT_GT(provisioner.completed() - completed_before, 10000u);
  // ...and did so without a single heap allocation,
  EXPECT_EQ(allocations_during, 0u);
  // through the typed inline-delegate path only (no boxed closures at all:
  // arrivals, completions, and boots are method binds).
  EXPECT_EQ(sim.queue().boxed_pushed_count(), 0u);
}

// Tiered Zipf world (cache tier on, adaptive policy, telemetry off): every
// request reads the LRU/TTL directory and about half fill it. Once the
// directory has grown to its capacity, fills, touches, expiries and
// evictions recycle slab slots and index buckets, so a further stretch of
// traffic allocates only per analysis window (decision logs, the warmup
// series, the planner) and never per request.
TEST(ServePathAllocation, TieredZipfDirectoryAllocatesNothingPerRequest) {
  ScenarioConfig config = zipf_scenario(0.02);
  config.horizon = 6.0 * 3600.0;
  config.zipf.horizon = config.horizon;
  config.apptier.enabled = true;
  World world(config, PolicySpec::adaptive(), 42);
  world.start();

  // Warmup: two hours fill the directory past capacity (evictions run).
  world.run_to(2.0 * 3600.0);
  const World::Counters before = world.counters();
  ASSERT_GT(before.cache_hits + before.cache_misses, 100000u);

  const std::uint64_t allocations_before =
      g_allocations.load(std::memory_order_relaxed);
  world.run_to(5.0 * 3600.0);
  const std::uint64_t allocations_during =
      g_allocations.load(std::memory_order_relaxed) - allocations_before;
  const World::Counters after = world.counters();
  const std::uint64_t lookups = (after.cache_hits + after.cache_misses) -
                                (before.cache_hits + before.cache_misses);
  const std::uint64_t misses = after.cache_misses - before.cache_misses;

  // The stretch really served traffic through the directory...
  EXPECT_GT(lookups, 200000u);
  EXPECT_GT(misses, lookups / 4);
  // ...and its allocations scale with the 180 analysis windows it spans
  // (decision logs, the warmup series, the planners), not with the ~215k
  // lookups and ~95k fills: a node-based directory allocates twice per fill.
  constexpr std::uint64_t kWindows = 3 * 60;
  EXPECT_LT(allocations_during, 32 * kWindows)
      << allocations_during << " allocations over " << lookups << " lookups";
}

// The benchmark's web_layers world (tests/layered_web.h at scale 0.02):
// telemetry with spans and monitors, an active retry gateway, a spot market,
// VM faults and the reconciler. Every admitted attempt arms a client timeout
// on the event queue's FIFO lane and takes a gateway record; every sampled
// request takes a span slot. Once the tables have grown, a further stretch
// allocates only per analysis window (decision logs, drift windows, market
// and fault bookkeeping), never per request.
TEST(ServePathAllocation, LayeredWebAllocatesNothingPerRequest) {
  const ScenarioConfig config = layered_web_config(0.02);
  World world(config, PolicySpec::adaptive(), 42,
              layered_web_telemetry(config, 42));
  world.start();

  // Warmup: two hours grow the slabs, indexes, rings and the span trace ring.
  world.run_to(2.0 * 3600.0);
  const std::uint64_t generated_before = world.counters().generated;
  const std::uint64_t allocations_before =
      g_allocations.load(std::memory_order_relaxed);
  world.run_to(5.0 * 3600.0);
  const std::uint64_t allocations_during =
      g_allocations.load(std::memory_order_relaxed) - allocations_before;
  const std::uint64_t requests =
      world.counters().generated - generated_before;

  // The stretch served real traffic through every layer...
  EXPECT_GT(requests, 50000u);
  ASSERT_NE(world.gateway(), nullptr);
  EXPECT_GT(world.gateway()->client_attempts(), requests);
  // ...and allocated per analysis window only: a node-based in-flight table
  // allocates once per attempt.
  constexpr std::uint64_t kWindows = 3 * 60;
  EXPECT_LT(allocations_during, 32 * kWindows)
      << allocations_during << " allocations over " << requests
      << " requests";
}

// One what-if fork of the lookahead benchmark world at mid-day, forked from
// an already cached base snapshot. Restoring the clone, running it three
// windows ahead and tearing it down allocates per component: the clone
// neither allocates its 1000 hosts one by one nor rebuilds the web profile
// table, and its kernel reserves the slab, heap and lane once at the
// parent's high-water mark. A fork made 38 allocations when the bound was
// set; a clone kernel that grew one doubling at a time made 42.
TEST(ServePathAllocation, WhatIfForkAllocationsAreBounded) {
  World world(web_scenario(0.01), PolicySpec::lookahead_spec(3, 3), 42);
  world.start();
  world.run_to(12.0 * 3600.0);
  WhatIfSpec spec;
  spec.target_instances = 2;
  spec.forecast_rate = 10.0;
  spec.forecast_seed = 2024;
  spec.horizon = world.now() + 180.0;
  ASSERT_TRUE(world.what_if(spec).valid);  // caches the base snapshot

  spec.target_instances = 3;
  const std::uint64_t allocations_before =
      g_allocations.load(std::memory_order_relaxed);
  const WhatIfOutcome outcome = world.what_if(spec);
  const std::uint64_t allocations_during =
      g_allocations.load(std::memory_order_relaxed) - allocations_before;

  EXPECT_TRUE(outcome.valid);
  EXPECT_GT(outcome.completed, 1000u);  // the clone really served traffic
  EXPECT_LE(allocations_during, 40u)
      << allocations_during << " allocations in one fork";
}

}  // namespace
}  // namespace cloudprov
