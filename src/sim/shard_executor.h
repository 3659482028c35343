// Conservative parallel window execution over shard worker threads.
//
// The paper's control loop makes time naturally window-structured: arrivals
// are analyzed and Algorithm 1 decisions are committed once per analysis
// window (60 s). Multi-tenant runs exploit that structure for parallelism:
// tenants are partitioned across shards, each shard's worker advances its
// residents (each on an event kernel of its own), and shards only ever
// interact inside a *serial commit section* executed at every window
// boundary while all workers are parked on a barrier. Within a window,
// shard state is disjoint by construction, so this is a conservative PDES
// scheme: no rollbacks, no cross-shard event traffic, and — because the
// commit section runs in a fixed deterministic order regardless of which
// worker arrives last — results are bit-identical for every shard count,
// including the threadless shards == 1 path.
//
// The executor is policy-free: it knows nothing about tenants, capacity, or
// markets. Callers supply two callbacks:
//   advance(shard, t) — advance shard's residents to sim time t
//                       (inclusive), one after another; called
//                       concurrently, one worker thread per shard;
//   commit(t)         — the serial barrier section at boundary t, run by
//                       exactly one thread while every other worker is
//                       parked (mutex + condvar, so it happens-before the
//                       next window on every shard).
// Optional hooks bracket each worker's barrier wait so callers can
// attribute parked wall time (profile category shard.barrier).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "util/units.h"

namespace cloudprov {

/// Per-worker instrumentation hooks; every member may be empty. Invoked on
/// the worker's own thread, outside the barrier mutex.
struct ShardExecutorHooks {
  std::function<void(std::size_t shard)> barrier_enter;
  std::function<void(std::size_t shard)> barrier_leave;
};

/// Drives `shards` workers from t = 0 to `horizon` in lockstep windows of
/// `window` sim seconds: advance every shard to boundary k*window, run
/// commit(k*window) serially, repeat, then advance every shard to the
/// horizon (no commit fires at or beyond the horizon). Boundaries are
/// computed as window * k — one multiplication, not accumulation — so the
/// sequential and threaded paths see bit-identical boundary times.
/// Returns the number of commit sections executed.
///
/// shards == 1 runs everything inline on the calling thread (no thread is
/// spawned); shards > 1 spawns one worker per shard. `commit` may touch any
/// cross-shard state; `advance` must touch only its own shard's.
std::uint64_t run_sharded_windows(
    std::size_t shards, SimTime window, SimTime horizon,
    const std::function<void(std::size_t shard, SimTime t)>& advance,
    const std::function<void(SimTime t)>& commit,
    const ShardExecutorHooks& hooks = {});

}  // namespace cloudprov
