// Conservative parallel window execution over worker threads.
//
// The paper's control loop makes time naturally window-structured: arrivals
// are analyzed and Algorithm 1 decisions are committed once per analysis
// window (60 s). Multi-tenant runs exploit that structure for parallelism:
// the executor schedules *units* (tenants, each on an event kernel of its
// own) onto worker threads, and units only ever interact inside a *serial
// commit section* executed at every window boundary while all workers are
// parked on a barrier. Within a window, unit state is disjoint by
// construction, so this is a conservative PDES scheme: no rollbacks, no
// cross-unit event traffic, and — because the commit section runs in a
// fixed deterministic order regardless of which worker arrives last —
// results are bit-identical for every worker count, including the
// threadless workers == 1 path.
//
// Home plus claim: unit u's home is worker u % workers. In each window a
// worker first advances the units of its own home, then claims the
// unclaimed units of the other homes, so a worker whose window ran short
// absorbs the slow one's jitter instead of parking. Every home has one
// cache-line-padded claim cursor, reset inside the serial commit; one
// atomic increment claims a unit, so every unit is still advanced exactly
// once per window, by one thread. Home affinity keeps a unit on the same
// worker (and its caches) whenever the window is balanced.
//
// The executor is policy-free: it knows nothing about tenants, capacity, or
// markets. Callers supply two callbacks:
//   advance(worker, unit, t) — advance `unit` to sim time t (inclusive) on
//                              `worker`'s thread; the worker may differ
//                              from window to window;
//   commit(t)                — the serial barrier section at boundary t: the
//                              std::barrier's completion step, run by
//                              exactly one thread while every other worker
//                              is parked, so it happens-before the next
//                              window on every worker.
// Optional hooks bracket each worker's barrier wait so callers can
// attribute parked wall time (profile category shard.barrier).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "util/units.h"

namespace cloudprov {

/// Per-worker instrumentation hooks; every member may be empty. Invoked on
/// the worker's own thread, outside the barrier.
struct ShardExecutorHooks {
  std::function<void(std::size_t worker)> barrier_enter;
  std::function<void(std::size_t worker)> barrier_leave;
};

/// Drives `units` units on `workers` workers from t = 0 to `horizon` in
/// lockstep windows of `window` sim seconds: advance every unit to boundary
/// k*window, run commit(k*window) serially, repeat, then advance every unit
/// to the horizon (no commit fires at or beyond the horizon). Boundaries are
/// computed as window * k — one multiplication, not accumulation — so the
/// sequential and threaded paths see bit-identical boundary times.
/// Returns the number of commit sections executed.
///
/// workers == 1 runs everything inline on the calling thread in ascending
/// unit order (no thread is spawned); workers > 1 spawns one thread per
/// worker. `commit` may touch any unit's state; `advance` must touch only
/// its own unit's and its own worker's.
std::uint64_t run_sharded_windows(
    std::size_t workers, std::size_t units, SimTime window, SimTime horizon,
    const std::function<void(std::size_t worker, std::size_t unit,
                             SimTime t)>& advance,
    const std::function<void(SimTime t)>& commit,
    const ShardExecutorHooks& hooks = {});

}  // namespace cloudprov
