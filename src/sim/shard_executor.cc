#include "sim/shard_executor.h"

#include <atomic>
#include <barrier>
#include <thread>
#include <vector>

#include "util/check.h"

namespace cloudprov {
namespace {

/// Boundary k (1-based) of a window schedule. Multiplication, not
/// accumulation: every worker and the sequential path compute the exact
/// same double for boundary k.
SimTime boundary(SimTime window, std::uint64_t k) {
  return window * static_cast<double>(k);
}

/// One home's claim cursor: how many of the home's units have been claimed
/// this window. Padded to a cache line of its own, so claims on one home
/// never contend with claims on another.
struct alignas(64) ClaimCursor {
  std::atomic<std::size_t> claimed{0};
};

}  // namespace

std::uint64_t run_sharded_windows(
    std::size_t workers, std::size_t units, SimTime window, SimTime horizon,
    const std::function<void(std::size_t worker, std::size_t unit,
                             SimTime t)>& advance,
    const std::function<void(SimTime t)>& commit,
    const ShardExecutorHooks& hooks) {
  ensure_arg(workers >= 1, "run_sharded_windows: workers must be >= 1");
  ensure_arg(window > 0.0, "run_sharded_windows: window must be positive");
  ensure_arg(horizon >= 0.0, "run_sharded_windows: horizon must be >= 0");

  // Commit fires at every boundary strictly below the horizon; the segment
  // from the last boundary to the horizon runs without a trailing commit
  // (there is nothing left to reconcile once the run is over).
  std::uint64_t windows = 0;
  for (std::uint64_t k = 1; boundary(window, k) < horizon; ++k) ++windows;

  if (workers == 1) {
    const auto advance_all = [&](SimTime t) {
      for (std::size_t unit = 0; unit < units; ++unit) advance(0, unit, t);
    };
    for (std::uint64_t k = 1; k <= windows; ++k) {
      advance_all(boundary(window, k));
      commit(boundary(window, k));
    }
    advance_all(horizon);
    return windows;
  }

  // Home h holds units h, h + workers, h + 2 * workers, ...; one increment
  // of its cursor claims the next of them (an index past the last unit
  // means the home is drained). The increment makes each claim unique; the
  // barrier orders a unit's windows, whichever workers run them.
  std::vector<ClaimCursor> cursors(workers);
  const auto claim = [&](std::size_t home) {
    return home + workers * cursors[home].claimed.fetch_add(1);
  };
  // The worker's own home first, then every other home in turn.
  const auto advance_window = [&](std::size_t self, SimTime t) {
    for (std::size_t i = 0; i < workers; ++i) {
      const std::size_t home = (self + i) % workers;
      for (std::size_t unit = claim(home); unit < units; unit = claim(home)) {
        advance(self, unit, t);
      }
    }
  };

  // The barrier's completion step is the serial commit: the last worker to
  // arrive runs it while every peer is parked, and it happens-before every
  // worker's next window. An exception from it (or from `advance` on a
  // worker) ends the process, as any exception escaping a thread does.
  std::uint64_t committed = 0;
  const auto on_boundary = [&]() noexcept {
    for (ClaimCursor& cursor : cursors) cursor.claimed = 0;
    commit(boundary(window, ++committed));
  };
  std::barrier sync(static_cast<std::ptrdiff_t>(workers), on_boundary);

  const auto worker = [&](std::size_t self) {
    for (std::uint64_t k = 1; k <= windows; ++k) {
      advance_window(self, boundary(window, k));
      if (hooks.barrier_enter) hooks.barrier_enter(self);
      sync.arrive_and_wait();
      if (hooks.barrier_leave) hooks.barrier_leave(self);
    }
    advance_window(self, horizon);
  };
  {
    std::vector<std::jthread> threads;  // joined at the end of this block
    threads.reserve(workers);
    for (std::size_t self = 0; self < workers; ++self) {
      threads.emplace_back(worker, self);
    }
  }
  return windows;
}

}  // namespace cloudprov
