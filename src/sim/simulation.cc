#include "sim/simulation.h"

#include <utility>

#include "profile/wall_profiler.h"
#include "telemetry/telemetry.h"
#include "util/check.h"

namespace cloudprov {

std::uint64_t Simulation::run(SimTime until) {
  std::uint64_t count = 0;
  SimTime time = 0.0;
  EventAction action;
  // One scope around the whole loop (not per event: two clock reads per
  // ~170ns dispatch would dwarf the work). Subsystem scopes opened inside
  // dispatched actions nest under it, so engine self time = loop minus them.
  ProfileScope profile_run(profiler_, ProfileCategory::kEngineRun);
  // Single-scan dispatch: pop_due() combines the empty / next_time / pop
  // checks, so each event costs one heap or lane pop plus one indirect call.
  while (queue_.pop_due(until, time, action)) {
    now_ = time;
    action();
    action.reset();
    ++executed_;
    ++count;
    if (telemetry_ != nullptr &&
        (executed_ & (kEngineSampleStride - 1)) == 0) {
      telemetry_->engine_sample(now_, executed_, queue_.size());
    }
    if (profiler_ != nullptr &&
        (executed_ & (WallProfiler::kSnapshotStride - 1)) == 0) {
      profiler_->maybe_snapshot(now_, executed_, queue_.size(),
                                queue_.heap_depth(), queue_.heap_high_water(),
                                queue_.slab_high_water(), queue_.stale_drops(),
                                queue_.boxed_pushed_count());
    }
  }
  // Advance the clock to the horizon even if the model went quiet earlier,
  // so time-weighted statistics cover the full observation window.
  if (until > now_ && until < std::numeric_limits<SimTime>::infinity()) {
    now_ = until;
  }
  return count;
}

bool Simulation::step() {
  SimTime time = 0.0;
  EventAction action;
  if (!queue_.pop_due(std::numeric_limits<SimTime>::infinity(), time, action)) {
    return false;
  }
  now_ = time;
  action();
  ++executed_;
  return true;
}

PeriodicProcess::PeriodicProcess(Simulation& sim, SimTime first_time,
                                 SimTime period, std::function<void(SimTime)> action)
    : sim_(sim), period_(period), action_(std::move(action)) {
  ensure_arg(period > 0.0, "PeriodicProcess: period must be positive");
  pending_ = sim_.schedule_at(first_time,
                              EventAction::method<&PeriodicProcess::fire>(this));
}

PeriodicProcess::PeriodicProcess(Simulation& sim, const EventStamp& stamp,
                                 SimTime period,
                                 std::function<void(SimTime)> action)
    : sim_(sim), period_(period), action_(std::move(action)) {
  ensure_arg(period > 0.0, "PeriodicProcess: period must be positive");
  pending_ = sim_.schedule_stamped(
      stamp, EventAction::method<&PeriodicProcess::fire>(this));
}

std::optional<EventStamp> PeriodicProcess::pending_stamp() const {
  if (!running_) return std::nullopt;
  return sim_.stamp(pending_);
}

void PeriodicProcess::stop() {
  if (!running_) return;
  running_ = false;
  sim_.cancel(pending_);
  pending_ = kInvalidEventId;
}

void PeriodicProcess::fire() {
  if (!running_) return;
  pending_ = sim_.schedule_in(period_,
                              EventAction::method<&PeriodicProcess::fire>(this));
  action_(sim_.now());
}

}  // namespace cloudprov
