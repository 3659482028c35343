// Discrete-event simulation engine.
//
// The C++ substrate standing in for CloudSim (which the paper's evaluation
// used): a clock, a deterministic pending-event set, and scheduling helpers.
// Model code (hosts, VMs, provisioners, workload sources) schedules typed
// EventActions — small callables dispatched through the kernel's inline
// delegate with no per-event heap allocation; the engine executes them in
// nondecreasing time order (FIFO among equal times).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <type_traits>
#include <utility>

#include "sim/event_queue.h"
#include "util/check.h"
#include "util/units.h"

namespace cloudprov {

class Telemetry;
class WallProfiler;

/// Cache-line aligned: a multi-tenant run gives each tenant its own kernel,
/// allocated one after another, and neighbouring tenants run on different
/// shard worker threads. Every event writes the clock and the queue's
/// counters, so another thread's data must not share their lines. Measured
/// with one kernel per shard, unaligned kernels beside other threads' data
/// cost the 64-tenant benchmark a quarter or more of its CPU time on a
/// 4-vCPU VM, depending on where the allocator put them.
class alignas(64) Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulated time in seconds.
  SimTime now() const { return now_; }

  /// Schedules `action` at absolute simulated time `time` (>= now()).
  EventId schedule_at(SimTime time, EventAction&& action) {
    ensure_arg(time >= now_, "schedule_at: cannot schedule in the past");
    return queue_.push(time, std::move(action));
  }

  /// Schedules `action` after `delay` seconds (>= 0).
  EventId schedule_in(SimTime delay, EventAction&& action) {
    ensure_arg(delay >= 0.0, "schedule_in: negative delay");
    return queue_.push(now_ + delay, std::move(action));
  }

  /// Convenience overloads: wrap any callable in an EventAction (inline —
  /// zero-allocation — when it is small and trivially copyable, boxed on
  /// the heap otherwise).
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, EventAction>)
  EventId schedule_at(SimTime time, F&& f) {
    return schedule_at(time, EventAction::make(std::forward<F>(f)));
  }
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, EventAction>)
  EventId schedule_in(SimTime delay, F&& f) {
    return schedule_in(delay, EventAction::make(std::forward<F>(f)));
  }

  /// Schedules `action` at absolute time `time` (>= now()) on the event
  /// queue's FIFO lane: for events whose times arrive in non-decreasing
  /// order, such as a broker's next arrival or client timeouts a constant
  /// delay ahead. Pop order is exactly as with schedule_at().
  EventId schedule_fifo(SimTime time, EventAction&& action) {
    ensure_arg(time >= now_, "schedule_fifo: cannot schedule in the past");
    return queue_.push_fifo(time, std::move(action));
  }
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, EventAction>)
  EventId schedule_fifo(SimTime time, F&& f) {
    return schedule_fifo(time, EventAction::make(std::forward<F>(f)));
  }

  void cancel(EventId id) { queue_.cancel(id); }

  /// Runs until the event queue drains or the clock passes `until`.
  /// Events scheduled exactly at `until` are executed. Returns the number of
  /// events executed by this call.
  std::uint64_t run(SimTime until = std::numeric_limits<SimTime>::infinity());

  /// Executes exactly one event if available. Returns false when idle.
  bool step();

  bool idle() const { return queue_.size() == 0; }
  std::uint64_t executed_events() const { return executed_; }
  EventQueue& queue() { return queue_; }
  const EventQueue& queue() const { return queue_; }

  // --- snapshot/restore support (src/lookahead) --------------------------

  /// Stamp of a live scheduled event; nullopt for stale handles.
  std::optional<EventStamp> stamp(EventId id) const { return queue_.stamp(id); }

  /// Re-inserts an event captured by stamp() under its original
  /// (time, seq) into a restored world's queue.
  EventId schedule_stamped(const EventStamp& stamp, EventAction&& action) {
    return queue_.push_stamped(stamp, std::move(action));
  }
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, EventAction>)
  EventId schedule_stamped(const EventStamp& stamp, F&& f) {
    return queue_.push_stamped(stamp, EventAction::make(std::forward<F>(f)));
  }
  /// schedule_stamped() for an event first scheduled with schedule_fifo().
  EventId schedule_fifo_stamped(const EventStamp& stamp,
                                EventAction&& action) {
    return queue_.push_fifo_stamped(stamp, std::move(action));
  }
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, EventAction>)
  EventId schedule_fifo_stamped(const EventStamp& stamp, F&& f) {
    return queue_.push_fifo_stamped(stamp,
                                    EventAction::make(std::forward<F>(f)));
  }

  std::uint64_t event_push_counter() const { return queue_.pushed_count(); }

  /// Restores the clock, the executed-event counter (which paces the
  /// telemetry engine-sample stride), and the queue's push counter to a
  /// snapshot's values. Call once after every component re-pushed its
  /// pending events.
  void restore_clock(SimTime now, std::uint64_t executed,
                     std::uint64_t push_counter) {
    now_ = now;
    executed_ = executed;
    queue_.set_push_counter(push_counter);
  }

  /// Events between two engine self-profile samples (a power of two, so
  /// the run loop tests it with a mask).
  static constexpr std::uint64_t kEngineSampleStride = 1024;
  static_assert((kEngineSampleStride & (kEngineSampleStride - 1)) == 0);

  /// Attaches an engine self-profile collector: every kEngineSampleStride
  /// executed events, run() records executed-event count and pending-queue
  /// depth. Null (the default) disables sampling; the run loop then pays a
  /// single predicted branch per event.
  void set_telemetry(Telemetry* telemetry) { telemetry_ = telemetry; }
  Telemetry* telemetry() const { return telemetry_; }

  /// Attaches a wall-clock profiler: run() wraps the dispatch loop in an
  /// engine.run scope and polls for a periodic engine snapshot every
  /// WallProfiler::kSnapshotStride events. Output-only — never touches the
  /// event stream. Null (the default) disables profiling; the run loop then
  /// pays one predicted branch per event.
  void set_profiler(WallProfiler* profiler) { profiler_ = profiler; }
  WallProfiler* profiler() const { return profiler_; }

 private:
  SimTime now_ = 0.0;
  std::uint64_t executed_ = 0;
  Telemetry* telemetry_ = nullptr;
  WallProfiler* profiler_ = nullptr;
  EventQueue queue_;  ///< last: the clock sits at a short offset
};

/// Repeating action helper (monitor ticks, provisioning cycles, rate
/// re-sampling). The action runs every `period` seconds starting at
/// `first_time` until stop() or simulation end.
class PeriodicProcess {
 public:
  PeriodicProcess(Simulation& sim, SimTime first_time, SimTime period,
                  std::function<void(SimTime)> action);
  /// Restore form: re-arms the tick captured by `stamp` (checkpoint path)
  /// instead of scheduling a fresh first fire.
  PeriodicProcess(Simulation& sim, const EventStamp& stamp, SimTime period,
                  std::function<void(SimTime)> action);
  ~PeriodicProcess() { stop(); }
  PeriodicProcess(const PeriodicProcess&) = delete;
  PeriodicProcess& operator=(const PeriodicProcess&) = delete;

  void stop();
  bool running() const { return running_; }
  SimTime period() const { return period_; }
  /// Stamp of the armed tick, for snapshots; nullopt when stopped.
  std::optional<EventStamp> pending_stamp() const;

 private:
  void fire();

  Simulation& sim_;
  SimTime period_;
  std::function<void(SimTime)> action_;
  EventId pending_ = kInvalidEventId;
  bool running_ = true;
};

}  // namespace cloudprov
