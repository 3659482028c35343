// Pending-event set for the discrete-event kernel.
//
// Layout tuned for the ~1.5-billion-pop paper-scale web scenario:
//
//  - Event bodies (their EventAction) live in a free-listed slab; the heap
//    itself orders 24-byte POD HeapEntry records {time, seq, slot, gen}, so
//    sift operations move 24 bytes instead of a 48-byte std::function event.
//  - The heap is 4-ary: ~half the levels of a binary heap for the same size
//    and all four children on one cache line pair, which wins for the
//    shallow pending sets this simulator keeps (one departure per busy VM
//    plus one arrival plus periodic controls — a few hundred entries).
//  - Cancellation is O(1) and hash-free: each slab slot carries a
//    generation, bumped whenever the slot is released (pop or cancel). A
//    heap entry or user handle whose generation no longer matches its slot
//    is stale and is dropped when it reaches the top. Cancelling an
//    already-executed, already-cancelled, or unknown id is a true no-op —
//    nothing is ever inserted or leaked — and size() counts live events
//    exactly.
//
//  - A FIFO lane beside the heap takes events that arrive in time order,
//    such as the constant-delay client timeouts that the retry gateway arms
//    for every admitted attempt and cancels for all but a few. A lane push
//    is an O(1) append to a ring, and its cancelled records drop off the
//    ring's head instead of sitting in the heap. A lane event whose time
//    would sort before the lane's tail goes to the heap instead, so callers
//    with different delays may share one lane. Lane events draw their seq
//    from the same push counter, pop() merges the lane head with the heap
//    top in (time, seq) order, and stamp()/cancel()/clear() treat both
//    alike: the pop order and every stamp are the same as if every event
//    had gone to the heap. The ring is allocated on the first lane push;
//    without one, popping costs one more predictable test.
//
// Steady state allocates nothing per event: the slab, heap and lane reuse
// their capacity, and inline EventActions carry their captures in-place.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "sim/event.h"
#include "util/ring_buffer.h"

namespace cloudprov {

/// Snapshot identity of a pending event: its scheduled time and the push
/// sequence number that breaks FIFO ties among equal times. (slot, gen) are
/// storage details that differ between a queue and its restored twin;
/// (time, seq) is the total order pop() follows, so it is the only thing a
/// checkpoint must preserve for a restored run to replay bit-identically.
struct EventStamp {
  SimTime time = 0.0;
  std::uint64_t seq = 0;
};

class EventQueue {
 public:
  EventQueue() = default;

  /// Schedules `action` at absolute time `time`. Returns a handle usable
  /// with cancel().
  EventId push(SimTime time, EventAction action);

  /// Convenience: wraps any callable (inline when small, boxed otherwise).
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, EventAction>)
  EventId push(SimTime time, F&& f) {
    return push(time, EventAction::make(std::forward<F>(f)));
  }

  /// Schedules `action` at `time` on the FIFO lane (see the file comment):
  /// same handle, seq and pop order as push(), for events whose times mostly
  /// arrive in non-decreasing order.
  EventId push_fifo(SimTime time, EventAction action);
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, EventAction>)
  EventId push_fifo(SimTime time, F&& f) {
    return push_fifo(time, EventAction::make(std::forward<F>(f)));
  }

  /// Removes the event with the earliest (time, push order) and returns it.
  /// Precondition: !empty().
  Event pop();

  /// If a live event exists with time <= `until`, pops it into `time_out` /
  /// `action_out` and returns true; otherwise returns false. The
  /// single-scan hot-path form of empty()/next_time()/pop() used by the
  /// run loop.
  bool pop_due(SimTime until, SimTime& time_out, EventAction& action_out);

  /// Cancels a pending event in O(1). Stale handles (already executed,
  /// already cancelled, unknown) are ignored.
  void cancel(EventId id);

  /// True when no live (non-cancelled) events remain.
  bool empty() const { return live_ == 0; }

  /// Live events currently pending.
  std::size_t size() const { return live_; }

  /// Earliest pending event time. Precondition: !empty().
  SimTime next_time();

  /// Total events ever pushed (diagnostics / determinism checks).
  std::uint64_t pushed_count() const { return pushed_; }

  // --- snapshot/restore support (src/lookahead) --------------------------

  /// Stamp of a live pending event, or nullopt when the handle is stale
  /// (already executed / cancelled / never issued). O(heap) scan — meant
  /// for snapshots, never for the event hot path.
  std::optional<EventStamp> stamp(EventId id) const;

  /// Re-inserts an event captured by stamp() into a restored queue under
  /// its original (time, seq), so FIFO tie-breaks replay identically. Does
  /// not advance the push counter; call set_push_counter() once after all
  /// components re-pushed their pending events.
  EventId push_stamped(const EventStamp& stamp, EventAction action);
  /// push_stamped() onto the FIFO lane, for events first pushed with
  /// push_fifo(). Stamps may come in any order; one that would sort before
  /// the lane's tail goes to the heap.
  EventId push_fifo_stamped(const EventStamp& stamp, EventAction action);

  /// Restores the monotone push counter so events scheduled after a restore
  /// continue the original seq sequence.
  void set_push_counter(std::uint64_t pushed) { pushed_ = pushed; }

  /// Events that took the boxed (heap-allocated) escape hatch; stays 0 on
  /// the steady-state serve path (see the zero-allocation test).
  std::uint64_t boxed_pushed_count() const { return boxed_pushed_; }

  // --- kernel internals surfaced for the wall-clock profiler -------------

  /// Current heap entries, including stale records of cancelled events.
  /// Lane records are not counted.
  std::size_t heap_depth() const { return heap_.size(); }

  /// Largest heap entry count ever reached.
  std::size_t heap_high_water() const { return heap_high_water_; }

  /// Slab slots ever allocated. The slab never shrinks, so this is the
  /// occupancy high-water mark (peak simultaneously-stored event bodies).
  std::size_t slab_high_water() const { return slots_.size(); }

  /// Stale records discarded so far (lazy heap top and lane head drops,
  /// plus compactions).
  std::uint64_t stale_drops() const { return stale_drops_; }

  void clear();

 private:
  /// Heap record: POD, 24 bytes. `seq` is the monotone push counter that
  /// breaks ties on time (FIFO among equal times); `slot`/`gen` locate and
  /// validate the event body in the slab.
  struct HeapEntry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };
  static_assert(sizeof(HeapEntry) == 24);

  struct Slot {
    EventAction action;
    std::uint32_t gen = 1;
    std::uint32_t next_free = kNoSlot;
  };

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  static EventId pack(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }

  std::uint32_t acquire_slot();
  /// acquire_slot() with the free list empty. Kept out of line so the four
  /// push forms inline only the free-list pop.
  [[gnu::noinline]] std::uint32_t grow_slab();
  /// Bumps the slot's generation (invalidating outstanding handles and heap
  /// entries) and returns it to the free list. The action must already be
  /// moved out or reset.
  void release_slot(std::uint32_t slot);
  bool stale(const HeapEntry& entry) const {
    return slots_[entry.slot].gen != entry.gen;
  }
  /// Moves `action` into a slab slot and returns the record that orders it.
  HeapEntry store(SimTime time, std::uint64_t seq, EventAction&& action);
  void push_heap(const HeapEntry& entry);
  /// Appends to the lane, or pushes to the heap when `entry` sorts before
  /// the lane's tail.
  EventId push_lane(const HeapEntry& entry);
  /// Moves a popped record's action out and releases its slot.
  void take(const HeapEntry& entry, SimTime& time_out,
            EventAction& action_out);
  /// Removes stale heap entries (generation mismatch) from the top.
  void drop_dead_tops();
  /// Drops stale records off the lane head, then says whether the lane
  /// holds the earliest live event. Call after drop_dead_tops().
  bool lane_first();
  /// pop_due() once the lane holds records: merges its head with the heap
  /// top. Out of line, so the lane-free path stays as short as before.
  bool pop_due_merged(SimTime until, SimTime& time_out,
                      EventAction& action_out);
  void compact();
  void pop_top();
  void sift_up(std::size_t index);
  void sift_down(std::size_t index);

  std::vector<HeapEntry> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  std::size_t live_ = 0;
  std::uint64_t pushed_ = 0;
  std::uint64_t boxed_pushed_ = 0;
  std::size_t heap_high_water_ = 0;
  std::uint64_t stale_drops_ = 0;
  /// FIFO lane, sorted by (time, seq); empty until the first lane push.
  RingBuffer<HeapEntry> lane_;
};

}  // namespace cloudprov
