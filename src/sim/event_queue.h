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
//    plus periodic controls — a few hundred entries).
//  - Cancellation is O(1) and hash-free: each slab slot carries a
//    generation, bumped whenever the slot is released (pop or cancel). A
//    heap entry or user handle whose generation no longer matches its slot
//    is stale and is dropped when it reaches the top. Cancelling an
//    already-executed, already-cancelled, or unknown id is a true no-op —
//    nothing is ever inserted or leaked — and size() counts live events
//    exactly.
//
//  - A FIFO lane beside the heap takes events that arrive in time order:
//    each broker's next arrival (a source's arrival times never decrease)
//    and the constant-delay client timeouts that the retry gateway arms for
//    every admitted attempt and cancels for all but a few. A lane push is an
//    O(1) append to a ring, and its cancelled records drop off the ring's
//    head instead of sitting in the heap. A lane event whose time would sort
//    before the lane's tail goes to the heap instead, so several brokers, or
//    callers with different delays, may share one lane. Lane events draw
//    their seq from the same push counter, pop_due() merges the lane head
//    with the heap top in (time, seq) order, and stamp()/cancel()/clear()
//    treat both alike: the pop order and every stamp are the same as if
//    every event had gone to the heap.
//
// The per-event path (push, push_fifo, slot acquire/release, the heap sifts
// and pop_due) is defined in this header, so a scheduled body is moved once,
// straight into its slab slot. Steady state allocates nothing per event: the
// slab, heap and lane reuse their capacity, and inline EventActions carry
// their captures in-place.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <type_traits>
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
  EventId push(SimTime time, EventAction&& action) {
    const HeapEntry entry = store(time, ++pushed_, std::move(action));
    push_heap(entry);
    return pack(entry.slot, entry.gen);
  }

  /// Convenience: wraps any callable (inline when small, boxed otherwise).
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, EventAction>)
  EventId push(SimTime time, F&& f) {
    return push(time, EventAction::make(std::forward<F>(f)));
  }

  /// Schedules `action` at `time` on the FIFO lane (see the file comment):
  /// same handle, seq and pop order as push(), for events whose times mostly
  /// arrive in non-decreasing order.
  EventId push_fifo(SimTime time, EventAction&& action) {
    return push_lane(store(time, ++pushed_, std::move(action)));
  }
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
  /// run loop: one merge of the lane head with the heap top.
  bool pop_due(SimTime until, SimTime& time_out, EventAction& action_out) {
    HeapEntry top{};
    if (!pop_record(until, top)) return false;
    take(top, time_out, action_out);
    return true;
  }

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

  /// Allocates room for `events` pending events in the slab, the heap and
  /// the lane, so a fresh queue that will hold about that many does not
  /// grow one doubling at a time. Changes no observable state.
  void reserve(std::size_t events);

  // --- snapshot/restore support (src/lookahead) --------------------------

  /// Stamp of a live pending event, or nullopt when the handle is stale
  /// (already executed / cancelled / never issued). O(heap) scan — meant
  /// for snapshots, never for the event hot path.
  std::optional<EventStamp> stamp(EventId id) const;

  /// Re-inserts an event captured by stamp() into a restored queue under
  /// its original (time, seq), so FIFO tie-breaks replay identically. Does
  /// not advance the push counter; call set_push_counter() once after all
  /// components re-pushed their pending events.
  EventId push_stamped(const EventStamp& stamp, EventAction&& action);
  /// push_stamped() onto the FIFO lane, for events first pushed with
  /// push_fifo(). Stamps may come in any order; one that would sort before
  /// the lane's tail goes to the heap.
  EventId push_fifo_stamped(const EventStamp& stamp, EventAction&& action);

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

  std::uint32_t acquire_slot() {
    if (free_head_ == kNoSlot) return grow_slab();
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    slots_[slot].next_free = kNoSlot;
    return slot;
  }
  /// acquire_slot() with the free list empty. Kept out of line so the push
  /// forms inline only the free-list pop.
  [[gnu::noinline]] std::uint32_t grow_slab();
  /// Bumps the slot's generation (invalidating outstanding handles and heap
  /// entries) and returns it to the free list. The action must already be
  /// moved out or reset.
  void release_slot(std::uint32_t slot) {
    Slot& s = slots_[slot];
    ++s.gen;
    if (s.gen == 0) s.gen = 1;  // generation 0 is reserved for kInvalidEventId
    s.next_free = free_head_;
    free_head_ = slot;
  }
  bool stale(const HeapEntry& entry) const {
    return slots_[entry.slot].gen != entry.gen;
  }
  /// Moves `action` into a slab slot and returns the record that orders it.
  HeapEntry store(SimTime time, std::uint64_t seq, EventAction&& action) {
    const std::uint32_t slot = acquire_slot();
    Slot& s = slots_[slot];
    if (action.is_boxed()) ++boxed_pushed_;
    s.action = std::move(action);
    ++live_;
    return HeapEntry{time, seq, slot, s.gen};
  }
  void push_heap(const HeapEntry& entry) {
    heap_.push_back(entry);
    if (heap_.size() > heap_high_water_) heap_high_water_ = heap_.size();
    sift_up(heap_.size() - 1);
  }
  /// Appends to the lane, or pushes to the heap when `entry` sorts before
  /// the lane's tail.
  EventId push_lane(const HeapEntry& entry) {
    if (lane_.empty() || !earlier(entry, lane_.back())) {
      lane_.push_back(entry);
    } else {
      push_heap(entry);
    }
    return pack(entry.slot, entry.gen);
  }
  /// Removes the earliest live record, the lane head or the heap top, into
  /// `top` if its time is <= `until`; false otherwise.
  bool pop_record(SimTime until, HeapEntry& top) {
    drop_dead_tops();
    if (lane_first()) {
      top = lane_.front();
      if (top.time > until) return false;
      lane_.pop_front();
      return true;
    }
    if (heap_.empty()) return false;
    top = heap_.front();
    if (top.time > until) return false;
    pop_top();
    return true;
  }
  /// Moves a popped record's action out and releases its slot.
  void take(const HeapEntry& entry, SimTime& time_out,
            EventAction& action_out) {
    time_out = entry.time;
    action_out = std::move(slots_[entry.slot].action);
    release_slot(entry.slot);
    --live_;
  }
  /// Removes stale heap entries (generation mismatch) from the top.
  void drop_dead_tops() {
    while (!heap_.empty() && stale(heap_.front())) {
      ++stale_drops_;
      pop_top();
    }
  }
  /// Drops stale records off the lane head, then says whether the lane
  /// holds the earliest live event. Call after drop_dead_tops().
  bool lane_first() {
    while (!lane_.empty() && stale(lane_.front())) {
      ++stale_drops_;
      lane_.pop_front();
    }
    return !lane_.empty() &&
           (heap_.empty() || earlier(lane_.front(), heap_.front()));
  }
  void compact();
  void pop_top() {
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
  }
  void sift_up(std::size_t index) {
    const HeapEntry entry = heap_[index];
    while (index > 0) {
      const std::size_t parent = (index - 1) / 4;
      if (!earlier(entry, heap_[parent])) break;
      heap_[index] = heap_[parent];
      index = parent;
    }
    heap_[index] = entry;
  }
  void sift_down(std::size_t index) {
    const std::size_t n = heap_.size();
    const HeapEntry entry = heap_[index];
    for (;;) {
      const std::size_t first = 4 * index + 1;
      if (first >= n) break;
      const std::size_t last = std::min(first + 4, n);
      std::size_t best = first;
      for (std::size_t child = first + 1; child < last; ++child) {
        if (earlier(heap_[child], heap_[best])) best = child;
      }
      if (!earlier(heap_[best], entry)) break;
      heap_[index] = heap_[best];
      index = best;
    }
    heap_[index] = entry;
  }

  std::vector<HeapEntry> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  std::size_t live_ = 0;
  std::uint64_t pushed_ = 0;
  std::uint64_t boxed_pushed_ = 0;
  std::size_t heap_high_water_ = 0;
  std::uint64_t stale_drops_ = 0;
  /// FIFO lane, sorted by (time, seq).
  RingBuffer<HeapEntry> lane_;
};

}  // namespace cloudprov
