#include "sim/event_queue.h"

#include <algorithm>

#include "util/check.h"

namespace cloudprov {

std::uint32_t EventQueue::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    slots_[slot].next_free = kNoSlot;
    return slot;
  }
  return grow_slab();
}

std::uint32_t EventQueue::grow_slab() {
  ensure(slots_.size() < kNoSlot, "EventQueue: slab exhausted");
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  ++s.gen;
  if (s.gen == 0) s.gen = 1;  // generation 0 is reserved for kInvalidEventId
  s.next_free = free_head_;
  free_head_ = slot;
}

EventQueue::HeapEntry EventQueue::store(SimTime time, std::uint64_t seq,
                                        EventAction&& action) {
  const std::uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  if (action.is_boxed()) ++boxed_pushed_;
  s.action = std::move(action);
  ++live_;
  return HeapEntry{time, seq, slot, s.gen};
}

void EventQueue::push_heap(const HeapEntry& entry) {
  heap_.push_back(entry);
  if (heap_.size() > heap_high_water_) heap_high_water_ = heap_.size();
  sift_up(heap_.size() - 1);
}

EventId EventQueue::push_lane(const HeapEntry& entry) {
  if (lane_.empty() || !earlier(entry, lane_.back())) {
    lane_.push_back(entry);
  } else {
    push_heap(entry);
  }
  return pack(entry.slot, entry.gen);
}

EventId EventQueue::push(SimTime time, EventAction action) {
  const HeapEntry entry = store(time, ++pushed_, std::move(action));
  push_heap(entry);
  return pack(entry.slot, entry.gen);
}

EventId EventQueue::push_stamped(const EventStamp& stamp, EventAction action) {
  const HeapEntry entry = store(stamp.time, stamp.seq, std::move(action));
  push_heap(entry);
  return pack(entry.slot, entry.gen);
}

EventId EventQueue::push_fifo(SimTime time, EventAction action) {
  return push_lane(store(time, ++pushed_, std::move(action)));
}

EventId EventQueue::push_fifo_stamped(const EventStamp& stamp,
                                      EventAction action) {
  return push_lane(store(stamp.time, stamp.seq, std::move(action)));
}

std::optional<EventStamp> EventQueue::stamp(EventId id) const {
  if (id == kInvalidEventId) return std::nullopt;
  const auto slot = static_cast<std::uint32_t>(id & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size() || slots_[slot].gen != gen) return std::nullopt;
  for (const HeapEntry& entry : heap_) {
    if (entry.slot == slot && entry.gen == gen) {
      return EventStamp{entry.time, entry.seq};
    }
  }
  for (std::size_t i = 0; i < lane_.size(); ++i) {
    if (lane_[i].slot == slot && lane_[i].gen == gen) {
      return EventStamp{lane_[i].time, lane_[i].seq};
    }
  }
  return std::nullopt;
}

void EventQueue::drop_dead_tops() {
  while (!heap_.empty() && stale(heap_.front())) {
    ++stale_drops_;
    pop_top();
  }
}

bool EventQueue::lane_first() {
  while (!lane_.empty() && stale(lane_.front())) {
    ++stale_drops_;
    lane_.pop_front();
  }
  return !lane_.empty() &&
         (heap_.empty() || earlier(lane_.front(), heap_.front()));
}

void EventQueue::take(const HeapEntry& entry, SimTime& time_out,
                      EventAction& action_out) {
  time_out = entry.time;
  action_out = std::move(slots_[entry.slot].action);
  release_slot(entry.slot);
  --live_;
}

Event EventQueue::pop() {
  drop_dead_tops();
  const bool from_lane = !lane_.empty() && lane_first();
  ensure(from_lane || !heap_.empty(), "pop() on empty event queue");
  const HeapEntry top = from_lane ? lane_.front() : heap_.front();
  if (from_lane) {
    lane_.pop_front();
  } else {
    pop_top();
  }
  Event event;
  event.id = pack(top.slot, top.gen);
  take(top, event.time, event.action);
  return event;
}

bool EventQueue::pop_due(SimTime until, SimTime& time_out,
                         EventAction& action_out) {
  drop_dead_tops();
  // Without a lane this is one predictable test in front of the heap pop.
  if (!lane_.empty()) return pop_due_merged(until, time_out, action_out);
  if (heap_.empty() || heap_.front().time > until) return false;
  const HeapEntry top = heap_.front();
  time_out = top.time;
  action_out = std::move(slots_[top.slot].action);
  release_slot(top.slot);
  --live_;
  pop_top();
  return true;
}

bool EventQueue::pop_due_merged(SimTime until, SimTime& time_out,
                                EventAction& action_out) {
  const bool from_lane = lane_first();
  if (!from_lane && heap_.empty()) return false;
  const HeapEntry top = from_lane ? lane_.front() : heap_.front();
  if (top.time > until) return false;
  if (from_lane) {
    lane_.pop_front();
  } else {
    pop_top();
  }
  take(top, time_out, action_out);
  return true;
}

void EventQueue::cancel(EventId id) {
  if (id == kInvalidEventId) return;
  const auto slot = static_cast<std::uint32_t>(id & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size()) return;   // never issued
  if (slots_[slot].gen != gen) return;  // already executed/cancelled: no-op
  slots_[slot].action.reset();
  release_slot(slot);
  --live_;
  // The heap or lane record stays behind as a stale record; drop_dead_tops()
  // or lane_first() discards it in O(1) when it surfaces. Under cancel-heavy
  // workloads stale heap records can outnumber live ones before surfacing —
  // compact when they dominate so heap memory stays O(live). The lane needs
  // no compaction: its records are no later than one lane delay ahead of
  // the clock, and its head pops as the clock passes it.
  if (heap_.size() >= 64 && live_ < heap_.size() / 2) compact();
}

SimTime EventQueue::next_time() {
  drop_dead_tops();
  if (!lane_.empty() && lane_first()) return lane_.front().time;
  ensure(!heap_.empty(), "next_time() on empty event queue");
  return heap_.front().time;
}

void EventQueue::clear() {
  const auto release = [this](const HeapEntry& entry) {
    if (stale(entry)) return;
    slots_[entry.slot].action.reset();  // live event: release its body
    release_slot(entry.slot);
  };
  for (const HeapEntry& entry : heap_) release(entry);
  for (std::size_t i = 0; i < lane_.size(); ++i) release(lane_[i]);
  heap_.clear();
  lane_.clear();
  live_ = 0;
}

void EventQueue::compact() {
  // Keep only entries whose generation still matches their slot, then
  // re-heapify. Pop order is unaffected: (time, seq) is a strict total order,
  // so the extraction sequence is independent of the heap's internal layout.
  std::size_t keep = 0;
  for (const HeapEntry& entry : heap_) {
    if (!stale(entry)) heap_[keep++] = entry;
  }
  stale_drops_ += heap_.size() - keep;
  heap_.resize(keep);
  if (keep > 1) {
    for (std::size_t i = (keep - 2) / 4 + 1; i-- > 0;) sift_down(i);
  }
}

void EventQueue::pop_top() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

void EventQueue::sift_up(std::size_t index) {
  const HeapEntry entry = heap_[index];
  while (index > 0) {
    const std::size_t parent = (index - 1) / 4;
    if (!earlier(entry, heap_[parent])) break;
    heap_[index] = heap_[parent];
    index = parent;
  }
  heap_[index] = entry;
}

void EventQueue::sift_down(std::size_t index) {
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

}  // namespace cloudprov
