#include "sim/event_queue.h"

#include <limits>

#include "util/check.h"

namespace cloudprov {

std::uint32_t EventQueue::grow_slab() {
  ensure(slots_.size() < kNoSlot, "EventQueue: slab exhausted");
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::reserve(std::size_t events) {
  heap_.reserve(events);
  slots_.reserve(events);
  lane_.reserve(events);
}

EventId EventQueue::push_stamped(const EventStamp& stamp,
                                 EventAction&& action) {
  const HeapEntry entry = store(stamp.time, stamp.seq, std::move(action));
  push_heap(entry);
  return pack(entry.slot, entry.gen);
}

EventId EventQueue::push_fifo_stamped(const EventStamp& stamp,
                                      EventAction&& action) {
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

Event EventQueue::pop() {
  HeapEntry top{};
  ensure(pop_record(std::numeric_limits<SimTime>::infinity(), top),
         "pop() on empty event queue");
  Event event;
  event.id = pack(top.slot, top.gen);
  take(top, event.time, event.action);
  return event;
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
  if (lane_first()) return lane_.front().time;
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

}  // namespace cloudprov
