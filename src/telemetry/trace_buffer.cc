#include "telemetry/trace_buffer.h"

#include <algorithm>

#include "telemetry/telemetry.h"
#include "util/check.h"

namespace cloudprov {
namespace {

/// The TraceEvent a typed kind expands to. A span lasts `a` seconds; the
/// argument keys take a, b and the flag (as 1/0) in that order.
struct KindShape {
  const char* category;
  const char* name;
  std::uint32_t track;
  bool span;
  std::array<const char*, 3> keys;
};

// Indexed by TraceKind.
constexpr KindShape kShapes[] = {
    {"request", "arrival", kTrackRequests, false, {}},
    {"request", "admit", kTrackRequests, false, {"vm"}},
    {"request", "reject", kTrackRequests, false, {}},
    {"request", "request", kTrackRequests, true,
     {"response_time", "service_time", "qos_violation"}},
    {"request", "service", kTrackRequests, true, {}},
    {"resilience", "retry", kTrackResilience, false, {"attempt", "backoff"}},
    {"resilience", "budget_exhausted", kTrackResilience, false, {}},
    {"resilience", "client_timeout", kTrackResilience, false, {}},
    {"resilience", "fast_fail", kTrackResilience, false, {}},
    {"apptier", "cache_hit", kTrackApptier, false, {}},
    {"apptier", "cache_miss", kTrackApptier, false, {}},
    {"apptier", "cache_fill", kTrackApptier, false, {}},
};
static_assert(std::size(kShapes) ==
              static_cast<std::size_t>(TraceKind::kCacheFill) + 1);

}  // namespace

const char* to_string(TracePhase phase) {
  switch (phase) {
    case TracePhase::kInstant: return "i";
    case TracePhase::kComplete: return "X";
    case TracePhase::kCounter: return "C";
  }
  return "?";
}

TraceBuffer::TraceBuffer(std::size_t capacity) : capacity_(capacity) {
  ensure_arg(capacity >= 1, "TraceBuffer: capacity must be >= 1");
  ring_ = std::make_unique_for_overwrite<Record[]>(capacity);
  general_.reserve(capacity);
}

void TraceBuffer::record(const TraceEvent& event) {
  const std::size_t slot = general_head_;
  if (slot == general_.size()) {
    general_.push_back(event);
  } else {
    general_[slot] = event;
  }
  if (++general_head_ == capacity_) general_head_ = 0;
  record(kGeneral, event.time, slot);
}

std::vector<TraceEvent> TraceBuffer::events() const {
  std::vector<TraceEvent> ordered;
  ordered.reserve(size_);
  // Oldest record sits at head_ once the ring has wrapped, else at 0.
  const std::size_t start = size_ == capacity_ ? head_ : 0;
  for (std::size_t i = 0; i < size_; ++i) {
    const Record& entry = ring_[(start + i) % capacity_];
    if (entry.kind == kGeneral) {
      ordered.push_back(general_[entry.id]);
      continue;
    }
    const KindShape& shape = kShapes[static_cast<std::size_t>(entry.kind)];
    TraceEvent& event = ordered.emplace_back();
    event.name = shape.name;
    event.category = shape.category;
    event.phase = shape.span ? TracePhase::kComplete : TracePhase::kInstant;
    event.track = shape.track;
    event.time = entry.time;
    if (shape.span) event.duration = entry.a;
    event.id = entry.id;
    const double values[] = {entry.a, entry.b, entry.flag ? 1.0 : 0.0};
    for (std::size_t k = 0; k < shape.keys.size() && shape.keys[k]; ++k) {
      event.arg(shape.keys[k], values[k]);
    }
  }
  return ordered;
}

void TraceBuffer::clear() {
  head_ = 0;
  size_ = 0;
  recorded_ = 0;
  general_.clear();
  general_head_ = 0;
}

void TraceBuffer::copy_from(const TraceBuffer& other) {
  ensure_arg(capacity_ == other.capacity_,
             "TraceBuffer::copy_from: capacity mismatch");
  // The written records are always the first size_ slots.
  std::copy_n(other.ring_.get(), other.size_, ring_.get());
  head_ = other.head_;
  size_ = other.size_;
  recorded_ = other.recorded_;
  general_ = other.general_;
  general_head_ = other.general_head_;
}

}  // namespace cloudprov
