#include "telemetry/trace_buffer.h"

#include "util/check.h"

namespace cloudprov {

const char* to_string(TracePhase phase) {
  switch (phase) {
    case TracePhase::kInstant: return "i";
    case TracePhase::kComplete: return "X";
    case TracePhase::kCounter: return "C";
  }
  return "?";
}

TraceBuffer::TraceBuffer(std::size_t capacity) {
  ensure_arg(capacity >= 1, "TraceBuffer: capacity must be >= 1");
  ring_.resize(capacity);
}

std::vector<TraceEvent> TraceBuffer::events() const {
  std::vector<TraceEvent> ordered;
  ordered.reserve(size_);
  // Oldest element sits at head_ once the ring has wrapped, else at 0.
  const std::size_t start = size_ == ring_.size() ? head_ : 0;
  for (std::size_t i = 0; i < size_; ++i) {
    ordered.push_back(ring_[(start + i) % ring_.size()]);
  }
  return ordered;
}

void TraceBuffer::clear() {
  head_ = 0;
  size_ = 0;
  recorded_ = 0;
}

void TraceBuffer::copy_from(const TraceBuffer& other) {
  ensure_arg(ring_.size() == other.ring_.size(),
             "TraceBuffer::copy_from: capacity mismatch");
  ring_ = other.ring_;
  head_ = other.head_;
  size_ = other.size_;
  recorded_ = other.recorded_;
}

}  // namespace cloudprov
