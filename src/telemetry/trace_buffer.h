// Sim-time event tracer: a bounded ring of typed trace events.
//
// Recording must be cheap enough for the request hot path (~100 ns budget):
// a TraceEvent is a fixed-size POD carrying static-string names (never
// owned/copied) and up to kMaxTraceArgs named numeric arguments. When the
// ring is full the oldest event is overwritten and an explicit drop counter
// advances, so a full-fidelity week-long run degrades to "most recent N
// events" instead of unbounded memory. Exporters (telemetry/export.h) turn
// the ring into Chrome trace-format JSON or CSV.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/units.h"

namespace cloudprov {

/// Chrome trace-format phases the tracer emits: instantaneous markers,
/// complete spans (begin time + duration), and counter samples (stepped
/// time-series lanes in Perfetto).
enum class TracePhase : std::uint8_t { kInstant, kComplete, kCounter };

const char* to_string(TracePhase phase);

/// One named numeric argument attached to an event. `key` must point at a
/// string literal (or other storage outliving the buffer).
struct TraceArg {
  const char* key = nullptr;
  double value = 0.0;
};

inline constexpr std::size_t kMaxTraceArgs = 5;

struct TraceEvent {
  const char* name = "";      ///< static string; never owned
  const char* category = "";  ///< static string; Chrome "cat" field
  TracePhase phase = TracePhase::kInstant;
  /// Display lane (Chrome "tid"): one per subsystem, see TelemetryTrack.
  std::uint32_t track = 0;
  SimTime time = 0.0;      ///< simulated seconds
  SimTime duration = 0.0;  ///< simulated seconds; kComplete only
  std::uint64_t id = 0;    ///< correlation id (request/VM id); 0 = none
  std::array<TraceArg, kMaxTraceArgs> args{};
  std::uint8_t arg_count = 0;

  /// Appends an argument; silently ignored past kMaxTraceArgs.
  TraceEvent& arg(const char* key, double value) {
    if (arg_count < kMaxTraceArgs) {
      args[arg_count] = TraceArg{key, value};
      ++arg_count;
    }
    return *this;
  }
};

class TraceBuffer {
 public:
  /// `capacity` must be >= 1; the buffer allocates it eagerly so recording
  /// never allocates.
  explicit TraceBuffer(std::size_t capacity);

  /// Records one event; overwrites the oldest and bumps dropped() when full.
  void record(const TraceEvent& event) {
    ring_[head_] = event;
    if (++head_ == ring_.size()) head_ = 0;
    if (size_ < ring_.size()) ++size_;
    ++recorded_;
  }

  std::size_t capacity() const { return ring_.size(); }
  /// Events currently held (<= capacity).
  std::size_t size() const { return size_; }
  /// Events ever recorded, including dropped ones.
  std::uint64_t recorded() const { return recorded_; }
  /// Events overwritten because the ring was full.
  std::uint64_t dropped() const { return recorded_ - size_; }

  /// Retained events, oldest first.
  std::vector<TraceEvent> events() const;

  void clear();

  /// Checkpoint support (src/lookahead): becomes an exact copy of `other`,
  /// which must have the same capacity.
  void copy_from(const TraceBuffer& other);

 private:
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;  ///< next write slot
  std::size_t size_ = 0;
  std::uint64_t recorded_ = 0;
};

}  // namespace cloudprov
