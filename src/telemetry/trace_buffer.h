// Sim-time event tracer: a bounded ring of trace events.
//
// Recording must be cheap enough for the request hot path (~100 ns budget),
// so the ring holds one 40-byte record per event. The per-request classes
// (request arrival/admit/reject, the request and service spans, resilience
// retries, budget exhaustion, client timeouts and fast-fails, and cache
// hit/miss/fill) are typed records: a TraceKind plus the numbers the hook
// computed, which events() expands back into the TraceEvent the kind stands
// for. Every other event is a general TraceEvent, a 136-byte POD carrying
// static-string names (never owned/copied) and up to kMaxTraceArgs named
// numeric arguments; it goes to a side ring of the same capacity, and its
// record in the main ring refers to it. When the ring is full the oldest
// event is overwritten and an explicit drop counter advances, so a
// full-fidelity week-long run degrades to "most recent N events" instead of
// unbounded memory. Exporters (telemetry/export.h) turn the ring into Chrome
// trace-format JSON.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
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

/// The per-request event classes the ring stores as typed records. Each
/// kind expands to one fixed event shape (category/name below); `id` is the
/// request id, and `a`, `b` and `flag` are the numbers listed per kind
/// (unlisted ones are ignored).
enum class TraceKind : std::uint8_t {
  kArrival,          ///< request/arrival instant
  kAdmit,            ///< request/admit instant; a = vm id
  kReject,           ///< request/reject instant
  kRequestSpan,      ///< request/request span from `time`; a = response
                     ///< time (the duration), b = service time, flag = QoS
                     ///< violation
  kServiceSpan,      ///< request/service span from `time`; a = service time
  kRetry,            ///< resilience/retry instant; a = attempt, b = backoff
  kBudgetExhausted,  ///< resilience/budget_exhausted instant
  kClientTimeout,    ///< resilience/client_timeout instant
  kFastFail,         ///< resilience/fast_fail instant
  kCacheHit,         ///< apptier/cache_hit instant
  kCacheMiss,        ///< apptier/cache_miss instant
  kCacheFill,        ///< apptier/cache_fill instant
};

class TraceBuffer {
 public:
  /// `capacity` must be >= 1. Both rings are allocated here, uninitialized,
  /// so recording never allocates and pages are touched only as events
  /// arrive.
  explicit TraceBuffer(std::size_t capacity);

  /// Records one per-request event as a typed record; overwrites the
  /// oldest event and bumps dropped() when full.
  void record(TraceKind kind, SimTime time, std::uint64_t id, double a = 0.0,
              double b = 0.0, bool flag = false) {
    ring_[head_] = Record{time, id, a, b, kind, flag};
    if (++head_ == capacity_) head_ = 0;
    if (size_ < capacity_) ++size_;
    ++recorded_;
  }

  /// Records any other event: a copy goes to the side ring, and one record
  /// that refers to it to the main ring.
  void record(const TraceEvent& event);

  std::size_t capacity() const { return capacity_; }
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
  // No member initializers: the ring is allocated uninitialized, and only
  // the first size_ slots (all of them once it wraps) are ever read.
  struct Record {
    SimTime time;
    std::uint64_t id;  ///< request id, or side-ring slot for kGeneral
    double a;
    double b;
    TraceKind kind;
    bool flag;
  };
  static_assert(sizeof(Record) == 40);
  /// Kind of a record whose event is general_[id].
  static constexpr TraceKind kGeneral = static_cast<TraceKind>(0xff);

  std::size_t capacity_;
  std::unique_ptr<Record[]> ring_;
  std::size_t head_ = 0;  ///< next write slot
  std::size_t size_ = 0;
  std::uint64_t recorded_ = 0;
  /// General events, reserved at capacity_: filled by push_back, then
  /// overwritten from slot 0. A general event still referenced by the main
  /// ring is among the newest capacity_ general events, so it is never
  /// overwritten before its record is.
  std::vector<TraceEvent> general_;
  std::size_t general_head_ = 0;  ///< next side-ring slot
};

}  // namespace cloudprov
