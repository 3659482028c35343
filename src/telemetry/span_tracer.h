// Request-lifecycle span tracing.
//
// Assigns each sampled request a trace id (its request id) and follows it
// through the provisioning pipeline: admission decision at arrival, queue
// wait inside the chosen instance, service, and the terminal outcome
// (completed / rejected at admission / lost to an instance failure). The
// sampling decision is a pure hash of the request id and a fixed seed, so
// it is deterministic for a given workload seed, independent of every
// simulation RNG stream, and consistent across the arrival/service/finish
// hooks without any per-request handshake.
//
// Traces in flight live in a grow-only slab, found by request id through a
// FlatIndex. Finished traces are retained in a bounded ring (oldest evicted
// first, with an explicit drop counter), so paper-scale runs stay bounded at
// any sample rate. The ring is reserved at its capacity up front and its
// memory is touched only as it fills; growing it by doubling instead left
// the freed halves resident across replications. Tracing allocates nothing
// per request once the slab and the index have grown. Exporters
// (telemetry/export.h) turn the retained traces into Chrome-trace spans +
// flow events and a long-form per-span CSV.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/flat_index.h"
#include "util/ring_buffer.h"
#include "util/units.h"

namespace cloudprov {

class SpanTracer {
 public:
  struct Options {
    /// Fraction of requests traced; <= 0 disables, >= 1 traces everything.
    double sample_rate = 0.0;
    /// Hashed with the request id for the sampling decision. Fixed by
    /// default so the same ids are sampled in every run of a seed.
    std::uint64_t seed = 0;
    /// Finished traces retained (oldest evicted beyond this).
    std::size_t capacity = 1 << 16;
  };

  /// Terminal outcome of a traced request.
  enum class Outcome : std::uint8_t {
    kInFlight = 0,  ///< not yet finished (never exported)
    kCompleted,     ///< served and completed
    kRejected,      ///< refused by admission control
    kLost,          ///< admitted, then died with a failed instance
  };

  /// One request's causally-ordered lifecycle timestamps. Child spans are
  /// derived: admission [arrival, arrival], queue_wait
  /// [arrival, service_start], service [service_start, finish]. A request
  /// lost before service starts has service_start == 0 (no service span);
  /// its queue_wait runs to the loss time.
  struct RequestTrace {
    std::uint64_t trace_id = 0;  ///< == request id
    SimTime arrival = 0.0;
    SimTime service_start = 0.0;  ///< 0 = never reached service
    SimTime finish = 0.0;         ///< completion / rejection / loss time
    std::uint64_t vm_id = 0;      ///< serving instance; 0 when rejected
    Outcome outcome = Outcome::kInFlight;
    bool qos_violation = false;
    /// Application tier that served the request: 0 = untiered world,
    /// 1 = cache hit, 2 = backend (cache miss). Only set by CacheTier, so
    /// untiered runs keep tier == 0 on every trace and the span CSV stays
    /// byte-identical (no tier column is emitted).
    std::uint8_t tier = 0;
  };

  explicit SpanTracer(Options options);

  const Options& options() const { return options_; }

  /// Deterministic per-request sampling decision (pure hash, no state).
  bool sampled(std::uint64_t request_id) const;

  // --- lifecycle hooks (called via the Telemetry facade) ------------------
  void on_arrival(SimTime t, std::uint64_t request_id);
  void on_admit(SimTime t, std::uint64_t request_id, std::uint64_t vm_id);
  void on_reject(SimTime t, std::uint64_t request_id);
  void on_service_start(SimTime t, std::uint64_t request_id,
                        std::uint64_t vm_id);
  void on_complete(SimTime t, std::uint64_t request_id, bool qos_violation);
  void on_lost(SimTime t, std::uint64_t request_id);
  /// Tags the in-flight trace with the tier that will serve it (CacheTier).
  void on_tier(std::uint64_t request_id, std::uint8_t tier);

  /// Finished traces, oldest first (completion order — deterministic).
  const RingBuffer<RequestTrace>& finished() const { return finished_; }
  /// Requests the sampler selected so far.
  std::uint64_t traced() const { return traced_; }
  /// Finished traces evicted because the ring was full.
  std::uint64_t dropped() const { return dropped_; }
  /// Sampled requests still in flight (bounded by pool occupancy).
  std::size_t in_flight() const { return index_.size(); }
  /// True once any trace was tier-tagged; gates the span CSV tier column.
  bool has_tiers() const { return has_tiers_; }

 private:
  auto key_of() const {
    return [this](std::uint32_t slot) { return pending_[slot].trace_id; };
  }
  /// The in-flight trace of a sampled request, or null.
  RequestTrace* pending(std::uint64_t request_id);
  void finish(SimTime t, std::uint64_t request_id, Outcome outcome,
              bool qos_violation);

  Options options_;
  std::vector<RequestTrace> pending_;  ///< slab of in-flight traces
  std::vector<std::uint32_t> free_;    ///< free slab slots
  FlatIndex index_;                    ///< request id -> pending_ slot
  RingBuffer<RequestTrace> finished_;
  std::uint64_t traced_ = 0;
  std::uint64_t dropped_ = 0;
  bool has_tiers_ = false;
};

const char* to_string(SpanTracer::Outcome outcome);

}  // namespace cloudprov
