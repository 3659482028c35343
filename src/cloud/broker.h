// Broker: drives a RequestSource into the simulation.
//
// "Simulation model also contains one broker generating requests
// representing several users" (Section V-A). The broker pulls arrivals from
// the workload model one at a time (so each broker has one arrival pending,
// on the event queue's FIFO lane: a source's arrival times never decrease)
// and hands each to a RequestSink — the SaaS provider's admission control in
// the full system.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "sim/entity.h"
#include "workload/request.h"
#include "workload/source.h"

namespace cloudprov {

/// Receiver of end-user requests (implemented by the application
/// provisioner; by test fixtures in unit tests).
class RequestSink {
 public:
  virtual ~RequestSink() = default;
  virtual void on_request(const Request& request) = 0;
};

class Broker final : public Entity {
 public:
  /// `source` and `sink` must outlive the broker. `rng` is the broker's
  /// private stream. Call start() to schedule the first arrival.
  Broker(Simulation& sim, RequestSource& source, RequestSink& sink, Rng rng);

  void start();

  std::uint64_t generated() const { return generated_; }

  // --- snapshot/restore (src/lookahead) ---------------------------------
  /// RNG stream, counters, and the one in-flight arrival with its event
  /// stamp.
  struct Snapshot {
    Rng::State rng;
    std::uint64_t generated = 0;
    std::uint64_t next_request_id = 1;
    Arrival pending_arrival;
    std::optional<EventStamp> pending_event;
  };
  Snapshot snapshot() const;
  /// Restores counters/stream and re-arms the pending arrival. Use instead
  /// of start(); the source must already be positioned consistently (the
  /// restoring side rebuilds it from its own snapshot).
  void restore(const Snapshot& snap);

 private:
  void deliver_next();
  void fire_arrival();

  RequestSource& source_;
  RequestSink& sink_;
  Rng rng_;
  std::uint64_t generated_ = 0;
  std::uint64_t next_request_id_ = 1;
  // The one in-flight arrival, stored here so the scheduled event is a bare
  // {target, method} inline delegate — no per-arrival allocation; the web
  // scenario schedules half a billion of these per replication.
  Arrival pending_arrival_;
  EventId pending_event_ = kInvalidEventId;
};

}  // namespace cloudprov
