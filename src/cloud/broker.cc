#include "cloud/broker.h"

#include "util/check.h"

namespace cloudprov {

Broker::Broker(Simulation& sim, RequestSource& source, RequestSink& sink, Rng rng)
    : Entity(sim, "broker"), source_(source), sink_(sink), rng_(rng) {}

void Broker::start() { deliver_next(); }

void Broker::deliver_next() {
  const auto arrival = source_.next(rng_);
  if (!arrival) {
    pending_event_ = kInvalidEventId;
    return;  // workload exhausted
  }
  ensure(arrival->time >= now(), "Broker: source produced a past arrival");
  pending_arrival_ = *arrival;
  pending_event_ = sim().schedule_fifo(
      arrival->time, EventAction::method<&Broker::fire_arrival>(this));
}

Broker::Snapshot Broker::snapshot() const {
  Snapshot s;
  s.rng = rng_.state();
  s.generated = generated_;
  s.next_request_id = next_request_id_;
  s.pending_arrival = pending_arrival_;
  s.pending_event = sim().stamp(pending_event_);
  return s;
}

void Broker::restore(const Snapshot& s) {
  rng_.set_state(s.rng);
  generated_ = s.generated;
  next_request_id_ = s.next_request_id;
  pending_arrival_ = s.pending_arrival;
  if (s.pending_event.has_value()) {
    pending_event_ = sim().schedule_fifo_stamped(
        *s.pending_event, EventAction::method<&Broker::fire_arrival>(this));
  }
}

void Broker::fire_arrival() {
  const Arrival a = pending_arrival_;
  Request request;
  request.id = next_request_id_++;
  request.arrival_time = a.time;
  request.service_demand = a.service_demand;
  request.priority = a.priority;
  request.deadline = a.deadline;
  request.key = a.key;
  ++generated_;
  sink_.on_request(request);
  deliver_next();
}

}  // namespace cloudprov
