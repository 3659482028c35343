// Client-side resilience model: the RetryGateway sits between the Broker and
// the ApplicationProvisioner and plays the part of a real SaaS front-end's
// HTTP client stack — per-attempt timeouts, bounded retries with backoff, a
// token-bucket retry budget, and a circuit breaker.
//
// A fresh arrival becomes attempt 1 of a *logical request*. An attempt fails
// by admission rejection, by client timeout (the server keeps serving the
// abandoned request — wasted capacity, the fuel of retry-storm
// metastability), or by breaker fast-fail. A failed attempt is retried after
// a backoff delay until the attempt bound, the request deadline, or the
// retry budget says stop. Attempt 1 forwards the Broker's request verbatim
// (ids, arrival time, spans all unchanged), so a gateway with every feature
// off is bit-identical to wiring the Broker straight to the provisioner.
//
// Determinism: backoff jitter is the only randomness and draws from the
// dedicated `resilience` seed stream, so enabling retries perturbs no other
// subsystem's stream. All breaker/budget state is counters — no clocks, no
// wall time — and everything (including pending retry/timeout events, under
// their original (time, seq) stamps) is captured by checkpoint()/restore().
//
// Layout: every attempt in flight and every retry waiting out its backoff is
// one record in a grow-only slab with a free list. In-flight records are
// found by forwarded id through a FlatIndex; their timeout and retry events
// carry the slab position. Attempt timeouts share one constant delay, so
// they go on the event queue's FIFO lane (Simulation::schedule_fifo), where
// the cancelled ones never enter the heap. Once the slab and the index have
// grown to the peak number of open attempts, no request allocates.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cloud/broker.h"
#include "resilience/resilience_config.h"
#include "sim/simulation.h"
#include "util/flat_index.h"
#include "util/rng.h"

namespace cloudprov {

class ApplicationProvisioner;
class Telemetry;

class RetryGateway final : public RequestSink {
 public:
  /// Retry attempts carry synthetic ids above this base so they never
  /// collide with Broker-issued ids (span tracing and timeout bookkeeping
  /// key on the forwarded id).
  static constexpr std::uint64_t kRetryIdBase = 1ull << 63;

  enum class BreakerState : std::uint8_t { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

  /// Installs itself as the provisioner's completion listener; the World
  /// wires the Broker's sink to this gateway instead of the provisioner.
  RetryGateway(Simulation& sim, ApplicationProvisioner& provisioner,
               const ResilienceConfig& config, Rng rng,
               Telemetry* telemetry = nullptr);

  /// Fresh traffic from the Broker: attempt 1 of a new logical request.
  void on_request(const Request& request) override;

  // --- accounting -------------------------------------------------------
  std::uint64_t client_requests() const { return state_.client_requests; }
  /// Logical requests whose some attempt completed within the client's
  /// patience (every completion when timeouts are off): the goodput
  /// numerator of the AB12 ablation.
  std::uint64_t client_succeeded() const { return state_.client_succeeded; }
  /// Logical requests the client gave up on (attempts, deadline, or budget
  /// exhausted).
  std::uint64_t client_failed() const { return state_.client_failed; }
  std::uint64_t client_attempts() const { return state_.client_attempts; }
  std::uint64_t client_retries() const { return state_.client_retries; }
  std::uint64_t retry_budget_denied() const {
    return state_.retry_budget_denied;
  }
  std::uint64_t client_timeouts() const { return state_.client_timeouts; }
  /// Completions the server delivered after the client had already timed
  /// the attempt out: pure wasted capacity.
  std::uint64_t wasted_completions() const {
    return state_.wasted_completions;
  }
  std::uint64_t breaker_opens() const { return state_.breaker_opens; }
  std::uint64_t breaker_half_opens() const {
    return state_.breaker_half_opens;
  }
  std::uint64_t breaker_closes() const { return state_.breaker_closes; }
  std::uint64_t breaker_fast_fails() const {
    return state_.breaker_fast_fails;
  }
  BreakerState breaker_state() const { return state_.breaker_state; }
  double budget_tokens() const { return state_.budget_tokens; }

  // --- checkpoint/restore (src/lookahead) -------------------------------
  /// An attempt sitting in the provisioner with a live client-timeout event.
  struct InFlightEntry {
    std::uint64_t attempt_id = 0;  ///< forwarded request id
    Request request;               ///< logical request (original id/deadline)
    std::uint64_t attempt = 1;
    SimTime prev_delay = 0.0;
    bool probe = false;
    EventStamp timeout_event;
  };
  /// A backoff wait with a scheduled re-dispatch event.
  struct PendingRetry {
    Request request;
    std::uint64_t attempt = 1;  ///< attempt number the retry will carry
    SimTime prev_delay = 0.0;
    EventStamp event;
  };
  /// Budget, breaker and counters: the state checkpoint() and restore()
  /// copy whole.
  struct State {
    double budget_tokens = 0.0;
    BreakerState breaker_state = BreakerState::kClosed;
    SimTime breaker_opened_at = 0.0;
    std::vector<std::uint8_t> breaker_ring;  ///< outcome ring, slot order
    std::uint64_t breaker_ring_idx = 0;
    std::uint64_t breaker_in_window = 0;
    std::uint64_t breaker_failures = 0;
    std::uint64_t probes_issued = 0;
    std::uint64_t probe_successes = 0;
    std::uint64_t next_retry_seq = 0;
    std::uint64_t client_requests = 0;
    std::uint64_t client_succeeded = 0;
    std::uint64_t client_failed = 0;
    std::uint64_t client_attempts = 0;
    std::uint64_t client_retries = 0;
    std::uint64_t retry_budget_denied = 0;
    std::uint64_t client_timeouts = 0;
    std::uint64_t wasted_completions = 0;
    std::uint64_t breaker_opens = 0;
    std::uint64_t breaker_half_opens = 0;
    std::uint64_t breaker_closes = 0;
    std::uint64_t breaker_fast_fails = 0;
  };
  struct Snapshot : State {
    Rng::State rng;
    std::vector<InFlightEntry> in_flight;  ///< sorted by attempt_id
    std::vector<PendingRetry> retries;     ///< sorted by event seq
  };

  Snapshot checkpoint() const;
  /// Re-arms every pending timeout/retry under its original stamp. Call on
  /// a freshly constructed gateway before Simulation::restore_clock.
  void restore(const Snapshot& snap);

 private:
  static constexpr std::uint32_t kNil = FlatIndex::kNil;

  enum class Stage : std::uint8_t { kFree, kInFlight, kWaiting };
  /// One open attempt: in flight with its timeout armed, or waiting out a
  /// backoff with its retry armed.
  struct Record {
    Request request;  ///< logical request (original id/deadline)
    std::uint64_t attempt_id = 0;  ///< forwarded id while in flight
    std::uint64_t attempt = 1;     ///< attempt number (the retry's, waiting)
    SimTime prev_delay = 0.0;
    EventId event = kInvalidEventId;  ///< the armed timeout or retry
    std::uint32_t next_free = kNil;   ///< free-list link when free
    Stage stage = Stage::kFree;
    bool probe = false;
  };

  auto key_of() const {
    return [this](std::uint32_t index) { return records_[index].attempt_id; };
  }
  std::uint32_t acquire(Stage stage, const Request& request,
                        std::uint64_t attempt, SimTime prev_delay);
  void release(std::uint32_t index);
  /// Arms the client timeout of the in-flight record `index`.
  void track_in_flight(std::uint32_t index, std::uint64_t attempt_id,
                       bool probe, EventId timeout);

  void dispatch_attempt(const Request& request, std::uint64_t attempt,
                        SimTime prev_delay);
  void handle_attempt_failure(const Request& request, std::uint64_t attempt,
                              SimTime prev_delay);
  void on_completion(const Request& request);
  void fire_timeout(std::uint32_t index);
  void fire_retry(std::uint32_t index);
  SimTime next_backoff(SimTime prev_delay);

  // Breaker internals.
  void breaker_outcome(bool success, bool probe);
  void breaker_open(const char* from);
  void breaker_transition_to_half_open();

  Simulation& sim_;
  ApplicationProvisioner& provisioner_;
  ResilienceConfig config_;
  Rng rng_;
  Telemetry* telemetry_;

  State state_;
  std::vector<Record> records_;
  std::uint32_t free_ = kNil;
  FlatIndex in_flight_;  ///< forwarded id -> record
};

const char* to_string(RetryGateway::BreakerState state);

}  // namespace cloudprov
