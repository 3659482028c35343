#include "resilience/retry_gateway.h"

#include <algorithm>

#include "core/application_provisioner.h"
#include "profile/wall_profiler.h"
#include "telemetry/telemetry.h"
#include "util/check.h"

namespace cloudprov {

const char* to_string(RetryGateway::BreakerState state) {
  switch (state) {
    case RetryGateway::BreakerState::kClosed: return "closed";
    case RetryGateway::BreakerState::kOpen: return "open";
    case RetryGateway::BreakerState::kHalfOpen: return "half-open";
  }
  return "?";
}

RetryGateway::RetryGateway(Simulation& sim, ApplicationProvisioner& provisioner,
                           const ResilienceConfig& config, Rng rng,
                           Telemetry* telemetry)
    : sim_(sim),
      provisioner_(provisioner),
      config_(config),
      rng_(rng),
      telemetry_(telemetry) {
  state_.budget_tokens = config_.budget.burst;
  if (config_.breaker.enabled) {
    ensure_arg(config_.breaker.window >= 1, "RetryGateway: breaker window >= 1");
    ensure_arg(config_.breaker.half_open_probes >= 1,
               "RetryGateway: breaker needs at least one half-open probe");
    state_.breaker_ring.assign(config_.breaker.window, 0);
  }
  provisioner_.set_completion_listener(
      [this](const Request& request, double /*response_time*/) {
        on_completion(request);
      });
}

void RetryGateway::on_request(const Request& request) {
  ++state_.client_requests;
  if (config_.budget.enabled) {
    state_.budget_tokens = std::min(
        config_.budget.burst, state_.budget_tokens + config_.budget.ratio);
  }
  Request logical = request;
  if (config_.request_deadline > 0.0) {
    logical.deadline = std::min(logical.deadline,
                                request.arrival_time + config_.request_deadline);
  }
  dispatch_attempt(logical, 1, config_.retry.base);
}

void RetryGateway::dispatch_attempt(const Request& request,
                                    std::uint64_t attempt, SimTime prev_delay) {
  ++state_.client_attempts;
  const SimTime now = sim_.now();
  bool probe = false;
  if (config_.breaker.enabled) {
    if (state_.breaker_state == BreakerState::kOpen &&
        now >= state_.breaker_opened_at + config_.breaker.open_duration) {
      breaker_transition_to_half_open();
    }
    if (state_.breaker_state == BreakerState::kOpen ||
        (state_.breaker_state == BreakerState::kHalfOpen &&
         state_.probes_issued >= config_.breaker.half_open_probes)) {
      ++state_.breaker_fast_fails;
      if (telemetry_) telemetry_->breaker_fast_fail(now, request.id);
      handle_attempt_failure(request, attempt, prev_delay);
      return;
    }
    if (state_.breaker_state == BreakerState::kHalfOpen) {
      probe = true;
      ++state_.probes_issued;
    }
  }

  // Attempt 1 forwards the Broker's request verbatim; retries get a fresh
  // synthetic id and re-arrive "now" (their response time is measured from
  // the retry, but the logical deadline stays anchored at first arrival).
  Request forwarded = request;
  if (attempt > 1) {
    forwarded.id = kRetryIdBase | state_.next_retry_seq++;
    forwarded.arrival_time = now;
  }
  const bool admitted = provisioner_.try_submit(forwarded);
  if (!admitted) {
    breaker_outcome(false, probe);
    handle_attempt_failure(request, attempt, prev_delay);
    return;
  }
  if (config_.attempt_timeout > 0.0) {
    const std::uint32_t index =
        acquire(Stage::kInFlight, request, attempt, prev_delay);
    track_in_flight(index, forwarded.id, probe,
                    sim_.schedule_fifo(now + config_.attempt_timeout,
                                       [this, index] { fire_timeout(index); }));
  } else {
    // No client timeout: admission is the whole outcome.
    breaker_outcome(true, probe);
  }
}

std::uint32_t RetryGateway::acquire(Stage stage, const Request& request,
                                    std::uint64_t attempt,
                                    SimTime prev_delay) {
  std::uint32_t index = free_;
  if (index != kNil) {
    free_ = records_[index].next_free;
  } else {
    ensure(records_.size() < kNil, "RetryGateway: record slab exhausted");
    index = static_cast<std::uint32_t>(records_.size());
    records_.emplace_back();
  }
  Record& record = records_[index];
  record.request = request;
  record.attempt = attempt;
  record.prev_delay = prev_delay;
  record.stage = stage;
  return index;
}

void RetryGateway::release(std::uint32_t index) {
  records_[index].stage = Stage::kFree;
  records_[index].next_free = free_;
  free_ = index;
}

void RetryGateway::track_in_flight(std::uint32_t index,
                                   std::uint64_t attempt_id, bool probe,
                                   EventId timeout) {
  Record& record = records_[index];
  record.attempt_id = attempt_id;
  record.probe = probe;
  record.event = timeout;
  ensure_arg(in_flight_.insert(attempt_id, index, key_of()),
             "RetryGateway: attempt id already in flight");
}

void RetryGateway::on_completion(const Request& request) {
  if (config_.attempt_timeout <= 0.0) {
    ++state_.client_succeeded;
    return;
  }
  const std::uint32_t index = in_flight_.erase(request.id, key_of());
  if (index == kNil) {
    // The client abandoned this attempt at its timeout; the server finished
    // it anyway. Capacity burned for nothing.
    ++state_.wasted_completions;
    return;
  }
  sim_.cancel(records_[index].event);
  breaker_outcome(true, records_[index].probe);
  ++state_.client_succeeded;
  release(index);
}

void RetryGateway::fire_timeout(std::uint32_t index) {
  // Cold paths only: per-request forwarding (on_request/dispatch_attempt)
  // stays unscoped — two clock reads per request would not be low-overhead.
  ProfileScope profile(sim_.profiler(), ProfileCategory::kResilienceHook);
  // A completed attempt cancelled its timeout, so the record is in flight.
  const Record record = records_[index];
  in_flight_.erase(record.attempt_id, key_of());
  release(index);
  ++state_.client_timeouts;
  if (telemetry_) telemetry_->client_timeout(sim_.now(), record.attempt_id);
  breaker_outcome(false, record.probe);
  handle_attempt_failure(record.request, record.attempt, record.prev_delay);
}

void RetryGateway::handle_attempt_failure(const Request& request,
                                          std::uint64_t attempt,
                                          SimTime prev_delay) {
  const std::size_t max_attempts = config_.retry.max_attempts;
  if (max_attempts != 0 && attempt >= max_attempts) {
    ++state_.client_failed;
    return;
  }
  const SimTime delay = next_backoff(prev_delay);
  const SimTime fire_at = sim_.now() + delay;
  if (fire_at >= request.deadline) {
    ++state_.client_failed;
    return;
  }
  if (config_.budget.enabled) {
    if (state_.budget_tokens < 1.0) {
      ++state_.retry_budget_denied;
      ++state_.client_failed;
      if (telemetry_) telemetry_->retry_budget_exhausted(sim_.now(), request.id);
      return;
    }
    state_.budget_tokens -= 1.0;
  }
  ++state_.client_retries;
  if (telemetry_) {
    telemetry_->retry_scheduled(sim_.now(), request.id, attempt + 1, delay);
  }
  const std::uint32_t index =
      acquire(Stage::kWaiting, request, attempt + 1, delay);
  records_[index].event =
      sim_.schedule_at(fire_at, [this, index] { fire_retry(index); });
}

void RetryGateway::fire_retry(std::uint32_t index) {
  ProfileScope profile(sim_.profiler(), ProfileCategory::kResilienceHook);
  const Record record = records_[index];
  release(index);
  dispatch_attempt(record.request, record.attempt, record.prev_delay);
}

SimTime RetryGateway::next_backoff(SimTime prev_delay) {
  if (config_.retry.backoff == RetryPolicyConfig::Backoff::kFixed) {
    return config_.retry.base;
  }
  // Decorrelated jitter (the AWS architecture-blog variant): each delay is
  // U(base, 3 * previous delay), clamped to the cap.
  const double hi = std::max(config_.retry.base, 3.0 * prev_delay);
  const double drawn = rng_.uniform(config_.retry.base, hi);
  return std::min(config_.retry.cap, drawn);
}

// --- circuit breaker ------------------------------------------------------

void RetryGateway::breaker_outcome(bool success, bool probe) {
  if (!config_.breaker.enabled) return;
  if (state_.breaker_state == BreakerState::kHalfOpen) {
    // Only designated probes decide the half-open verdict; stragglers
    // admitted before the trip are ignored.
    if (!probe) return;
    if (!success) {
      breaker_open("half-open");
      return;
    }
    if (++state_.probe_successes >= config_.breaker.half_open_probes) {
      state_.breaker_state = BreakerState::kClosed;
      ++state_.breaker_closes;
      state_.breaker_ring.assign(config_.breaker.window, 0);
      state_.breaker_ring_idx = 0;
      state_.breaker_in_window = 0;
      state_.breaker_failures = 0;
      if (telemetry_) {
        telemetry_->breaker_transition(sim_.now(), "half-open", "closed");
      }
    }
    return;
  }
  if (state_.breaker_state == BreakerState::kOpen) return;  // stale outcomes
  // Closed: slide the outcome window and test the trip condition.
  const std::uint8_t failed = success ? 0 : 1;
  if (state_.breaker_in_window == state_.breaker_ring.size()) {
    state_.breaker_failures -= state_.breaker_ring[state_.breaker_ring_idx];
  } else {
    ++state_.breaker_in_window;
  }
  state_.breaker_ring[state_.breaker_ring_idx] = failed;
  state_.breaker_failures += failed;
  state_.breaker_ring_idx =
      (state_.breaker_ring_idx + 1) % state_.breaker_ring.size();
  if (state_.breaker_in_window >= config_.breaker.min_volume &&
      static_cast<double>(state_.breaker_failures) >=
          config_.breaker.failure_threshold *
              static_cast<double>(state_.breaker_in_window)) {
    breaker_open("closed");
  }
}

void RetryGateway::breaker_open(const char* from) {
  state_.breaker_state = BreakerState::kOpen;
  state_.breaker_opened_at = sim_.now();
  ++state_.breaker_opens;
  if (telemetry_) telemetry_->breaker_transition(sim_.now(), from, "open");
}

void RetryGateway::breaker_transition_to_half_open() {
  state_.breaker_state = BreakerState::kHalfOpen;
  ++state_.breaker_half_opens;
  state_.probes_issued = 0;
  state_.probe_successes = 0;
  if (telemetry_) {
    telemetry_->breaker_transition(sim_.now(), "open", "half-open");
  }
}

// --- checkpoint/restore ---------------------------------------------------

RetryGateway::Snapshot RetryGateway::checkpoint() const {
  Snapshot snap;
  static_cast<State&>(snap) = state_;
  snap.rng = rng_.state();
  for (const Record& record : records_) {
    if (record.stage == Stage::kFree) continue;
    const auto stamp = sim_.stamp(record.event);
    ensure(stamp.has_value(), "RetryGateway: open attempt has no stamp");
    if (record.stage == Stage::kInFlight) {
      snap.in_flight.push_back(InFlightEntry{record.attempt_id, record.request,
                                             record.attempt, record.prev_delay,
                                             record.probe, *stamp});
    } else {
      snap.retries.push_back(PendingRetry{record.request, record.attempt,
                                          record.prev_delay, *stamp});
    }
  }
  std::sort(snap.in_flight.begin(), snap.in_flight.end(),
            [](const InFlightEntry& a, const InFlightEntry& b) {
              return a.attempt_id < b.attempt_id;
            });
  std::sort(snap.retries.begin(), snap.retries.end(),
            [](const PendingRetry& a, const PendingRetry& b) {
              return a.event.seq < b.event.seq;
            });
  return snap;
}

void RetryGateway::restore(const Snapshot& snap) {
  state_ = snap;
  rng_.set_state(snap.rng);
  records_.clear();
  free_ = kNil;
  in_flight_.clear();
  for (const InFlightEntry& entry : snap.in_flight) {
    const std::uint32_t index =
        acquire(Stage::kInFlight, entry.request, entry.attempt,
                entry.prev_delay);
    track_in_flight(index, entry.attempt_id, entry.probe,
                    sim_.schedule_fifo_stamped(
                        entry.timeout_event,
                        [this, index] { fire_timeout(index); }));
  }
  for (const PendingRetry& entry : snap.retries) {
    const std::uint32_t index =
        acquire(Stage::kWaiting, entry.request, entry.attempt,
                entry.prev_delay);
    records_[index].event = sim_.schedule_stamped(
        entry.event, [this, index] { fire_retry(index); });
  }
}

}  // namespace cloudprov
