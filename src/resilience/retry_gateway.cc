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
      telemetry_(telemetry),
      budget_tokens_(config.budget.burst) {
  if (config_.breaker.enabled) {
    ensure_arg(config_.breaker.window >= 1, "RetryGateway: breaker window >= 1");
    ensure_arg(config_.breaker.half_open_probes >= 1,
               "RetryGateway: breaker needs at least one half-open probe");
    breaker_ring_.assign(config_.breaker.window, 0);
  }
  provisioner_.set_completion_listener(
      [this](const Request& request, double /*response_time*/) {
        on_completion(request);
      });
}

void RetryGateway::on_request(const Request& request) {
  ++client_requests_;
  if (config_.budget.enabled) {
    budget_tokens_ =
        std::min(config_.budget.burst, budget_tokens_ + config_.budget.ratio);
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
  ++client_attempts_;
  const SimTime now = sim_.now();
  bool probe = false;
  if (config_.breaker.enabled) {
    if (breaker_state_ == BreakerState::kOpen &&
        now >= breaker_opened_at_ + config_.breaker.open_duration) {
      breaker_transition_to_half_open();
    }
    if (breaker_state_ == BreakerState::kOpen ||
        (breaker_state_ == BreakerState::kHalfOpen &&
         probes_issued_ >= config_.breaker.half_open_probes)) {
      ++breaker_fast_fails_;
      if (telemetry_) telemetry_->breaker_fast_fail(now, request.id);
      handle_attempt_failure(request, attempt, prev_delay);
      return;
    }
    if (breaker_state_ == BreakerState::kHalfOpen) {
      probe = true;
      ++probes_issued_;
    }
  }

  // Attempt 1 forwards the Broker's request verbatim; retries get a fresh
  // synthetic id and re-arrive "now" (their response time is measured from
  // the retry, but the logical deadline stays anchored at first arrival).
  Request forwarded = request;
  if (attempt > 1) {
    forwarded.id = kRetryIdBase | next_retry_seq_++;
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
    ++client_succeeded_;
    return;
  }
  const std::uint32_t index = in_flight_.erase(request.id, key_of());
  if (index == kNil) {
    // The client abandoned this attempt at its timeout; the server finished
    // it anyway. Capacity burned for nothing.
    ++wasted_completions_;
    return;
  }
  sim_.cancel(records_[index].event);
  breaker_outcome(true, records_[index].probe);
  ++client_succeeded_;
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
  ++client_timeouts_;
  if (telemetry_) telemetry_->client_timeout(sim_.now(), record.attempt_id);
  breaker_outcome(false, record.probe);
  handle_attempt_failure(record.request, record.attempt, record.prev_delay);
}

void RetryGateway::handle_attempt_failure(const Request& request,
                                          std::uint64_t attempt,
                                          SimTime prev_delay) {
  const std::size_t max_attempts = config_.retry.max_attempts;
  if (max_attempts != 0 && attempt >= max_attempts) {
    ++client_failed_;
    return;
  }
  const SimTime delay = next_backoff(prev_delay);
  const SimTime fire_at = sim_.now() + delay;
  if (fire_at >= request.deadline) {
    ++client_failed_;
    return;
  }
  if (config_.budget.enabled) {
    if (budget_tokens_ < 1.0) {
      ++retry_budget_denied_;
      ++client_failed_;
      if (telemetry_) telemetry_->retry_budget_exhausted(sim_.now(), request.id);
      return;
    }
    budget_tokens_ -= 1.0;
  }
  ++client_retries_;
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
  if (breaker_state_ == BreakerState::kHalfOpen) {
    // Only designated probes decide the half-open verdict; stragglers
    // admitted before the trip are ignored.
    if (!probe) return;
    if (!success) {
      breaker_open("half-open");
      return;
    }
    if (++probe_successes_ >= config_.breaker.half_open_probes) {
      breaker_state_ = BreakerState::kClosed;
      ++breaker_closes_;
      breaker_ring_.assign(config_.breaker.window, 0);
      breaker_ring_idx_ = 0;
      breaker_in_window_ = 0;
      breaker_failures_ = 0;
      if (telemetry_) {
        telemetry_->breaker_transition(sim_.now(), "half-open", "closed");
      }
    }
    return;
  }
  if (breaker_state_ == BreakerState::kOpen) return;  // stale outcomes
  // Closed: slide the outcome window and test the trip condition.
  const std::uint8_t failed = success ? 0 : 1;
  if (breaker_in_window_ == breaker_ring_.size()) {
    breaker_failures_ -= breaker_ring_[breaker_ring_idx_];
  } else {
    ++breaker_in_window_;
  }
  breaker_ring_[breaker_ring_idx_] = failed;
  breaker_failures_ += failed;
  breaker_ring_idx_ = (breaker_ring_idx_ + 1) % breaker_ring_.size();
  if (breaker_in_window_ >= config_.breaker.min_volume &&
      static_cast<double>(breaker_failures_) >=
          config_.breaker.failure_threshold *
              static_cast<double>(breaker_in_window_)) {
    breaker_open("closed");
  }
}

void RetryGateway::breaker_open(const char* from) {
  breaker_state_ = BreakerState::kOpen;
  breaker_opened_at_ = sim_.now();
  ++breaker_opens_;
  if (telemetry_) telemetry_->breaker_transition(sim_.now(), from, "open");
}

void RetryGateway::breaker_transition_to_half_open() {
  breaker_state_ = BreakerState::kHalfOpen;
  ++breaker_half_opens_;
  probes_issued_ = 0;
  probe_successes_ = 0;
  if (telemetry_) {
    telemetry_->breaker_transition(sim_.now(), "open", "half-open");
  }
}

// --- checkpoint/restore ---------------------------------------------------

RetryGateway::Snapshot RetryGateway::checkpoint() const {
  Snapshot snap;
  snap.rng = rng_.state();
  snap.budget_tokens = budget_tokens_;
  snap.breaker_state = static_cast<std::uint8_t>(breaker_state_);
  snap.breaker_opened_at = breaker_opened_at_;
  snap.breaker_ring = breaker_ring_;
  snap.breaker_ring_idx = breaker_ring_idx_;
  snap.breaker_in_window = breaker_in_window_;
  snap.breaker_failures = breaker_failures_;
  snap.probes_issued = probes_issued_;
  snap.probe_successes = probe_successes_;
  snap.next_retry_seq = next_retry_seq_;
  snap.client_requests = client_requests_;
  snap.client_succeeded = client_succeeded_;
  snap.client_failed = client_failed_;
  snap.client_attempts = client_attempts_;
  snap.client_retries = client_retries_;
  snap.retry_budget_denied = retry_budget_denied_;
  snap.client_timeouts = client_timeouts_;
  snap.wasted_completions = wasted_completions_;
  snap.breaker_opens = breaker_opens_;
  snap.breaker_half_opens = breaker_half_opens_;
  snap.breaker_closes = breaker_closes_;
  snap.breaker_fast_fails = breaker_fast_fails_;
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
  rng_.set_state(snap.rng);
  budget_tokens_ = snap.budget_tokens;
  breaker_state_ = static_cast<BreakerState>(snap.breaker_state);
  breaker_opened_at_ = snap.breaker_opened_at;
  breaker_ring_ = snap.breaker_ring;
  breaker_ring_idx_ = static_cast<std::size_t>(snap.breaker_ring_idx);
  breaker_in_window_ = static_cast<std::size_t>(snap.breaker_in_window);
  breaker_failures_ = static_cast<std::size_t>(snap.breaker_failures);
  probes_issued_ = static_cast<std::size_t>(snap.probes_issued);
  probe_successes_ = static_cast<std::size_t>(snap.probe_successes);
  next_retry_seq_ = snap.next_retry_seq;
  client_requests_ = snap.client_requests;
  client_succeeded_ = snap.client_succeeded;
  client_failed_ = snap.client_failed;
  client_attempts_ = snap.client_attempts;
  client_retries_ = snap.client_retries;
  retry_budget_denied_ = snap.retry_budget_denied;
  client_timeouts_ = snap.client_timeouts;
  wasted_completions_ = snap.wasted_completions;
  breaker_opens_ = snap.breaker_opens;
  breaker_half_opens_ = snap.breaker_half_opens;
  breaker_closes_ = snap.breaker_closes;
  breaker_fast_fails_ = snap.breaker_fast_fails;
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
