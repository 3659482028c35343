#include "fault/reconciler.h"

#include <algorithm>

#include "profile/wall_profiler.h"
#include "telemetry/telemetry.h"
#include "util/check.h"
#include "util/log.h"

namespace cloudprov {

Reconciler::Reconciler(Simulation& sim, ApplicationProvisioner& provisioner,
                       ReconcilerConfig config)
    : sim_(sim),
      provisioner_(provisioner),
      config_(config) {
  state_.next_backoff = config_.backoff_base;
  ensure_arg(config_.interval > 0.0, "Reconciler: interval must be > 0");
  ensure_arg(config_.backoff_base > 0.0,
             "Reconciler: backoff_base must be > 0");
  ensure_arg(config_.backoff_factor >= 1.0,
             "Reconciler: backoff_factor must be >= 1");
  ensure_arg(config_.backoff_max >= config_.backoff_base,
             "Reconciler: backoff_max must be >= backoff_base");
}

void Reconciler::start() {
  if (state_.running) return;
  state_.running = true;
  schedule(config_.interval);
}

void Reconciler::stop() {
  if (!state_.running) return;
  state_.running = false;
  sim_.cancel(pending_);
  pending_ = kInvalidEventId;
}

Reconciler::Snapshot Reconciler::checkpoint() const {
  Snapshot snap;
  static_cast<State&>(snap) = state_;
  snap.pending = sim_.stamp(pending_);
  return snap;
}

void Reconciler::restore(const Snapshot& snap) {
  ensure(!state_.running, "Reconciler::restore: reconciler already started");
  state_ = snap;
  if (snap.pending) {
    pending_ = sim_.schedule_stamped(
        *snap.pending, EventAction::method<&Reconciler::tick>(this));
  }
}

void Reconciler::schedule(SimTime delay) {
  pending_ = sim_.schedule_in(
      delay, EventAction::method<&Reconciler::tick>(this));
}

void Reconciler::tick() {
  ProfileScope profile(sim_.profiler(), ProfileCategory::kReconcilerHook);
  if (!state_.running) return;
  const std::size_t target = provisioner_.commanded_target();
  // A changed commanded target does NOT reset the backoff ladder: if the
  // deficit persists (say the IaaS allocation API is in an outage), resetting
  // on every policy re-command would restart fast retries and hammer the
  // provider for the whole outage. The ladder resets only when the pool
  // actually reaches the target below.
  state_.last_target = target;
  const std::size_t active = provisioner_.active_instances();
  if (active >= target) {
    state_.attempt = 0;
    state_.next_backoff = config_.backoff_base;
    state_.aborted = false;
    schedule(config_.interval);
    return;
  }
  // Deficit: re-command the target; scale_to resurrects draining instances
  // first and then requests fresh VMs, so this is the full heal action.
  const std::size_t achieved = provisioner_.scale_to(target);
  ++state_.heals;
  if (telemetry_ != nullptr) {
    telemetry_->reconcile(sim_.now(), target, active, achieved);
  }
  CLOUDPROV_LOG(Debug) << "reconcile at t=" << sim_.now() << ": active "
                       << active << " -> " << achieved << " (target " << target
                       << ")";
  if (achieved >= target) {
    state_.attempt = 0;
    state_.next_backoff = config_.backoff_base;
    state_.aborted = false;
    schedule(config_.interval);
    return;
  }
  if (state_.aborted) {
    // Retry budget already spent for this episode; keep checking at the
    // plain cadence so a later capacity recovery still heals the pool.
    schedule(config_.interval);
    return;
  }
  if (state_.attempt >= config_.max_retries) {
    state_.aborted = true;
    ++state_.aborts;
    if (telemetry_ != nullptr) {
      telemetry_->reconcile_abort(sim_.now(), state_.attempt);
    }
    CLOUDPROV_LOG(Warn) << "reconciler giving up backoff escalation after "
                        << state_.attempt << " retries at t=" << sim_.now();
    schedule(config_.interval);
    return;
  }
  ++state_.attempt;
  ++state_.retries;
  const SimTime backoff = state_.next_backoff;
  state_.next_backoff = std::min(config_.backoff_max,
                                 state_.next_backoff * config_.backoff_factor);
  if (telemetry_ != nullptr) {
    telemetry_->reconcile_retry(sim_.now(), state_.attempt, backoff);
  }
  schedule(backoff);
}

}  // namespace cloudprov
