#include "core/application_provisioner.h"

#include <algorithm>

#include "telemetry/telemetry.h"
#include "util/check.h"
#include "util/log.h"

namespace cloudprov {

ApplicationProvisioner::ApplicationProvisioner(
    Simulation& sim, Datacenter& datacenter, QosTargets qos,
    ProvisionerConfig config, std::unique_ptr<AdmissionPolicy> admission)
    : Entity(sim, "application-provisioner"),
      datacenter_(datacenter),
      qos_(qos),
      config_(config),
      admission_(std::move(admission)) {
  state_.instance_count = TimeWeightedValue(sim.now(), 0.0);
  ensure_arg(config_.initial_service_time_estimate > 0.0,
             "ApplicationProvisioner: service time estimate must be > 0");
  ensure_arg(admission_ != nullptr, "ApplicationProvisioner: null admission policy");
}

double ApplicationProvisioner::monitored_service_time() const {
  return state_.service_stats.empty() ? config_.initial_service_time_estimate
                                      : state_.service_stats.mean();
}

std::size_t ApplicationProvisioner::current_queue_bound() const {
  if (config_.fixed_queue_bound > 0) return config_.fixed_queue_bound;
  // The adaptive bound only moves when the monitored mean moves, i.e. when a
  // completion lands in the service statistics; memoize on the completion
  // count so the per-arrival query costs two loads instead of two FP
  // divisions.
  const std::uint64_t completions = state_.service_stats.count();
  if (completions != bound_cache_completions_) {
    bound_cache_ = queue_bound(qos_.max_response_time, monitored_service_time());
    bound_cache_completions_ = completions;
  }
  return bound_cache_;
}

double ApplicationProvisioner::rejection_rate() const {
  const std::uint64_t total = state_.accepted + state_.rejected;
  return total == 0 ? 0.0
                    : static_cast<double>(state_.rejected) /
                          static_cast<double>(total);
}

PoolView ApplicationProvisioner::pool_view() const {
  PoolView view;
  view.active_instances = instances_.size();
  view.queue_bound = current_queue_bound();
  view.mean_service_time = monitored_service_time();
  view.now = now();
  std::size_t free_slots = 0;
  for (const Vm* vm : instances_) {
    const std::size_t load = vm->load();
    if (load < view.queue_bound) free_slots += view.queue_bound - load;
  }
  view.total_free_slots = free_slots;
  return view;
}

Vm* ApplicationProvisioner::select_instance(const Request& request) {
  if (instances_.empty()) return nullptr;
  const std::size_t k = current_queue_bound();
  // The pool-wide view costs an O(n) scan per arrival; build it only for
  // policies that read it (the paper's k-bound baseline does not).
  PoolView view;
  if (admission_->needs_pool_view()) view = pool_view();
  const std::size_t n = instances_.size();
  // Round-robin scan starting at the cursor; the first instance with a free
  // slot that admission accepts gets the request ("following a round-robin
  // strategy", Section IV-C). Wrap by comparison, not modulo: the scan runs
  // per arrival and an integer division per step is measurable there.
  std::size_t index = rr_cursor_ % n;
  for (std::size_t step = 0; step < n; ++step) {
    Vm* vm = instances_[index];
    const std::size_t next = index + 1 == n ? 0 : index + 1;
    if (vm->state() == VmState::kRunning && vm->load() < k &&
        admission_->admit(request, *vm, view)) {
      rr_cursor_ = next;
      return vm;
    }
    index = next;
  }
  return nullptr;
}

void ApplicationProvisioner::on_request(const Request& request) {
  (void)try_submit(request);
}

bool ApplicationProvisioner::try_submit(const Request& request) {
  ++state_.window_arrivals;
  Vm* vm = select_instance(request);
  if (vm == nullptr) {
    // "If all virtualized application instances have k requests in their
    // queues, new requests are rejected."
    ++state_.rejected;
    if (telemetry_ != nullptr) {
      telemetry_->request_arrival(now(), request.id);
      telemetry_->request_rejected(now(), request.id);
    }
    return false;
  }
  ++state_.accepted;
  if (telemetry_ != nullptr) {
    telemetry_->request_arrival(now(), request.id);
    telemetry_->request_admitted(now(), request.id, vm->id());
  }
  vm->submit(request);
  return true;
}

void ApplicationProvisioner::install_callbacks(Vm& vm) {
  vm.set_completion_callback(
      [this](Vm& v, const Request& r, double response_time) {
        on_vm_complete(v, r, response_time);
      });
  vm.set_drained_callback([this](Vm& v) { on_vm_drained(v); });
  vm.set_failure_callback(
      [this](Vm& v, FaultCause cause, const std::vector<Request>& lost) {
        on_vm_failed(v, cause, lost);
      });
}

void ApplicationProvisioner::arm_boot_watchdog(Vm& vm,
                                               std::optional<EventStamp> stamp) {
  // Boot watchdog: the VM pointer stays valid for the whole run (the data
  // center owns the full VM history), so the check is state-based. The
  // record is erased when the event fires, pending records ride along in
  // checkpoints.
  Vm* watched = &vm;
  const std::uint64_t vm_id = vm.id();
  auto fire = [this, watched, vm_id] {
    for (std::size_t i = 0; i < watchdogs_.size(); ++i) {
      if (watchdogs_[i].vm_id == vm_id) {
        watchdogs_.erase(watchdogs_.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
    if (watched->state() == VmState::kBooting) {
      CLOUDPROV_LOG(Debug) << "boot timeout for vm-" << watched->id()
                           << " at t=" << now();
      (void)datacenter_.fail_vm(*watched, FaultCause::kBootTimeout);
    }
  };
  const EventId event =
      stamp ? sim().schedule_stamped(*stamp, std::move(fire))
            : sim().schedule_in(config_.boot_timeout, std::move(fire));
  watchdogs_.push_back(WatchdogRecord{event, vm_id});
}

Vm* ApplicationProvisioner::create_instance() {
  Vm* vm = vm_factory_ ? vm_factory_(config_.vm_spec)
                       : datacenter_.create_vm(config_.vm_spec);
  if (vm == nullptr) return nullptr;
  vm->set_priority_queueing(config_.priority_queueing);
  install_callbacks(*vm);
  if (config_.boot_timeout > 0.0 && vm->state() == VmState::kBooting) {
    arm_boot_watchdog(*vm, std::nullopt);
  }
  instances_.push_back(vm);
  return vm;
}

void ApplicationProvisioner::drain_instance(std::size_t index) {
  Vm* vm = instances_[index];
  instances_.erase(instances_.begin() + static_cast<std::ptrdiff_t>(index));
  if (rr_cursor_ >= instances_.size()) rr_cursor_ = 0;
  // drain() may synchronously invoke on_vm_drained when the instance is
  // idle, which destroys it; push to draining_ first so the callback finds it.
  draining_.push_back(vm);
  vm->drain();
}

std::size_t ApplicationProvisioner::scale_to(std::size_t target) {
  desired_target_ = target;
  std::size_t granted = target;
  if (granted > capacity_cap_) {
    granted = capacity_cap_;
    ++capacity_clips_;
    capacity_denied_ += target - granted;
  }
  return apply_target(granted);
}

void ApplicationProvisioner::set_capacity_cap(std::size_t cap) {
  capacity_cap_ = cap;
  const std::size_t granted = std::min(desired_target_, capacity_cap_);
  // Re-apply only on change: a no-op grant must not touch the pool (or the
  // time-weighted instance history) so arbitration without contention stays
  // bit-identical to the unarbitrated run.
  if (granted != state_.commanded_target) apply_target(granted);
}

std::size_t ApplicationProvisioner::apply_target(std::size_t target) {
  state_.commanded_target = target;
  // Scale up: resurrect draining instances first, newest selections first
  // (they are the least drained). Revoked instances are skipped — the spot
  // market has already reclaimed them and will hard-kill any survivor.
  while (instances_.size() < target && !draining_.empty()) {
    std::size_t pick = draining_.size();
    for (std::size_t i = draining_.size(); i-- > 0;) {
      if (!draining_[i]->revoked()) {
        pick = i;
        break;
      }
    }
    if (pick == draining_.size()) break;  // every drainer is revoked
    Vm* vm = draining_[pick];
    draining_.erase(draining_.begin() + static_cast<std::ptrdiff_t>(pick));
    vm->undrain();
    instances_.push_back(vm);
  }
  // Then request fresh VMs from the data center's resource provisioner.
  while (instances_.size() < target) {
    if (create_instance() == nullptr) {
      CLOUDPROV_LOG(Warn) << "scale_to(" << target
                          << "): data center capacity exhausted at "
                          << instances_.size() << " instances";
      break;
    }
  }
  // Scale down: idle instances first, then the least-loaded ones.
  while (instances_.size() > target) {
    std::size_t victim = 0;
    std::size_t best_load = SIZE_MAX;
    for (std::size_t i = 0; i < instances_.size(); ++i) {
      const std::size_t load = instances_[i]->load();
      if (load < best_load) {
        best_load = load;
        victim = i;
        if (load == 0) break;  // idle instance: destroy immediately
      }
    }
    drain_instance(victim);
  }
  update_deficit();
  record_instance_count();
  return instances_.size();
}

void ApplicationProvisioner::on_vm_complete(Vm& vm, const Request& request,
                                            double response_time) {
  state_.response_stats.add(response_time);
  const double service_time = request.service_demand / vm.spec().speed;
  state_.service_stats.add(service_time);
  if (config_.track_quantiles) {
    state_.p95.add(response_time);
    state_.p99.add(response_time);
  }
  const bool violation = response_time > qos_.max_response_time;
  if (violation) ++state_.qos_violations;
  if (telemetry_ != nullptr) {
    telemetry_->request_completed(now(), request.id, response_time,
                                  service_time, violation);
  }
  if (completion_listener_) completion_listener_(request, response_time);
}

void ApplicationProvisioner::on_vm_drained(Vm& vm) {
  const auto it = std::find(draining_.begin(), draining_.end(), &vm);
  ensure(it != draining_.end(), "drained VM not in draining list");
  draining_.erase(it);
  datacenter_.destroy_vm(vm);
  record_instance_count();
}

void ApplicationProvisioner::record_instance_count() {
  if (telemetry_ != nullptr) {
    if (cache_instance_lane_) {
      telemetry_->cache_instance_count(now(), instances_.size(),
                                       draining_.size());
    } else {
      telemetry_->instance_count(now(), instances_.size(), draining_.size());
    }
  }
  if (!state_.instance_history_started) {
    state_.instance_history_started = true;
    state_.instance_count =
        TimeWeightedValue(now(), static_cast<double>(live_instances()));
    return;
  }
  state_.instance_count.update(now(), static_cast<double>(live_instances()));
}

std::uint64_t ApplicationProvisioner::take_window_arrivals() {
  const std::uint64_t count = state_.window_arrivals;
  state_.window_arrivals = 0;
  return count;
}

void ApplicationProvisioner::for_each_instance(
    const std::function<void(Vm&)>& fn) {
  for (Vm* vm : instances_) fn(*vm);
}

void ApplicationProvisioner::revoke_instance(Vm& vm) {
  vm.set_revoked();
  const auto it = std::find(instances_.begin(), instances_.end(), &vm);
  if (it == instances_.end()) {
    // Already draining (or not ours): the sticky revoked flag is enough.
    return;
  }
  const auto index = static_cast<std::size_t>(it - instances_.begin());
  if (vm.state() == VmState::kBooting) {
    // Never came up: nothing to drain, release the slot immediately.
    instances_.erase(it);
    if (rr_cursor_ >= instances_.size()) rr_cursor_ = 0;
    datacenter_.destroy_vm(vm);
  } else {
    drain_instance(index);
  }
  update_deficit();
  record_instance_count();
  CLOUDPROV_LOG(Debug) << "spot revocation notice for vm-" << vm.id()
                       << " at t=" << now();
}

std::size_t ApplicationProvisioner::inject_instance_failure(std::size_t index) {
  ensure_arg(index < live_instances(),
             "inject_instance_failure: index out of range");
  Vm* victim = index < instances_.size()
                   ? instances_[index]
                   : draining_[index - instances_.size()];
  // The VM's failure callback (on_vm_failed) removes it from the dispatch
  // lists and does all the accounting.
  return datacenter_.fail_vm(*victim, FaultCause::kVmCrash);
}

void ApplicationProvisioner::on_vm_failed(Vm& vm, FaultCause cause,
                                          const std::vector<Request>& lost) {
  const auto it = std::find(instances_.begin(), instances_.end(), &vm);
  if (it != instances_.end()) {
    instances_.erase(it);
    if (rr_cursor_ >= instances_.size() && !instances_.empty()) rr_cursor_ = 0;
  } else {
    const auto dit = std::find(draining_.begin(), draining_.end(), &vm);
    ensure(dit != draining_.end(), "on_vm_failed: VM not in the pool");
    draining_.erase(dit);
  }
  datacenter_.release_failed_vm(vm);
  state_.lost_to_failures += lost.size();
  ++state_.instance_failures;
  state_.failures_by_cause[static_cast<std::size_t>(cause)] += 1;
  state_.lost_by_cause[static_cast<std::size_t>(cause)] += lost.size();
  if (telemetry_ != nullptr) {
    telemetry_->vm_failed(now(), vm.id(), lost.size(), to_string(cause));
    for (const Request& request : lost) {
      telemetry_->request_lost(now(), request.id);
    }
  }
  update_deficit();
  record_instance_count();
  CLOUDPROV_LOG(Debug) << "instance failure (" << to_string(cause)
                       << ") at t=" << now() << ", lost " << lost.size()
                       << " request(s)";
}

void ApplicationProvisioner::update_deficit() {
  const bool deficit = instances_.size() < state_.commanded_target;
  if (deficit && !state_.in_deficit) {
    state_.in_deficit = true;
    state_.deficit_since = now();
  } else if (!deficit && state_.in_deficit) {
    state_.in_deficit = false;
    const SimTime repair = now() - state_.deficit_since;
    state_.deficit_seconds += repair;
    state_.recovery_stats.add(repair);
    if (telemetry_ != nullptr) telemetry_->pool_recovered(now(), repair);
  }
}

double ApplicationProvisioner::deficit_seconds() const {
  double total = state_.deficit_seconds;
  if (state_.in_deficit) total += now() - state_.deficit_since;
  return total;
}

ApplicationProvisioner::Snapshot ApplicationProvisioner::checkpoint() const {
  Snapshot snap;
  static_cast<State&>(snap) = state_;
  snap.instances.reserve(instances_.size());
  for (const Vm* vm : instances_) snap.instances.push_back(vm->id());
  snap.draining.reserve(draining_.size());
  for (const Vm* vm : draining_) snap.draining.push_back(vm->id());
  snap.rr_cursor = rr_cursor_;
  for (const WatchdogRecord& record : watchdogs_) {
    if (auto stamp = sim().stamp(record.event)) {
      snap.watchdogs.push_back(Snapshot::Watchdog{*stamp, record.vm_id});
    }
  }
  return snap;
}

void ApplicationProvisioner::restore(const Snapshot& snap) {
  ensure(instances_.empty() && draining_.empty() && state_.accepted == 0,
         "ApplicationProvisioner::restore: provisioner already used");
  state_ = snap;
  desired_target_ = snap.commanded_target;
  instances_.clear();
  for (std::uint64_t id : snap.instances) {
    Vm* vm = datacenter_.find_vm(id);
    ensure(vm != nullptr, "restore: active instance missing from data center");
    install_callbacks(*vm);
    instances_.push_back(vm);
  }
  draining_.clear();
  for (std::uint64_t id : snap.draining) {
    Vm* vm = datacenter_.find_vm(id);
    ensure(vm != nullptr, "restore: draining instance missing from data center");
    install_callbacks(*vm);
    draining_.push_back(vm);
  }
  rr_cursor_ = snap.rr_cursor;
  watchdogs_.clear();
  for (const Snapshot::Watchdog& watchdog : snap.watchdogs) {
    Vm* vm = datacenter_.find_vm(watchdog.vm_id);
    ensure(vm != nullptr, "restore: watchdog target missing from data center");
    arm_boot_watchdog(*vm, watchdog.stamp);
  }
  // The queue-bound memo recomputes lazily (it is a pure function of the
  // restored service statistics).
  bound_cache_completions_ = UINT64_MAX;
}

MonitoringSnapshot ApplicationProvisioner::snapshot() const {
  MonitoringSnapshot snap;
  snap.time = now();
  snap.mean_service_time = monitored_service_time();
  snap.completed_requests = state_.response_stats.count();
  snap.active_instances = instances_.size();
  // Pool utilization over the whole run so far (windowed utilization is the
  // experiment harness's job via the data center accounting).
  snap.pool_utilization = datacenter_.utilization();
  const SimTime elapsed = now();
  snap.observed_arrival_rate =
      elapsed > 0.0 ? static_cast<double>(total_arrivals()) / elapsed : 0.0;
  return snap;
}

}  // namespace cloudprov
