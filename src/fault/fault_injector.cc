#include "fault/fault_injector.h"

#include "profile/wall_profiler.h"
#include "telemetry/telemetry.h"
#include "util/check.h"
#include "util/log.h"

namespace cloudprov {

FaultInjector::FaultInjector(Simulation& sim, Datacenter& datacenter,
                             ApplicationProvisioner& provisioner,
                             FaultPlan plan, std::uint64_t seed)
    : sim_(sim),
      datacenter_(datacenter),
      provisioner_(provisioner),
      plan_(std::move(plan)),
      // Independent sub-streams per fault source: enabling or re-rating one
      // source never perturbs the draws of another.
      vm_rng_(SplitMix64(seed).next()),
      host_rng_(SplitMix64(seed ^ 0x9e3779b97f4a7c15ULL).next()),
      boot_rng_(SplitMix64(seed ^ 0x6a09e667f3bcc909ULL).next()),
      degrade_rng_(SplitMix64(seed ^ 0xbb67ae8584caa73bULL).next()) {
  plan_.validate();
}

void FaultInjector::start() {
  if (state_.running) return;
  state_.running = true;
  if (plan_.vm_mtbf > 0.0) schedule_vm_crash();
  if (plan_.host_mtbf > 0.0) schedule_host_crash();
  if (plan_.degraded_mtbf > 0.0) schedule_degradation();
  if (plan_.boot_fail_prob > 0.0 || plan_.straggler_prob > 0.0) {
    install_boot_sampler();
  }
  schedule_outages();
  schedule_script();
}

void FaultInjector::stop() {
  if (!state_.running) return;
  state_.running = false;
  sim_.cancel(pending_vm_);
  sim_.cancel(pending_host_);
  sim_.cancel(pending_degrade_);
  pending_vm_ = pending_host_ = pending_degrade_ = kInvalidEventId;
  for (const TimedRecord& record : timed_events_) sim_.cancel(record.event);
  timed_events_.clear();
  datacenter_.set_boot_fault_sampler(nullptr);
  if (state_.active_outages > 0) {
    state_.active_outages = 0;
    datacenter_.set_allocation_suspended(false);
  }
}

// --- stochastic VM crashes -------------------------------------------------

void FaultInjector::schedule_vm_crash() {
  const std::size_t live = provisioner_.live_instances();
  // Superposition of per-instance exponential lifetimes: next crash anywhere
  // in the pool arrives at rate live / MTBF, re-evaluated at every event.
  const SimTime delay =
      live == 0
          ? plan_.idle_retry
          : vm_rng_.exponential(static_cast<double>(live) / plan_.vm_mtbf);
  pending_vm_ = sim_.schedule_in(
      delay, EventAction::method<&FaultInjector::fire_vm_crash>(this));
}

void FaultInjector::fire_vm_crash() {
  ProfileScope profile(sim_.profiler(), ProfileCategory::kFaultHook);
  if (!state_.running) return;
  const std::size_t live = provisioner_.live_instances();
  if (live > 0) {
    const auto victim =
        static_cast<std::size_t>(vm_rng_.uniform_int(0, live - 1));
    provisioner_.inject_instance_failure(victim);
    ++state_.vm_crashes;
  }
  schedule_vm_crash();
}

// --- correlated host crashes -----------------------------------------------

std::size_t FaultInjector::occupied_hosts() const {
  std::size_t count = 0;
  for (const Host& host : datacenter_.hosts()) {
    if (!host.failed() && host.vm_count() > 0) ++count;
  }
  return count;
}

void FaultInjector::schedule_host_crash() {
  const std::size_t occupied = occupied_hosts();
  const SimTime delay =
      occupied == 0 ? plan_.idle_retry
                    : host_rng_.exponential(static_cast<double>(occupied) /
                                            plan_.host_mtbf);
  pending_host_ = sim_.schedule_in(
      delay, EventAction::method<&FaultInjector::fire_host_crash>(this));
}

void FaultInjector::fire_host_crash() {
  ProfileScope profile(sim_.profiler(), ProfileCategory::kFaultHook);
  if (!state_.running) return;
  const std::size_t occupied = occupied_hosts();
  if (occupied > 0) {
    // Victim: the pick-th occupied host in index order.
    auto pick = static_cast<std::size_t>(
        host_rng_.uniform_int(0, occupied - 1));
    const std::span<const Host> hosts = datacenter_.hosts();
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      if (hosts[i].failed() || hosts[i].vm_count() == 0) continue;
      if (pick == 0) {
        datacenter_.fail_host(i);
        ++state_.host_crashes;
        break;
      }
      --pick;
    }
  }
  schedule_host_crash();
}

// --- boot faults (failures + stragglers) -----------------------------------

void FaultInjector::install_boot_sampler() {
  datacenter_.set_boot_fault_sampler(
      [this](SimTime now, SimTime base_delay) {
        Datacenter::BootOutcome out{base_delay, false};
        // Draw only the streams whose probability is non-zero so enabling
        // one boot fault does not shift the other's sequence.
        if (plan_.straggler_prob > 0.0 &&
            boot_rng_.bernoulli(plan_.straggler_prob)) {
          out.boot_delay = base_delay + boot_rng_.pareto(plan_.straggler_scale,
                                                         plan_.straggler_shape);
          ++state_.stragglers;
          if (telemetry_ != nullptr) {
            telemetry_->boot_straggler(now, out.boot_delay);
          }
        }
        if (plan_.boot_fail_prob > 0.0 &&
            boot_rng_.bernoulli(plan_.boot_fail_prob)) {
          out.fail_boot = true;
          ++state_.boot_failures;
        }
        return out;
      });
}

// --- temporary performance degradation --------------------------------------

void FaultInjector::schedule_degradation() {
  const std::size_t active = provisioner_.active_instances();
  const SimTime delay =
      active == 0 ? plan_.idle_retry
                  : degrade_rng_.exponential(static_cast<double>(active) /
                                             plan_.degraded_mtbf);
  pending_degrade_ = sim_.schedule_in(
      delay, EventAction::method<&FaultInjector::fire_degradation>(this));
}

void FaultInjector::fire_degradation() {
  ProfileScope profile(sim_.profiler(), ProfileCategory::kFaultHook);
  if (!state_.running) return;
  std::vector<Vm*> actives;
  provisioner_.for_each_instance([&actives](Vm& vm) { actives.push_back(&vm); });
  if (!actives.empty()) {
    const auto pick = static_cast<std::size_t>(
        degrade_rng_.uniform_int(0, actives.size() - 1));
    Vm* victim = actives[pick];
    const double original = victim->spec().speed;
    victim->set_speed(original * plan_.degraded_factor);
    ++state_.degradations;
    if (telemetry_ != nullptr) {
      telemetry_->vm_degraded(sim_.now(), victim->id(), plan_.degraded_factor);
    }
    CLOUDPROV_LOG(Debug) << "vm-" << victim->id() << " degraded to "
                         << plan_.degraded_factor << "x at t=" << sim_.now();
    TimedRecord record;
    record.kind = TimedKind::kDegradeRestore;
    record.vm_id = victim->id();
    record.original_speed = original;
    schedule_timed(std::move(record), sim_.now() + plan_.degraded_duration,
                   std::nullopt);
  }
  schedule_degradation();
}

void FaultInjector::fire_degrade_restore(std::uint64_t vm_id,
                                         double original_speed) {
  Vm* victim = datacenter_.find_vm(vm_id);
  if (victim == nullptr || victim->state() == VmState::kDestroyed) return;
  victim->set_speed(original_speed);
  if (telemetry_ != nullptr) {
    telemetry_->vm_restored(sim_.now(), victim->id());
  }
}

// --- allocation outages + deterministic script -------------------------------

void FaultInjector::fire_outage_begin() {
  ++state_.active_outages;
  datacenter_.set_allocation_suspended(true);
  if (telemetry_ != nullptr) {
    telemetry_->allocation_outage(sim_.now(), /*begin=*/true);
  }
  CLOUDPROV_LOG(Info) << "IaaS allocation outage begins at t=" << sim_.now();
}

void FaultInjector::fire_outage_end() {
  ensure(state_.active_outages > 0,
         "FaultInjector: outage accounting underflow");
  if (--state_.active_outages == 0) datacenter_.set_allocation_suspended(false);
  if (telemetry_ != nullptr) {
    telemetry_->allocation_outage(sim_.now(), /*begin=*/false);
  }
  CLOUDPROV_LOG(Info) << "IaaS allocation outage ends at t=" << sim_.now();
}

void FaultInjector::fire_script(const ScriptedFault& fault) {
  switch (fault.kind) {
    case ScriptedFault::Kind::kHostCrash:
      if (fault.target < datacenter_.host_count() &&
          !datacenter_.hosts()[fault.target].failed()) {
        datacenter_.fail_host(fault.target);
        ++state_.host_crashes;
      }
      break;
    case ScriptedFault::Kind::kVmCrash: {
      const std::size_t live = provisioner_.live_instances();
      if (live > 0) {
        provisioner_.inject_instance_failure(fault.target % live);
        ++state_.vm_crashes;
      }
      break;
    }
  }
}

void FaultInjector::schedule_timed(TimedRecord record, SimTime at,
                                   std::optional<EventStamp> stamp) {
  // Captures more than the kernel's 16-byte inline budget: boxed escape
  // hatch, once per rare fault edge — never on the serve path.
  auto fire = [this, kind = record.kind, script = record.script,
               vm_id = record.vm_id, speed = record.original_speed] {
    switch (kind) {
      case TimedKind::kOutageBegin:
        fire_outage_begin();
        break;
      case TimedKind::kOutageEnd:
        fire_outage_end();
        break;
      case TimedKind::kScript:
        fire_script(script);
        break;
      case TimedKind::kDegradeRestore:
        fire_degrade_restore(vm_id, speed);
        break;
    }
  };
  record.event = stamp ? sim_.schedule_stamped(*stamp, std::move(fire))
                       : sim_.schedule_at(at, std::move(fire));
  timed_events_.push_back(std::move(record));
}

void FaultInjector::schedule_outages() {
  // Edges already in the past (e.g. after a stop()/start() cycle) are
  // skipped pairwise so the suspension refcount stays balanced.
  for (const OutageWindow& window : plan_.outages) {
    if (window.end <= sim_.now()) continue;
    if (window.begin <= sim_.now()) {
      // Re-entering mid-window: raise the suspension immediately.
      ++state_.active_outages;
      datacenter_.set_allocation_suspended(true);
    } else {
      TimedRecord begin;
      begin.kind = TimedKind::kOutageBegin;
      schedule_timed(std::move(begin), window.begin, std::nullopt);
    }
    TimedRecord end;
    end.kind = TimedKind::kOutageEnd;
    schedule_timed(std::move(end), window.end, std::nullopt);
  }
}

void FaultInjector::schedule_script() {
  for (const ScriptedFault& fault : plan_.scripted) {
    if (fault.time <= sim_.now()) continue;  // already fired before a restart
    TimedRecord record;
    record.kind = TimedKind::kScript;
    record.script = fault;
    schedule_timed(std::move(record), fault.time, std::nullopt);
  }
}

FaultInjector::Snapshot FaultInjector::checkpoint() const {
  Snapshot snap;
  static_cast<State&>(snap) = state_;
  snap.vm_rng = vm_rng_.state();
  snap.host_rng = host_rng_.state();
  snap.boot_rng = boot_rng_.state();
  snap.degrade_rng = degrade_rng_.state();
  snap.pending_vm = sim_.stamp(pending_vm_);
  snap.pending_host = sim_.stamp(pending_host_);
  snap.pending_degrade = sim_.stamp(pending_degrade_);
  for (const TimedRecord& record : timed_events_) {
    if (auto stamp = sim_.stamp(record.event)) {
      snap.timed.push_back(Snapshot::Timed{record.kind, *stamp, record.script,
                                           record.vm_id,
                                           record.original_speed});
    }
  }
  return snap;
}

void FaultInjector::restore(const Snapshot& snap) {
  ensure(!state_.running && timed_events_.empty(),
         "FaultInjector::restore: injector already started");
  vm_rng_.set_state(snap.vm_rng);
  host_rng_.set_state(snap.host_rng);
  boot_rng_.set_state(snap.boot_rng);
  degrade_rng_.set_state(snap.degrade_rng);
  state_ = snap;
  if (!state_.running) return;
  if (snap.pending_vm) {
    pending_vm_ = sim_.schedule_stamped(
        *snap.pending_vm, EventAction::method<&FaultInjector::fire_vm_crash>(this));
  }
  if (snap.pending_host) {
    pending_host_ = sim_.schedule_stamped(
        *snap.pending_host,
        EventAction::method<&FaultInjector::fire_host_crash>(this));
  }
  if (snap.pending_degrade) {
    pending_degrade_ = sim_.schedule_stamped(
        *snap.pending_degrade,
        EventAction::method<&FaultInjector::fire_degradation>(this));
  }
  for (const Snapshot::Timed& timed : snap.timed) {
    TimedRecord record;
    record.kind = timed.kind;
    record.script = timed.script;
    record.vm_id = timed.vm_id;
    record.original_speed = timed.original_speed;
    schedule_timed(std::move(record), 0.0, timed.stamp);
  }
  if (plan_.boot_fail_prob > 0.0 || plan_.straggler_prob > 0.0) {
    install_boot_sampler();
  }
  // Note: the datacenter's allocation-suspended flag is restored by the
  // Datacenter snapshot; only the refcount lives here.
}

}  // namespace cloudprov
