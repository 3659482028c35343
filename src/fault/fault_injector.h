// Seeded fault-plan executor.
//
// Drives every fault source of a FaultPlan against a live Datacenter +
// ApplicationProvisioner pair: stochastic VM crashes, correlated host
// crashes (fault domains), boot failures and straggler boots (via the data
// center's boot-fault sampler hook), temporary performance degradation
// (noisy neighbours), IaaS allocation-outage windows, and a deterministic
// script of timed faults.
//
// Determinism: the injector owns four RNG sub-streams (VM crash, host
// crash, boot sampling, degradation) derived from one 64-bit seed via
// splitmix64, so fault arrivals are reproducible and independent of the
// workload/placement streams — changing a fault rate never perturbs the
// arrival process, and replications get independent fault streams through
// replication_seeds().
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/application_provisioner.h"
#include "fault/fault_plan.h"
#include "util/rng.h"

namespace cloudprov {

class FaultInjector {
 public:
  /// `seed` feeds all fault sub-streams; the plan is validated here.
  FaultInjector(Simulation& sim, Datacenter& datacenter,
                ApplicationProvisioner& provisioner, FaultPlan plan,
                std::uint64_t seed);
  ~FaultInjector() { stop(); }
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Attaches the replication's telemetry collector (null disables).
  void set_telemetry(Telemetry* telemetry) { telemetry_ = telemetry; }

  /// Arms every configured fault source (idempotent). Scripted faults and
  /// outage edges are scheduled at absolute times, so start() should run
  /// before the simulation does.
  void start();
  /// Cancels all pending fault events, uninstalls the boot sampler, and
  /// lifts any active allocation suspension. Safe to call at any time,
  /// including while stochastic events are pending.
  void stop();
  bool running() const { return state_.running; }

  const FaultPlan& plan() const { return plan_; }

  // --- injection statistics ---------------------------------------------
  std::uint64_t vm_crashes() const { return state_.vm_crashes; }
  std::uint64_t host_crashes() const { return state_.host_crashes; }
  /// Boots the sampler planned to fail (the provisioner counts the
  /// failures that actually fired).
  std::uint64_t boot_failures_planned() const { return state_.boot_failures; }
  std::uint64_t stragglers() const { return state_.stragglers; }
  std::uint64_t degradations() const { return state_.degradations; }
  bool outage_active() const { return state_.active_outages > 0; }

  // --- checkpoint support (src/lookahead) ---------------------------------
  /// Kinds of absolute-time fault events; each pending one is carried across
  /// a restore as a typed record plus its original event stamp.
  enum class TimedKind {
    kOutageBegin,
    kOutageEnd,
    kScript,
    kDegradeRestore,
  };
  /// Run flag, outage refcount and counters: the state checkpoint() and
  /// restore() copy whole.
  struct State {
    bool running = false;
    std::size_t active_outages = 0;
    std::uint64_t vm_crashes = 0;
    std::uint64_t host_crashes = 0;
    std::uint64_t boot_failures = 0;
    std::uint64_t stragglers = 0;
    std::uint64_t degradations = 0;
  };
  struct Snapshot : State {
    Rng::State vm_rng;
    Rng::State host_rng;
    Rng::State boot_rng;
    Rng::State degrade_rng;
    std::optional<EventStamp> pending_vm;
    std::optional<EventStamp> pending_host;
    std::optional<EventStamp> pending_degrade;
    struct Timed {
      TimedKind kind = TimedKind::kScript;
      EventStamp stamp;
      ScriptedFault script{};       ///< kScript payload
      std::uint64_t vm_id = 0;      ///< kDegradeRestore victim
      double original_speed = 0.0;  ///< kDegradeRestore payload
    };
    std::vector<Timed> timed;
  };
  Snapshot checkpoint() const;
  /// Re-arms all pending fault events under their original stamps and
  /// restores the RNG sub-streams. Use instead of start() on a fresh
  /// injector built with the same plan/seed; the allocation-suspension flag
  /// itself travels with the Datacenter snapshot.
  void restore(const Snapshot& snap);

 private:
  /// One pending absolute-time fault event; fired records keep their slot
  /// (the dead EventId makes them invisible to checkpoint/stop).
  struct TimedRecord {
    TimedKind kind = TimedKind::kScript;
    EventId event = kInvalidEventId;
    ScriptedFault script{};
    std::uint64_t vm_id = 0;
    double original_speed = 0.0;
  };

  void schedule_vm_crash();
  void fire_vm_crash();
  void schedule_host_crash();
  void fire_host_crash();
  void schedule_degradation();
  void fire_degradation();
  void install_boot_sampler();
  void schedule_outages();
  void schedule_script();
  /// Schedules the record's action; `stamp` re-pushes under an original
  /// stamp (restore), nullopt schedules at `at`.
  void schedule_timed(TimedRecord record, SimTime at,
                      std::optional<EventStamp> stamp);
  void fire_outage_begin();
  void fire_outage_end();
  void fire_script(const ScriptedFault& fault);
  void fire_degrade_restore(std::uint64_t vm_id, double original_speed);
  std::size_t occupied_hosts() const;

  Simulation& sim_;
  Datacenter& datacenter_;
  ApplicationProvisioner& provisioner_;
  FaultPlan plan_;
  Telemetry* telemetry_ = nullptr;

  Rng vm_rng_;
  Rng host_rng_;
  Rng boot_rng_;
  Rng degrade_rng_;

  State state_;
  EventId pending_vm_ = kInvalidEventId;
  EventId pending_host_ = kInvalidEventId;
  EventId pending_degrade_ = kInvalidEventId;
  /// Absolute-time events (script, outage edges, degradation restores) —
  /// cancelled wholesale by stop(), carried typed across checkpoints.
  std::vector<TimedRecord> timed_events_;
};

}  // namespace cloudprov
