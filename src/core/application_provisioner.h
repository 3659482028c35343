// Application provisioner (Section IV-C).
//
// The main point of contact of the SaaS/PaaS system: it receives requests
// accepted by admission control, forwards them to virtualized application
// instances round-robin, and grows/shrinks the instance pool on command from
// the load predictor and performance modeler.
//
// Scale-down follows the paper's graceful protocol: idle instances are
// destroyed first; if more must go, the ones with the fewest requests in
// progress are selected; selected instances stop receiving work (DRAINING)
// and are destroyed only when their running requests finish. Scale-up first
// resurrects DRAINING instances ("removes them from the list of instances to
// be destroyed until the number of required instances is reached") and only
// then asks the data center's resource provisioner for fresh VMs.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cloud/broker.h"
#include "cloud/datacenter.h"
#include "core/admission.h"
#include "core/qos.h"
#include "stats/quantile.h"
#include "stats/running_stats.h"
#include "stats/timeseries.h"

namespace cloudprov {

struct ProvisionerConfig {
  /// Shape of every application VM (paper: 1 core, 2 GB).
  VmSpec vm_spec;
  /// Estimate of the mean request execution time used before any request
  /// has completed (seeds Tm and therefore k).
  double initial_service_time_estimate = 0.1;
  /// Optional fixed queue bound; 0 means "recompute k = floor(Ts/Tm) from the
  /// monitored service time" (Equation 1).
  std::size_t fixed_queue_bound = 0;
  /// Track P² tail quantiles of response time (small constant cost).
  bool track_quantiles = true;
  /// Serve waiting requests in priority order within each instance
  /// (Section VII extension); default FIFO as in the paper.
  bool priority_queueing = false;
  /// Boot watchdog: an instance still BOOTING after this many seconds is
  /// declared failed (FaultCause::kBootTimeout) and dropped from the pool,
  /// so stragglers do not occupy commanded slots forever. 0 disables.
  SimTime boot_timeout = 0.0;
};

class ApplicationProvisioner final : public Entity, public RequestSink {
 public:
  ApplicationProvisioner(Simulation& sim, Datacenter& datacenter,
                         QosTargets qos, ProvisionerConfig config,
                         std::unique_ptr<AdmissionPolicy> admission =
                             std::make_unique<KBoundAdmission>());

  /// Attaches the replication's telemetry collector (null disables):
  /// request admission outcomes, completion spans, and pool-size counter
  /// samples. Purely observational — enabling it never changes decisions.
  void set_telemetry(Telemetry* telemetry) { telemetry_ = telemetry; }

  /// Routes this pool's size samples to the apptier cache lane instead of
  /// the (backend) instance lane — cache pools share the collector with the
  /// backend pool, and two pools must not fight over one counter lane.
  void set_cache_instance_lane(bool cache) { cache_instance_lane_ = cache; }

  /// Routes instance creation through an external supplier instead of the
  /// data center directly — the seam the IaaS market broker (src/market)
  /// plugs into so every scale-up becomes a purchase. The factory must
  /// return a VM from this provisioner's data center (or nullptr on
  /// capacity/outage denial); lifecycle callbacks and the boot watchdog are
  /// still installed here. Null restores direct creation.
  using VmFactory = std::function<Vm*(const VmSpec&)>;
  void set_vm_factory(VmFactory factory) { vm_factory_ = std::move(factory); }

  // --- RequestSink ------------------------------------------------------
  /// Admission control + round-robin dispatch of one end-user request.
  void on_request(const Request& request) override;

  /// Same as on_request but reports the admission outcome — used by callers
  /// that account for rejections themselves: the resilience gateway and the
  /// SLA-class bench (EX2).
  bool try_submit(const Request& request);

  /// Invoked after a request completes service (in addition to internal
  /// accounting). The resilience gateway, the cache tier and EX2 chain
  /// their own completion handling through it.
  using CompletionListener =
      std::function<void(const Request&, double response_time)>;
  void set_completion_listener(CompletionListener listener) {
    completion_listener_ = std::move(listener);
  }
  /// The currently installed listener (empty when none). Tier/gateway layers
  /// that interpose on completions capture this and chain to it, so stacking
  /// order (gateway first, cache tier second) composes instead of clobbering.
  const CompletionListener& completion_listener() const {
    return completion_listener_;
  }

  // --- capacity control (driven by the modeler) ---------------------------
  /// Adjusts the pool so that `target` instances accept requests.
  /// Returns the number actually accepting afterwards (the data center may
  /// run out of capacity). When a capacity cap is installed (multi-tenant
  /// arbitration), the raw desire is recorded but the commanded pool is
  /// clamped to the cap.
  std::size_t scale_to(std::size_t target);

  // --- multi-tenant capacity arbitration (src/experiment/multi_tenant) ----
  /// Installs an external capacity grant: the commanded pool may never
  /// exceed `cap` active instances. Raising the cap immediately regrows the
  /// pool toward the last desired target; lowering it drains down. The
  /// default (SIZE_MAX) leaves single-tenant behavior bit-identical.
  void set_capacity_cap(std::size_t cap);
  /// The last target requested through scale_to, before any cap clamping —
  /// what this application *wants*, which the arbiter reads at barriers.
  std::size_t desired_target() const { return desired_target_; }
  /// scale_to calls whose target exceeded the installed cap.
  std::uint64_t capacity_clips() const { return capacity_clips_; }
  /// Instances requested but denied by the cap, summed over clipped calls.
  std::uint64_t capacity_denied() const { return capacity_denied_; }

  /// Instances accepting new requests (RUNNING).
  std::size_t active_instances() const { return instances_.size(); }
  /// Instances draining towards destruction.
  std::size_t draining_instances() const { return draining_.size(); }
  /// All live instances (the paper's "application instances running in a
  /// single time").
  std::size_t live_instances() const {
    return instances_.size() + draining_.size();
  }

  // --- monitoring ---------------------------------------------------------
  /// Monitored average request execution time Tm (falls back to the
  /// configured estimate until the first completion).
  double monitored_service_time() const;
  /// Current per-instance queue bound k (Equation 1).
  std::size_t current_queue_bound() const;

  // --- output metrics (Section V-A) ----------------------------------------
  std::uint64_t total_arrivals() const {
    return state_.accepted + state_.rejected;
  }
  std::uint64_t accepted() const { return state_.accepted; }
  std::uint64_t rejected() const { return state_.rejected; }
  std::uint64_t completed() const { return state_.response_stats.count(); }
  /// Requests whose response time exceeded Ts.
  std::uint64_t qos_violations() const { return state_.qos_violations; }
  double rejection_rate() const;
  const RunningStats& response_time_stats() const {
    return state_.response_stats;
  }
  double response_p95() const { return state_.p95.value(); }
  double response_p99() const { return state_.p99.value(); }
  /// Time-weighted history of the live instance count (min/max/average),
  /// starting at the first scaling action (so a pre-provisioning count of
  /// zero does not pollute the minimum).
  const TimeWeightedValue& instance_history() const {
    return state_.instance_count;
  }

  /// Arrivals since the last call (used by the workload analyzer to compute
  /// the observed window rate).
  std::uint64_t take_window_arrivals();

  const QosTargets& qos() const { return qos_; }
  Datacenter& datacenter() { return datacenter_; }

  /// Applies `fn` to every active instance (vertical-scaling extension and
  /// white-box tests).
  void for_each_instance(const std::function<void(Vm&)>& fn);

  // --- failure injection (uncertain-behavior experiments) -----------------
  /// Crash-fails the index-th live instance (actives first, then draining).
  /// In-flight requests are lost and counted in lost_to_failures().
  /// Returns the number of requests lost. Precondition:
  /// index < live_instances().
  std::size_t inject_instance_failure(std::size_t index);

  // --- spot-market revocation (src/market) --------------------------------
  /// Serves a revocation notice on a pool instance: marks it revoked (barred
  /// from resurrection), then starts the graceful exit — a BOOTING instance
  /// is destroyed outright (it holds no requests), a RUNNING one drains so
  /// in-flight requests finish inside the notice window, and an already
  /// DRAINING one just keeps draining. The market's hard kill at notice
  /// expiry arrives through the fault path (FaultCause::kSpotRevocation).
  void revoke_instance(Vm& vm);

  /// Accepted requests that were lost to instance failures.
  std::uint64_t lost_to_failures() const { return state_.lost_to_failures; }
  /// Instance crash-failures (all causes) so far.
  std::uint64_t instance_failures() const { return state_.instance_failures; }

  // --- fault awareness & self-healing accounting ---------------------------
  /// The last pool size commanded through scale_to: the reconciler's heal
  /// target, and the reference line for availability/MTTR accounting.
  std::size_t commanded_target() const { return state_.commanded_target; }
  /// Crash-failures broken down by the fault taxonomy.
  std::uint64_t failures_by_cause(FaultCause cause) const {
    return state_.failures_by_cause[static_cast<std::size_t>(cause)];
  }
  /// Lost in-flight requests broken down by the fault taxonomy.
  std::uint64_t lost_by_cause(FaultCause cause) const {
    return state_.lost_by_cause[static_cast<std::size_t>(cause)];
  }
  /// Boot-watchdog kills (== failures_by_cause(kBootTimeout)).
  std::uint64_t boot_timeouts() const {
    return failures_by_cause(FaultCause::kBootTimeout);
  }
  /// Distribution of repair times: seconds from the active pool first
  /// dropping below the commanded target until it is restored (MTTR).
  const RunningStats& recovery_time_stats() const {
    return state_.recovery_stats;
  }
  /// Total seconds (up to now) the active pool spent below the commanded
  /// target; 1 - deficit_seconds()/elapsed is the pool availability.
  double deficit_seconds() const;

  // --- checkpoint support (src/lookahead) ---------------------------------
  /// Full mutable state: the counters and statistics (State, copied whole)
  /// plus pool membership (by VM id), dispatch cursor, and pending
  /// boot-watchdog events. Callbacks and the VM factory are wiring, not
  /// state — the restoring side re-installs them (restore() reattaches the
  /// lifecycle callbacks itself; the factory is re-bound by whoever owns the
  /// market broker).
  struct State {
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t qos_violations = 0;
    std::uint64_t lost_to_failures = 0;
    std::uint64_t instance_failures = 0;
    std::uint64_t window_arrivals = 0;
    std::size_t commanded_target = 0;
    std::array<std::uint64_t, kFaultCauseCount> failures_by_cause{};
    std::array<std::uint64_t, kFaultCauseCount> lost_by_cause{};
    RunningStats recovery_stats;
    bool in_deficit = false;
    SimTime deficit_since = 0.0;
    double deficit_seconds = 0.0;
    RunningStats response_stats;
    RunningStats service_stats;
    P2Quantile p95{0.95};
    P2Quantile p99{0.99};
    TimeWeightedValue instance_count;
    bool instance_history_started = false;
  };
  struct Snapshot : State {
    std::vector<std::uint64_t> instances;  ///< RUNNING vm ids, rr order
    std::vector<std::uint64_t> draining;   ///< DRAINING vm ids
    std::size_t rr_cursor = 0;
    struct Watchdog {
      EventStamp stamp;
      std::uint64_t vm_id = 0;
    };
    std::vector<Watchdog> watchdogs;  ///< pending boot-timeout checks
  };
  Snapshot checkpoint() const;
  /// Rebinds the pool against the (already restored) data center, reattaches
  /// lifecycle callbacks on every live pool VM, and re-arms pending boot
  /// watchdogs under their original event stamps. Must run on a freshly
  /// constructed provisioner with identical configuration.
  void restore(const Snapshot& snap);

 private:
  /// scale_to after cap clamping: the actual pool-adjustment protocol.
  std::size_t apply_target(std::size_t target);
  Vm* select_instance(const Request& request);
  Vm* create_instance();
  void install_callbacks(Vm& vm);
  void arm_boot_watchdog(Vm& vm, std::optional<EventStamp> stamp);
  void drain_instance(std::size_t index);
  void on_vm_complete(Vm& vm, const Request& request, double response_time);
  void on_vm_drained(Vm& vm);
  void on_vm_failed(Vm& vm, FaultCause cause, const std::vector<Request>& lost);
  void update_deficit();
  void record_instance_count();
  PoolView pool_view() const;

  Datacenter& datacenter_;
  QosTargets qos_;
  ProvisionerConfig config_;
  std::unique_ptr<AdmissionPolicy> admission_;
  Telemetry* telemetry_ = nullptr;
  bool cache_instance_lane_ = false;
  VmFactory vm_factory_;

  CompletionListener completion_listener_;
  std::vector<Vm*> instances_;  ///< RUNNING, in round-robin order
  std::vector<Vm*> draining_;   ///< DRAINING, pending destruction
  std::size_t rr_cursor_ = 0;

  /// Pending boot watchdogs, tracked so checkpoints can carry them across a
  /// restore. Each entry is erased when its event fires.
  struct WatchdogRecord {
    EventId event = kInvalidEventId;
    std::uint64_t vm_id = 0;
  };
  std::vector<WatchdogRecord> watchdogs_;

  /// Memo for the adaptive queue bound, keyed on the completion count (the
  /// monitored mean — and therefore k — only changes when a completion is
  /// recorded). The sentinel forces a compute on first use.
  mutable std::size_t bound_cache_ = 0;
  mutable std::uint64_t bound_cache_completions_ = UINT64_MAX;

  State state_;
  /// Last scale_to target before cap clamping; == commanded_target unless
  /// a cap clipped it. Not part of Snapshot: restore() seeds it from the
  /// snapshotted commanded target, which is lossless for uncapped worlds
  /// (the only ones that are checkpointed).
  std::size_t desired_target_ = 0;
  std::size_t capacity_cap_ = SIZE_MAX;
  std::uint64_t capacity_clips_ = 0;
  std::uint64_t capacity_denied_ = 0;
};

}  // namespace cloudprov
