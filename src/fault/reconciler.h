// Self-healing reconciler: periodically compares the live pool against the
// last commanded target and replaces crashed/failed instances.
//
// The paper's adaptive mechanism only resizes the pool on its provisioning
// cycle, and a static policy never resizes at all — so instance failures
// degrade both until (at best) the next cycle. The reconciler closes that
// gap Kubernetes-style: observe (active vs commanded target), diff, act
// (scale_to the target again). Heals that fall short — e.g. during an IaaS
// allocation outage — are retried with exponential backoff up to a bounded
// retry budget; after the budget is exhausted the reconciler emits one
// abort event and degrades to plain interval-cadence checking (no retry
// storm, no deadlock) until the pool heals. The ladder survives commanded-
// target changes mid-deficit: only an actually healed pool resets it, so a
// policy re-commanding targets during an outage cannot restart fast retries.
#pragma once

#include <cstdint>
#include <optional>

#include "core/application_provisioner.h"

namespace cloudprov {

struct ReconcilerConfig {
  /// Master switch (scenario configs embed this struct; default off keeps
  /// fault-free runs byte-identical).
  bool enabled = false;
  /// Seconds between reconcile checks.
  SimTime interval = 30.0;
  /// First retry delay after a heal falls short of the target.
  SimTime backoff_base = 5.0;
  /// Multiplier applied per consecutive failed heal.
  double backoff_factor = 2.0;
  /// Retry delays are capped here (full backoff, no jitter: determinism
  /// matters more than herd avoidance inside one simulated application).
  SimTime backoff_max = 300.0;
  /// Failed heals tolerated before the abort event; afterwards the
  /// reconciler keeps checking at `interval` cadence without escalation.
  std::uint64_t max_retries = 8;
};

class Reconciler {
 public:
  Reconciler(Simulation& sim, ApplicationProvisioner& provisioner,
             ReconcilerConfig config);
  ~Reconciler() { stop(); }
  Reconciler(const Reconciler&) = delete;
  Reconciler& operator=(const Reconciler&) = delete;

  /// Attaches the replication's telemetry collector (null disables).
  void set_telemetry(Telemetry* telemetry) { telemetry_ = telemetry; }

  /// Schedules the first check one interval from now (idempotent).
  void start();
  /// Cancels the pending check/retry (safe while one is in flight).
  void stop();
  bool running() const { return state_.running; }

  const ReconcilerConfig& config() const { return config_; }

  // --- reconciliation statistics ----------------------------------------
  /// Passes that found a deficit and commanded a heal (scale_to).
  std::uint64_t heals() const { return state_.heals; }
  /// Backoff retries scheduled after a heal fell short.
  std::uint64_t retries() const { return state_.retries; }
  /// Retry budgets exhausted (one per deficit episode at most).
  std::uint64_t aborts() const { return state_.aborts; }
  /// True while the reconciler has given up on backoff escalation for the
  /// current deficit episode.
  bool in_aborted_state() const { return state_.aborted; }

  // --- checkpoint support (src/lookahead) ---------------------------------
  /// Run flag, backoff ladder and counters: the state checkpoint() and
  /// restore() copy whole.
  struct State {
    bool running = false;
    std::size_t last_target = 0;
    std::uint64_t attempt = 0;
    SimTime next_backoff = 0.0;
    bool aborted = false;
    std::uint64_t heals = 0;
    std::uint64_t retries = 0;
    std::uint64_t aborts = 0;
  };
  struct Snapshot : State {
    std::optional<EventStamp> pending;
  };
  Snapshot checkpoint() const;
  /// Re-arms the pending check under its original stamp. Use instead of
  /// start() on a fresh reconciler with the same configuration.
  void restore(const Snapshot& snap);

 private:
  void tick();
  void schedule(SimTime delay);

  Simulation& sim_;
  ApplicationProvisioner& provisioner_;
  ReconcilerConfig config_;
  Telemetry* telemetry_ = nullptr;

  State state_;
  EventId pending_ = kInvalidEventId;
};

}  // namespace cloudprov
