// WorldState: a value snapshot of the full simulation world.
//
// Co-simulation lookahead (AdaptivePolicy's what-if search,
// core/adaptive_policy.h) and disk checkpointing both need the same primitive:
// freeze every piece of mutable simulation state — datacenter occupancy and
// the complete VM history, provisioner pool + statistics, broker position,
// workload-source cursors, policy/predictor fit, spot market (price path,
// ledger, pending revocations), fault injector and reconciler, and every RNG
// stream — such that a fresh world restored from the snapshot continues
// bit-identically to the uninterrupted original.
//
// Event-queue capture works by stamps: scheduled events hold opaque `this`
// pointers, so instead of copying the queue each component records the
// (time, seq) stamps of its pending events and re-pushes equivalent actions
// bound to the restored objects (Simulation::schedule_stamped). Pop order
// depends only on (time, seq), so the interleaving is preserved exactly.
//
// Construction and wiring (configs, callbacks, placement policy, telemetry
// pointers) are deliberately NOT part of the state: a snapshot is only
// restorable into a world built from the same (ScenarioConfig, PolicySpec,
// seed) triple — experiment/world.h owns that contract.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "apptier/cache_tier.h"
#include "cloud/broker.h"
#include "cloud/datacenter.h"
#include "core/adaptive_policy.h"
#include "core/application_provisioner.h"
#include "fault/fault_injector.h"
#include "fault/reconciler.h"
#include "market/market_broker.h"
#include "resilience/retry_gateway.h"
#include "resilience/shedding_admission.h"
#include "telemetry/telemetry.h"
#include "util/rng.h"
#include "util/units.h"

namespace cloudprov {

/// Per-replication random streams in their documented derivation order.
/// Streams are drawn unconditionally, in this order, from one splitmix64
/// seeder — so adding a later stream (or enabling the subsystem that uses
/// it) can never perturb the draws of an earlier one for existing seeds.
/// The lookahead stream feeds the what-if clones' synthetic arrival
/// processes; the resilience stream (retry-backoff jitter) was added after
/// it and is drawn last.
struct SeedStreams {
  std::uint64_t workload = 0;
  std::uint64_t placement = 0;
  std::uint64_t fault = 0;
  std::uint64_t market = 0;
  std::uint64_t lookahead = 0;
  std::uint64_t resilience = 0;
  /// Cache-tier service demands (src/apptier); drawn last so existing seeds
  /// keep their historical streams.
  std::uint64_t apptier = 0;
};

inline SeedStreams derive_streams(std::uint64_t seed) {
  SplitMix64 seeder(seed);
  SeedStreams streams;
  streams.workload = seeder.next();
  streams.placement = seeder.next();
  streams.fault = seeder.next();
  streams.market = seeder.next();
  streams.lookahead = seeder.next();
  streams.resilience = seeder.next();
  streams.apptier = seeder.next();
  return streams;
}

struct WorldState {
  // Engine position: clock, executed-event counter (paces the telemetry
  // engine-sample stride), and the queue's push counter (continues the
  // FIFO-among-equal-times sequence numbers).
  SimTime now = 0.0;
  std::uint64_t executed_events = 0;
  std::uint64_t push_counter = 0;

  Datacenter::Snapshot datacenter;
  ApplicationProvisioner::Snapshot provisioner;
  Broker::Snapshot broker;
  /// Workload-source position (RequestSource::save_state encoding).
  std::vector<double> source;

  /// Adaptive/lookahead policy core (analyzer + predictor fit + decision
  /// log); absent for static-policy worlds.
  bool policy_present = false;
  AdaptivePolicy::State policy;
  /// Lookahead forecast-stream position; present only when the policy has a
  /// lookahead search attached.
  std::optional<Rng::State> lookahead_rng;

  std::optional<MarketBroker::Snapshot> market;
  std::optional<FaultInjector::Snapshot> faults;
  std::optional<Reconciler::Snapshot> reconciler;

  /// Request-path resilience layer (client gateway + server shedding);
  /// present only when the layer is enabled, so what-if clones and
  /// checkpoints carry retry/breaker/shed state through a storm.
  struct ResilienceState {
    RetryGateway::Snapshot gateway;
    SheddingAdmission::Snapshot shedding;
  };
  std::optional<ResilienceState> resilience;

  /// Multi-tier application state (cache datacenter + pool, directory, the
  /// tier's counters/series, and the cache-side decision log); present only
  /// in tiered worlds. The backend half of the tiered provisioner reuses
  /// `policy` above.
  std::optional<ApptierState> apptier;

  /// Deep copy of the replication's collector, so a restored run keeps
  /// recording into identical instruments and its final exports stay
  /// byte-identical. In-memory only: disk checkpoints exclude telemetry
  /// (checkpoint.h), and what-if clones run without it.
  std::unique_ptr<Telemetry> telemetry;
};

}  // namespace cloudprov
