// Declarative fault plan: which failure modes a scenario injects, at what
// rates, plus a deterministic script of timed faults.
//
// The paper motivates adaptive provisioning with the "uncertain behavior" of
// virtualized resources (Section I) but evaluates only a fault-free IaaS.
// The plan below makes that uncertainty a first-class, reproducible input:
// stochastic fault streams (VM crashes, correlated host crashes, boot
// failures, straggler boots, performance degradation) mix with scripted
// faults (crash host 3 at t=1800 s) and IaaS allocation-outage windows.
// FaultInjector (fault/fault_injector.h) executes a plan against a live
// Datacenter + ApplicationProvisioner pair.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/units.h"

namespace cloudprov {

/// Half-open window [begin, end) during which the IaaS allocation API is
/// down: Datacenter::create_vm returns nullptr regardless of capacity.
struct OutageWindow {
  SimTime begin = 0.0;
  SimTime end = 0.0;
};

/// A deterministic, timed fault — the reproducible complement of the
/// stochastic streams (e.g. "crash host 3 at t = 1800 s" to model a
/// correlated fault-domain loss regardless of the RNG seed).
struct ScriptedFault {
  enum class Kind : std::uint8_t {
    kHostCrash,  ///< target = host index
    kVmCrash,    ///< target = live-instance index at fire time (mod pool)
  };
  Kind kind = Kind::kHostCrash;
  SimTime time = 0.0;
  std::size_t target = 0;
};

struct FaultPlan {
  // --- stochastic streams (0 disables each) ------------------------------
  /// Mean time between crash-failures of one VM instance, seconds
  /// (exponential per-instance lifetime; pool rate = live / MTBF).
  double vm_mtbf = 0.0;
  /// Mean time between crash-failures of one occupied host, seconds.
  /// A host crash kills every VM placed on it (fault-domain failure).
  double host_mtbf = 0.0;
  /// Probability that a freshly created VM never finishes booting
  /// (BOOTING -> DESTROYED after its boot delay).
  double boot_fail_prob = 0.0;
  /// Probability that a boot is a straggler: the boot delay is stretched by
  /// a heavy-tailed Pareto extra delay (scale 30 s, shape 1.5).
  double straggler_prob = 0.0;
  /// Mean time between degradation episodes of one instance, seconds.
  /// A degraded instance runs at degraded_factor speed for
  /// degraded_duration seconds, then recovers (noisy-neighbour model).
  double degraded_mtbf = 0.0;
  double degraded_factor = 0.5;
  SimTime degraded_duration = 300.0;

  // --- deterministic script ----------------------------------------------
  std::vector<OutageWindow> outages;
  std::vector<ScriptedFault> scripted;

  /// True when any fault source is configured; a disabled plan makes
  /// FaultInjector a no-op so fault-free runs stay byte-identical.
  bool enabled() const;
  /// Throws on nonsensical values (negative rates, probabilities outside
  /// [0,1], inverted windows, unsorted script).
  void validate() const;
};

/// Parses "t0:t1[,t0:t1...]" (seconds) into outage windows — the format of
/// the run_scenario --outage flag. Throws on malformed input.
std::vector<OutageWindow> parse_outage_windows(const std::string& spec);

}  // namespace cloudprov
