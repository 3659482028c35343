// Multi-tier application configuration (cache tier + backend tier).
//
// Models the application as a tandem: a cache tier with a finite keyed
// directory (Zipf traffic's hot head lives here) in front of the existing
// VM-pool backend. Request flow is look-aside: cache hit -> fast reply from
// a cache VM, cache miss -> backend service -> cache fill with a TTL.
// Disabled (the default) the subsystem constructs nothing and every run is
// bit-identical to a single-tier world.
#pragma once

#include <cstddef>
#include <vector>

#include "cloud/vm.h"
#include "core/performance_modeler.h"
#include "core/qos.h"
#include "util/units.h"

namespace cloudprov {

struct ApptierConfig {
  bool enabled = false;

  // --- cache pool (its own datacenter + provisioner) ----------------------
  /// Shape of a cache VM; cache VMs are deliberately cheap (paper-shape 1
  /// core) and sized by directory capacity, not compute.
  VmSpec cache_vm_spec;
  /// Directory entries one cache VM holds; total capacity scales with the
  /// active cache pool, so scale-downs and crashes shed the LRU tail.
  std::size_t cache_capacity_per_vm = 4096;
  /// Tm seed for the cache pool before its first completion.
  double initial_cache_service_estimate = 0.011;

  /// Time-to-live of a cache fill (lazy expiry at lookup).
  SimTime ttl = 300.0;

  /// Initial / static cache pool size (static policy keeps it fixed; the
  /// tiered provisioner re-plans it every analysis window).
  std::size_t cache_vms = 4;

  /// Algorithm 1 configuration for the cache tier (the backend keeps the
  /// scenario's main modeler config).
  ModelerConfig cache_modeler;
  /// Cache tier's own response-time target (hits should be fast).
  QosTargets cache_qos{0.050, 0.0, 0.5};

  /// EWMA weight of the latest window's hit ratio in the planning estimate
  /// h that derives the backend offered load lambda_miss = lambda * (1 - h).
  double hit_ewma_alpha = 0.3;
  /// Planning hit ratio assumed for the cache pool before the first window
  /// closes (the backend conservatively assumes h = 0 until then).
  double assumed_hit_ratio = 0.5;

  // --- seeded chaos -------------------------------------------------------
  /// Crash one cache VM at each time (warmup-transient experiments: the
  /// slot remap invalidates resident entries and the pool re-heals on the
  /// next planning window).
  std::vector<SimTime> cache_crash_at;
  /// Flush the whole directory at each time (TTL storm: a warm cache goes
  /// cold instantly and the backend eats the full lambda).
  std::vector<SimTime> flush_at;
};

}  // namespace cloudprov
