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

#include "util/units.h"

namespace cloudprov {

struct ApptierConfig {
  bool enabled = false;

  // --- cache pool (its own datacenter + provisioner) ----------------------
  /// Directory entries one cache VM holds; total capacity scales with the
  /// active cache pool, so scale-downs and crashes shed the LRU tail.
  std::size_t cache_capacity_per_vm = 4096;

  /// Time-to-live of a cache fill (lazy expiry at lookup).
  SimTime ttl = 300.0;

  /// Initial / static cache pool size (static policy keeps it fixed; the
  /// tiered provisioner re-plans it every analysis window).
  std::size_t cache_vms = 4;

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
