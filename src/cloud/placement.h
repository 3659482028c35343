// VM placement policies (Resource Provisioning, Section II).
//
// The paper treats host selection as the IaaS provider's concern and uses a
// simple load-balancing rule: "new VMs are created, if possible, in the host
// with fewer running virtualized application instances" (Section V-A). That
// rule is LeastLoadedPlacement; FirstFit and Random are provided as
// alternatives for sensitivity experiments.
#pragma once

#include <span>
#include <string>

#include "cloud/host.h"
#include "util/rng.h"

namespace cloudprov {

class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;

  /// Picks a host able to fit `vm`, or nullptr when the data center is full.
  virtual Host* select(std::span<Host> hosts, const VmSpec& vm) = 0;

  virtual std::string name() const = 0;
};

/// Paper default: host with the fewest resident VMs that still fits the VM.
class LeastLoadedPlacement final : public PlacementPolicy {
 public:
  Host* select(std::span<Host> hosts, const VmSpec& vm) override;
  std::string name() const override { return "least-loaded"; }
};

/// First host (by id order) with capacity; packs hosts densely.
class FirstFitPlacement final : public PlacementPolicy {
 public:
  Host* select(std::span<Host> hosts, const VmSpec& vm) override;
  std::string name() const override { return "first-fit"; }
};

/// Uniformly random host among those with capacity.
class RandomPlacement final : public PlacementPolicy {
 public:
  explicit RandomPlacement(Rng rng) : rng_(rng) {}
  Host* select(std::span<Host> hosts, const VmSpec& vm) override;
  std::string name() const override { return "random"; }

 private:
  Rng rng_;
};

}  // namespace cloudprov
