// IaaS data center: hosts + VM lifecycle + aggregate accounting.
//
// Owns the physical hosts and every VM ever created, exposing the
// create/destroy API that the paper's application provisioner drives. The
// mapping of VMs to hosts is delegated to a PlacementPolicy, mirroring the
// paper's split between Application/VM Provisioning (the SaaS provider's
// job, built in src/core) and Resource Provisioning (the IaaS provider's
// job, hidden behind this interface).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cloud/host.h"
#include "cloud/placement.h"
#include "cloud/vm.h"
#include "sim/entity.h"

namespace cloudprov {

struct DatacenterConfig {
  std::size_t host_count = 1000;  // Section V-A
  HostSpec host_spec;
  /// VM boot latency; the paper's evaluation treats instantiation as
  /// immediate, so the default is 0. Non-zero values exercise provisioning
  /// lead-time sensitivity.
  SimTime vm_boot_delay = 0.0;
};

class Datacenter final : public Entity {
 public:
  Datacenter(Simulation& sim, DatacenterConfig config,
             std::unique_ptr<PlacementPolicy> placement);

  /// Attaches the replication's telemetry collector (null disables). VM
  /// create/destroy/fail events are recorded here; the pointer is also
  /// propagated to every VM created afterwards.
  void set_telemetry(Telemetry* telemetry) { telemetry_ = telemetry; }

  /// Creates and places a VM; nullptr when no host has capacity or VM
  /// allocation is suspended (IaaS outage window).
  Vm* create_vm(const VmSpec& spec);

  /// Same, but with a per-instance base boot delay instead of the configured
  /// default — the market broker's per-class delivery profile (src/market).
  /// The boot-fault sampler still applies on top of `boot_delay`.
  Vm* create_vm(const VmSpec& spec, SimTime boot_delay);

  /// Destroys an idle VM and releases its host resources.
  void destroy_vm(Vm& vm);

  /// Releases host resources of a VM that crash-failed (Vm::fail() already
  /// moved it to DESTROYED). Idempotent: calling it again for a VM whose
  /// resources were already released is a no-op, so the failure-callback
  /// chain and the crash entry points cannot double-release.
  /// Precondition: vm.state() == kDestroyed.
  void release_failed_vm(Vm& vm);

  // --- fault injection (src/fault) --------------------------------------
  /// Crash-fails a live VM in any state: Vm::fail(cause) — which fires the
  /// owner's failure callback — followed by host-resource release. Returns
  /// the number of in-flight requests lost.
  std::size_t fail_vm(Vm& vm, FaultCause cause);

  /// Crash-fails a host (fault-domain failure): every live VM resident on
  /// it is fail_vm()'d with FaultCause::kHostCrash and the host permanently
  /// stops accepting placements. Returns the number of VMs killed.
  std::size_t fail_host(std::size_t host_index);
  std::size_t failed_hosts() const { return failed_hosts_; }

  /// IaaS allocation outage: while suspended, create_vm returns nullptr
  /// regardless of capacity (the provisioning API itself is down).
  void set_allocation_suspended(bool suspended);
  bool allocation_suspended() const { return allocation_suspended_; }

  /// Boot-fault sampler hook: invoked once per create_vm with the configured
  /// base boot delay; the returned outcome may inflate the delay (straggler
  /// boot) and/or plan a boot failure. Null restores fault-free boots.
  struct BootOutcome {
    SimTime boot_delay = 0.0;
    bool fail_boot = false;
  };
  using BootFaultSampler = std::function<BootOutcome(SimTime now, SimTime base_delay)>;
  void set_boot_fault_sampler(BootFaultSampler sampler) {
    boot_sampler_ = std::move(sampler);
  }

  // --- capacity -------------------------------------------------------
  std::size_t host_count() const { return hosts_.size(); }
  std::size_t live_vm_count() const { return live_vms_; }
  /// Upper bound on additional VMs of `spec` that could be placed now.
  std::size_t remaining_capacity(const VmSpec& spec) const;

  // --- accounting (paper output metrics, Section V-A) ------------------
  /// Sum over all VMs of wall-clock lifetime (creation to destruction, or
  /// to `now` for live VMs), in hours: the paper's "VM hours" cost metric.
  double vm_hours() const;
  /// Sum over all VMs of time spent actually serving requests, in hours.
  double busy_vm_hours() const;
  /// busy_vm_hours / vm_hours: the paper's "resources utilization rate".
  double utilization() const;
  std::uint64_t total_vms_created() const { return vms_.size(); }
  /// Per-VM wall-clock lifetimes in seconds (live VMs measured to `now`);
  /// input to the pricing models in market/pricing.h.
  std::vector<SimTime> vm_lifetimes() const;
  /// Sum over hosts of powered-on time (hours); input to the energy model.
  double host_powered_hours() const;

  std::span<const Host> hosts() const { return hosts_; }

  /// Looks up a VM by id (1-based creation order); nullptr when unknown.
  /// Restore paths use this to rebind snapshot vm ids to live objects.
  Vm* find_vm(std::uint64_t vm_id) {
    if (vm_id < 1 || vm_id > vms_.size()) return nullptr;
    return vms_[vm_id - 1].get();
  }

  // --- snapshot/restore (src/lookahead) ---------------------------------
  /// Value snapshot of host occupancy and the full VM history (live VMs
  /// carry their pending event stamps). Placement-policy, boot-sampler, and
  /// telemetry hooks are wiring, not state: the restoring side re-attaches
  /// them.
  struct Snapshot {
    static constexpr std::uint32_t kNoHost = 0xffffffffu;
    std::vector<Host::Snapshot> hosts;
    std::vector<Vm::Snapshot> vms;
    /// Parallel to vms: placement host index, kNoHost once released.
    std::vector<std::uint32_t> vm_host;
    std::size_t live_vms = 0;
    std::size_t failed_hosts = 0;
    std::uint64_t next_vm_id = 1;
    bool allocation_suspended = false;
  };
  Snapshot snapshot() const;
  /// Rebuilds VM/host state from a snapshot taken on an identically
  /// configured data center (same host count/spec). Re-pushes every live
  /// VM's pending events into the simulation's queue under their stamps.
  void restore(const Snapshot& snap);

 private:
  Vm* create_vm_impl(const VmSpec& spec, SimTime base_boot_delay);

  DatacenterConfig config_;
  std::unique_ptr<PlacementPolicy> placement_;
  // Sized once in the constructor and never grown, so the Host pointers in
  // vm_host_ stay valid for the data center's lifetime.
  std::vector<Host> hosts_;
  std::vector<std::unique_ptr<Vm>> vms_;  // full history, including destroyed
  // Parallel to vms_: placement record; nulled once the slot's resources are
  // released (destroy or crash), which is what makes release idempotent.
  std::vector<Host*> vm_host_;
  std::size_t live_vms_ = 0;
  std::size_t failed_hosts_ = 0;
  std::uint64_t next_vm_id_ = 1;
  bool allocation_suspended_ = false;
  BootFaultSampler boot_sampler_;
  Telemetry* telemetry_ = nullptr;
};

}  // namespace cloudprov
