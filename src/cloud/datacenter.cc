#include "cloud/datacenter.h"

#include <algorithm>

#include "telemetry/telemetry.h"
#include "util/check.h"
#include "util/log.h"

namespace cloudprov {

Datacenter::Datacenter(Simulation& sim, DatacenterConfig config,
                       std::unique_ptr<PlacementPolicy> placement)
    : Entity(sim, "datacenter"),
      config_(config),
      placement_(std::move(placement)) {
  ensure_arg(config_.host_count >= 1, "Datacenter: need at least one host");
  ensure_arg(placement_ != nullptr, "Datacenter: null placement policy");
  hosts_.reserve(config_.host_count);
  for (std::size_t i = 0; i < config_.host_count; ++i) {
    hosts_.emplace_back(i, config_.host_spec);
  }
}

Vm* Datacenter::create_vm(const VmSpec& spec) {
  return create_vm_impl(spec, config_.vm_boot_delay);
}

Vm* Datacenter::create_vm(const VmSpec& spec, SimTime boot_delay) {
  ensure_arg(boot_delay >= 0.0, "create_vm: negative boot delay");
  return create_vm_impl(spec, boot_delay);
}

Vm* Datacenter::create_vm_impl(const VmSpec& spec, SimTime base_boot_delay) {
  if (allocation_suspended_) {
    CLOUDPROV_LOG(Debug) << "VM allocation suspended (IaaS outage) at t="
                         << now();
    if (telemetry_ != nullptr) telemetry_->allocation_denied(now());
    return nullptr;
  }
  Host* host = placement_->select(hosts_, spec);
  if (host == nullptr) {
    CLOUDPROV_LOG(Warn) << "datacenter out of capacity for new VM at t=" << now();
    return nullptr;
  }
  host->allocate(spec, now());
  BootOutcome boot{base_boot_delay, false};
  if (boot_sampler_) boot = boot_sampler_(now(), base_boot_delay);
  vms_.push_back(std::make_unique<Vm>(sim(), next_vm_id_++, spec,
                                      boot.boot_delay, boot.fail_boot));
  vm_host_.push_back(host);
  ++live_vms_;
  Vm* vm = vms_.back().get();
  if (telemetry_ != nullptr) {
    vm->set_telemetry(telemetry_);
    telemetry_->vm_created(now(), vm->id());
  }
  return vm;
}

void Datacenter::destroy_vm(Vm& vm) {
  ensure(vm.id() >= 1 && vm.id() <= vms_.size(), "destroy_vm: unknown VM");
  const std::size_t index = vm.id() - 1;
  ensure(vms_[index].get() == &vm, "destroy_vm: id/slot mismatch");
  ensure(vm.state() != VmState::kDestroyed, "destroy_vm: VM already destroyed");
  vm.destroy();
  ensure(vm_host_[index] != nullptr, "destroy_vm: resources already released");
  vm_host_[index]->release(vm.spec(), now());
  vm_host_[index] = nullptr;
  ensure(live_vms_ > 0, "destroy_vm: live VM accounting underflow");
  --live_vms_;
  if (telemetry_ != nullptr) {
    telemetry_->vm_destroyed(now(), vm.id(), vm.lifetime_seconds(now()));
  }
}

void Datacenter::release_failed_vm(Vm& vm) {
  ensure(vm.id() >= 1 && vm.id() <= vms_.size(), "release_failed_vm: unknown VM");
  const std::size_t index = vm.id() - 1;
  ensure(vms_[index].get() == &vm, "release_failed_vm: id/slot mismatch");
  ensure(vm.state() == VmState::kDestroyed,
         "release_failed_vm: VM must have failed already");
  if (vm_host_[index] == nullptr) return;  // already released
  vm_host_[index]->release(vm.spec(), now());
  vm_host_[index] = nullptr;
  ensure(live_vms_ > 0, "release_failed_vm: live VM accounting underflow");
  --live_vms_;
}

std::size_t Datacenter::fail_vm(Vm& vm, FaultCause cause) {
  ensure(vm.id() >= 1 && vm.id() <= vms_.size(), "fail_vm: unknown VM");
  ensure(vms_[vm.id() - 1].get() == &vm, "fail_vm: id/slot mismatch");
  ensure(vm.state() != VmState::kDestroyed, "fail_vm: VM already destroyed");
  // fail() fires the owner's failure callback, which typically calls
  // release_failed_vm itself; the explicit call below is then a no-op and
  // only covers VMs without a registered owner.
  const std::vector<Request> lost = vm.fail(cause);
  release_failed_vm(vm);
  return lost.size();
}

std::size_t Datacenter::fail_host(std::size_t host_index) {
  ensure_arg(host_index < hosts_.size(), "fail_host: host index out of range");
  Host& host = hosts_[host_index];
  if (host.failed()) return 0;
  host.fail(now());
  ++failed_hosts_;
  // Collect victims first: failure callbacks mutate owner dispatch lists,
  // but vms_/vm_host_ themselves only change via the release path.
  std::vector<Vm*> victims;
  for (std::size_t i = 0; i < vms_.size(); ++i) {
    if (vm_host_[i] == &host && vms_[i]->state() != VmState::kDestroyed) {
      victims.push_back(vms_[i].get());
    }
  }
  for (Vm* vm : victims) (void)fail_vm(*vm, FaultCause::kHostCrash);
  if (telemetry_ != nullptr) {
    telemetry_->host_failed(now(), host.id(), victims.size());
  }
  CLOUDPROV_LOG(Info) << "host " << host.id() << " crash-failed at t=" << now()
                      << ", killed " << victims.size() << " VM(s)";
  return victims.size();
}

void Datacenter::set_allocation_suspended(bool suspended) {
  allocation_suspended_ = suspended;
}

std::size_t Datacenter::remaining_capacity(const VmSpec& spec) const {
  std::size_t total = 0;
  for (const Host& host : hosts_) {
    if (host.failed()) continue;
    const auto by_cores = host.free_cores() / spec.cores;
    const auto by_ram = spec.ram_gb > 0.0
                            ? static_cast<std::size_t>(host.free_ram_gb() /
                                                       spec.ram_gb)
                            : static_cast<std::size_t>(by_cores);
    total += std::min<std::size_t>(by_cores, by_ram);
  }
  return total;
}

double Datacenter::vm_hours() const {
  double seconds = 0.0;
  for (const auto& vm : vms_) seconds += vm->lifetime_seconds(now());
  return seconds / duration::kHour;
}

double Datacenter::busy_vm_hours() const {
  double seconds = 0.0;
  for (const auto& vm : vms_) seconds += vm->busy_seconds();
  return seconds / duration::kHour;
}

std::vector<SimTime> Datacenter::vm_lifetimes() const {
  std::vector<SimTime> lifetimes;
  lifetimes.reserve(vms_.size());
  for (const auto& vm : vms_) lifetimes.push_back(vm->lifetime_seconds(now()));
  return lifetimes;
}

double Datacenter::host_powered_hours() const {
  double seconds = 0.0;
  for (const Host& host : hosts_) seconds += host.powered_seconds(now());
  return seconds / duration::kHour;
}

Datacenter::Snapshot Datacenter::snapshot() const {
  Snapshot s;
  s.hosts.reserve(hosts_.size());
  for (const Host& host : hosts_) s.hosts.push_back(host.snapshot());
  s.vms.reserve(vms_.size());
  for (const auto& vm : vms_) s.vms.push_back(vm->snapshot());
  s.vm_host.reserve(vm_host_.size());
  for (const Host* host : vm_host_) {
    s.vm_host.push_back(host == nullptr
                            ? Snapshot::kNoHost
                            : static_cast<std::uint32_t>(host->id()));
  }
  s.live_vms = live_vms_;
  s.failed_hosts = failed_hosts_;
  s.next_vm_id = next_vm_id_;
  s.allocation_suspended = allocation_suspended_;
  return s;
}

void Datacenter::restore(const Snapshot& s) {
  ensure(hosts_.size() == s.hosts.size(),
         "Datacenter::restore: host count mismatch");
  ensure(s.vms.size() == s.vm_host.size(),
         "Datacenter::restore: vm/vm_host size mismatch");
  ensure(vms_.empty(), "Datacenter::restore: data center already populated");
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    hosts_[i].restore(s.hosts[i]);
  }
  vms_.reserve(s.vms.size());
  vm_host_.reserve(s.vm_host.size());
  for (std::size_t i = 0; i < s.vms.size(); ++i) {
    vms_.push_back(std::make_unique<Vm>(sim(), s.vms[i]));
    if (telemetry_ != nullptr) vms_.back()->set_telemetry(telemetry_);
    Host* host = nullptr;
    if (s.vm_host[i] != Snapshot::kNoHost) {
      ensure(s.vm_host[i] < hosts_.size(),
             "Datacenter::restore: host index out of range");
      host = &hosts_[s.vm_host[i]];
    }
    vm_host_.push_back(host);
  }
  live_vms_ = s.live_vms;
  failed_hosts_ = s.failed_hosts;
  next_vm_id_ = s.next_vm_id;
  allocation_suspended_ = s.allocation_suspended;
}

double Datacenter::utilization() const {
  const double hours = vm_hours();
  return hours > 0.0 ? busy_vm_hours() / hours : 0.0;
}

}  // namespace cloudprov
