#include "experiment/energy.h"

#include "util/check.h"

namespace cloudprov {

double energy_kwh(const Datacenter& datacenter, const PowerModel& model) {
  ensure_arg(model.idle_watts >= 0.0, "energy_kwh: negative idle power");
  ensure_arg(model.peak_watts >= model.idle_watts,
             "energy_kwh: peak power must be >= idle power");
  ensure(!datacenter.hosts().empty(), "energy_kwh: data center has no hosts");
  const double cores =
      static_cast<double>(datacenter.hosts().front().spec().cores);
  // Idle floor: every powered-on host draws idle_watts.
  const double idle_watt_hours =
      model.idle_watts * datacenter.host_powered_hours();
  // Dynamic power: (peak - idle) is reached with all cores busy, so one busy
  // core-hour draws (peak - idle) / cores watt-hours. busy_vm_hours counts
  // busy core-hours directly for the paper's single-core VMs.
  const double dynamic_watt_hours =
      (model.peak_watts - model.idle_watts) / cores *
      datacenter.busy_vm_hours();
  return (idle_watt_hours + dynamic_watt_hours) / 1000.0;
}

}  // namespace cloudprov
