#include "fault/fault_plan.h"

#include <algorithm>
#include <cstdlib>

#include "util/check.h"

namespace cloudprov {

bool FaultPlan::enabled() const {
  return vm_mtbf > 0.0 || host_mtbf > 0.0 || boot_fail_prob > 0.0 ||
         straggler_prob > 0.0 || degraded_mtbf > 0.0 || !outages.empty() ||
         !scripted.empty();
}

void FaultPlan::validate() const {
  ensure_arg(vm_mtbf >= 0.0, "FaultPlan: vm_mtbf must be >= 0");
  ensure_arg(host_mtbf >= 0.0, "FaultPlan: host_mtbf must be >= 0");
  ensure_arg(boot_fail_prob >= 0.0 && boot_fail_prob <= 1.0,
             "FaultPlan: boot_fail_prob must be in [0, 1]");
  ensure_arg(straggler_prob >= 0.0 && straggler_prob <= 1.0,
             "FaultPlan: straggler_prob must be in [0, 1]");
  ensure_arg(degraded_mtbf >= 0.0, "FaultPlan: degraded_mtbf must be >= 0");
  ensure_arg(degraded_factor > 0.0 && degraded_factor <= 1.0,
             "FaultPlan: degraded_factor must be in (0, 1]");
  ensure_arg(degraded_duration > 0.0,
             "FaultPlan: degraded_duration must be > 0");
  for (const OutageWindow& w : outages) {
    ensure_arg(w.begin >= 0.0 && w.end > w.begin,
               "FaultPlan: outage window must satisfy 0 <= begin < end");
  }
  for (const ScriptedFault& f : scripted) {
    ensure_arg(f.time >= 0.0, "FaultPlan: scripted fault time must be >= 0");
  }
}

std::vector<OutageWindow> parse_outage_windows(const std::string& spec) {
  std::vector<OutageWindow> windows;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    const std::size_t colon = item.find(':');
    ensure_arg(colon != std::string::npos && colon > 0 &&
                   colon + 1 < item.size(),
               "parse_outage_windows: expected \"t0:t1[,t0:t1...]\"");
    char* end0 = nullptr;
    char* end1 = nullptr;
    OutageWindow w;
    w.begin = std::strtod(item.c_str(), &end0);
    w.end = std::strtod(item.c_str() + colon + 1, &end1);
    ensure_arg(end0 == item.c_str() + colon && *end1 == '\0',
               "parse_outage_windows: malformed number");
    ensure_arg(w.begin >= 0.0 && w.end > w.begin,
               "parse_outage_windows: need 0 <= t0 < t1");
    windows.push_back(w);
    pos = comma + 1;
  }
  return windows;
}

}  // namespace cloudprov
