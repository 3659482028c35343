#include "cloud/placement.h"

#include <vector>

namespace cloudprov {

Host* LeastLoadedPlacement::select(std::span<Host> hosts, const VmSpec& vm) {
  Host* best = nullptr;
  for (Host& host : hosts) {
    if (!host.can_fit(vm)) continue;
    if (best == nullptr || host.vm_count() < best->vm_count()) best = &host;
  }
  return best;
}

Host* FirstFitPlacement::select(std::span<Host> hosts, const VmSpec& vm) {
  for (Host& host : hosts) {
    if (host.can_fit(vm)) return &host;
  }
  return nullptr;
}

Host* RandomPlacement::select(std::span<Host> hosts, const VmSpec& vm) {
  std::vector<Host*> candidates;
  candidates.reserve(hosts.size());
  for (Host& host : hosts) {
    if (host.can_fit(vm)) candidates.push_back(&host);
  }
  if (candidates.empty()) return nullptr;
  const auto index = rng_.uniform_int(0, candidates.size() - 1);
  return candidates[index];
}

}  // namespace cloudprov
