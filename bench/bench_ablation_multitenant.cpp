// Ablation AB13: sharded multi-tenant scale-out.
//
// One datacenter's worth of shared instance capacity, N independent SaaS
// tenants (mixed web serving and BoT/scientific, jittered QoS targets), one
// shared spot market. Each tenant runs on its own event kernel, and tenants
// are partitioned across worker shards; a conservative barrier at every 60 s
// analysis window runs the deterministic capacity arbiter (ascending
// tenant-id order), so results are bit-identical for EVERY shard count.
//
// Two questions, two sections:
//
//   scaling     the same population executed at shard counts 1/2/4/8 —
//               identical answers, different wall clock. Speedup tracks the
//               machine's cores (flat on a single-core host; the golden
//               tests still prove the threading correct there).
//   contention  shared capacity squeezed from ample to starved — the
//               arbiter's clip/denial counters and the tenants' QoS
//               degradation quantify multi-tenant interference that a
//               single-application evaluation (the paper's setting) never
//               sees.
//
// --smoke (CI): 64 tenants, shorter horizon, asserts bit-identity across
// the shard sweep, arbiter-counter conservation, and real contention in the
// starved row; exits non-zero on violation.
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "experiment/multi_tenant.h"
#include "experiment/report.h"
#include "util/cli.h"

using namespace cloudprov;

namespace {

/// Bit-level equality of everything that must not depend on shard count:
/// every metric of every tenant but its wall time, and the arbiter history.
bool tenants_identical(const MultiTenantResult& a, const MultiTenantResult& b,
                       std::string& why) {
  if (a.tenants.size() != b.tenants.size()) {
    why = "tenant count";
    return false;
  }
  for (std::size_t i = 0; i < a.tenants.size(); ++i) {
    const std::vector<std::string> differences = metric_differences(
        a.tenants[i].metrics, b.tenants[i].metrics, {"wall_seconds"});
    if (!differences.empty()) {
      why = "tenant " + std::to_string(i) + ": " + differences.front();
      return false;
    }
  }
  if (a.grant_clips != b.grant_clips ||
      a.instances_denied != b.instances_denied ||
      a.peak_granted != b.peak_granted ||
      a.simulated_events != b.simulated_events) {
    why = "arbiter/event totals";
    return false;
  }
  return true;
}

MultiTenantConfig population(std::size_t tenants, std::uint64_t seed,
                             SimTime horizon, double scale,
                             std::size_t capacity) {
  MultiTenantConfig config;
  config.tenants = tenants;
  config.seed = seed;
  config.horizon = horizon;
  config.window = 60.0;
  config.bot_fraction = 0.25;
  config.tenant_scale = scale;
  config.capacity = capacity;
  config.market_enabled = true;
  config.spot_fraction = 0.3;
  config.bid = 0.7;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(
      "Ablation: sharded multi-tenant scale-out (N tenants, shared capacity, "
      "barrier-synced windows).");
  args.add_flag("tenants", "64", "tenant population size", "<int>");
  args.add_flag("hours", "2", "simulated hours", "<int>");
  args.add_flag("scale", "0.01", "mean per-tenant workload scale", "<double>");
  args.add_flag("seed", "42", "master seed", "<int>");
  args.add_flag("smoke", "false",
                "CI smoke mode: short horizon, assert shard-count "
                "bit-identity and contention, exit non-zero on violation");
  if (!args.parse(argc, argv)) return 0;
  const auto tenants = static_cast<std::size_t>(args.get_int("tenants"));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const bool smoke = args.get_bool("smoke");
  const double scale = args.get_double("scale");
  const SimTime horizon =
      smoke ? 1200.0 : static_cast<double>(args.get_int("hours")) * 3600.0;

  std::cout << "=== Ablation: multi-tenant sharding (" << tenants
            << " tenants, mixed web/BoT, shared market) ===\n\n";

  // --- Section 1: shard-count sweep on an amply provisioned population ---
  const MultiTenantConfig ample =
      population(tenants, seed, horizon, scale, 4 * tenants);
  std::vector<MultiTenantResult> sweep;
  const std::vector<std::size_t> shard_counts{1, 2, 4, 8};
  for (const std::size_t shards : shard_counts) {
    MultiTenantOptions options;
    options.shards = shards;
    sweep.push_back(run_multi_tenant(ample, options));
  }

  TextTable scaling({"shards", "wall_s", "speedup", "events/s", "completed",
                     "avg_resp", "identical"});
  int failures = 0;
  for (const MultiTenantResult& row : sweep) {
    std::string why;
    const bool identical = tenants_identical(sweep.front(), row, why);
    if (!identical) {
      std::cerr << "DIVERGED at " << row.shards << " shards: " << why << '\n';
      ++failures;
    }
    scaling.add_row(
        {std::to_string(row.shards), fmt(row.wall_seconds, 3),
         fmt(sweep.front().wall_seconds / row.wall_seconds, 2),
         fmt(static_cast<double>(row.simulated_events) / row.wall_seconds, 0),
         std::to_string(row.aggregate.completed),
         fmt(row.aggregate.avg_response_time, 4), identical ? "yes" : "NO"});
  }
  scaling.print(std::cout);
  std::cout << "\nSpeedup is wall-clock and bounded by physical cores; the\n"
               "'identical' column is the point — per-tenant metrics and\n"
               "arbiter history match shards=1 bit for bit.\n\n";

  // --- Section 2: capacity squeeze at a fixed shard count -----------------
  std::cout << "--- shared-capacity squeeze (" << tenants
            << " tenants, 2 shards) ---\n";
  TextTable squeeze({"capacity", "peak_granted", "clips", "denied",
                     "qos_violations", "rejection", "avg_resp", "util"});
  std::vector<MultiTenantResult> rows;
  const std::vector<std::size_t> capacities{4 * tenants, 2 * tenants, tenants,
                                            tenants / 2};
  for (const std::size_t capacity : capacities) {
    const MultiTenantConfig config =
        population(tenants, seed, horizon, scale, capacity);
    MultiTenantOptions options;
    options.shards = 2;
    rows.push_back(run_multi_tenant(config, options));
    const MultiTenantResult& r = rows.back();
    squeeze.add_row({std::to_string(capacity), std::to_string(r.peak_granted),
                     std::to_string(r.grant_clips),
                     std::to_string(r.instances_denied),
                     std::to_string(r.aggregate.qos_violations),
                     fmt(r.aggregate.rejection_rate, 4),
                     fmt(r.aggregate.avg_response_time, 4),
                     fmt(r.aggregate.utilization, 3)});
  }
  squeeze.print(std::cout);
  std::cout << "\nReading: with ample capacity the arbiter never clips; as\n"
               "shared capacity tightens, grants saturate at the ceiling,\n"
               "denied instance-rounds accumulate, and tenant QoS erodes —\n"
               "interference between tenants, not within any one workload.\n";

  if (!smoke) return failures == 0 ? 0 : 1;

  const auto check = [&failures](bool ok, const std::string& what) {
    if (!ok) {
      std::cerr << "SMOKE FAIL: " << what << '\n';
      ++failures;
    }
  };
  check(sweep.front().aggregate.completed > 0,
        "population should complete work");
  check(sweep.front().windows > 0, "windows should have committed");
  for (const MultiTenantResult& row : sweep) {
    check(row.windows == sweep.front().windows,
          "window count must not depend on shard count");
  }
  const MultiTenantResult& ample_row = rows.front();
  const MultiTenantResult& starved = rows.back();
  check(ample_row.instances_denied == 0,
        "ample capacity should never deny instances");
  check(starved.instances_denied > 0,
        "starved capacity should deny instances");
  check(starved.grant_clips > 0, "starved capacity should clip grants");
  check(starved.peak_granted <= starved.capacity,
        "grants must never exceed shared capacity");
  std::uint64_t tenant_denied = 0;
  for (const TenantResult& tenant : starved.tenants) {
    tenant_denied += tenant.metrics.capacity_denied;
  }
  check(tenant_denied == starved.instances_denied,
        "per-tenant denial counters must sum to the arbiter total");
  // Starvation shows up as admission rejections (requests denied a slot),
  // not as served-request latency: with the pool pinned small, the requests
  // that ARE admitted see a short queue.
  check(starved.aggregate.rejection_rate >
            2.0 * ample_row.aggregate.rejection_rate,
        "starvation should drive the aggregate rejection rate up");

  if (failures != 0) return 1;
  std::cout << "\nsmoke checks passed\n";
  return 0;
}
