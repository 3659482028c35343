// Ablation AB14: multi-tier applications — cache + backend tiers under
// Zipf traffic with per-tier autoscaling (src/apptier).
//
// The same Zipf(alpha) key-value workload is served two ways:
//
//   single-tier  the paper's Algorithm 1 sizes ONE backend pool for the
//                total arrival rate lambda (every request pays a full
//                backend service demand);
//   tiered       a look-aside cache tier absorbs the hot head of the key
//                popularity, the TieredProvisioner runs Algorithm 1 per
//                tier, and the backend is sized for the miss flow
//                lambda_miss = lambda * (1 - h) from the cache tier's live
//                hit ratio.
//
// Four sections:
//
//   sizing      single-tier vs tiered on identically-seeded workloads at
//               several scales: equal-or-better SLO with fewer backend
//               VM-hours is the headline claim.
//   curve       per-tier latency vs throughput: each tier's measured mean
//               response against its own offered load as lambda grows.
//   warmup      a seeded cache-VM crash mid-run: the modulo slot remap
//               invalidates resident entries and the per-window hit-ratio
//               series shows the dip-and-recover transient.
//   TTL storm   a full directory flush mid-run: the backend eats the whole
//               lambda until refills rebuild the working set.
//
// --smoke (CI): short horizon; asserts (1) a run with apptier fields
// touched but enabled=false is bit-identical to the untouched baseline,
// (2) the tiered backend spends fewer VM-hours than the single-tier pool at
// equal QoS, (3) the crash transient invalidates and recovers, (4) the TTL
// storm flushes and recovers. Exits non-zero on violation.
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "experiment/report.h"
#include "experiment/runner.h"
#include "util/cli.h"

using namespace cloudprov;

namespace {

ScenarioConfig tiered_config(double scale, double ttl = 300.0) {
  ScenarioConfig config = zipf_scenario(scale);
  config.apptier.enabled = true;
  config.apptier.ttl = ttl;
  return config;
}

/// Mean window hit ratio over series samples with begin <= t < end.
double mean_hit_ratio(const std::vector<ApptierState::WindowSample>& series,
                      SimTime begin, SimTime end) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& sample : series) {
    if (sample.t < begin || sample.t >= end) continue;
    sum += sample.hit_ratio;
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : -1.0;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(
      "Ablation: cache + backend tiers under Zipf traffic with per-tier "
      "autoscaling, vs a single-tier pool sized for the total rate.");
  args.add_flag("scale", "0.02", "workload scale of the sizing section",
                "<double>");
  args.add_flag("hours", "24", "simulated hours", "<int>");
  args.add_flag("seed", "42", "base random seed", "<int>");
  args.add_flag("smoke", "false",
                "CI smoke mode: short horizon, assert tiers-off bit-identity, "
                "backend VM-hour savings at equal QoS, and both transients; "
                "exit non-zero on violation");
  if (!args.parse(argc, argv)) return 0;
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const bool smoke = args.get_bool("smoke");
  const double scale = args.get_double("scale");
  const SimTime horizon =
      smoke ? 4.0 * 3600.0 : static_cast<double>(args.get_int("hours")) * 3600.0;
  const PolicySpec adaptive = PolicySpec::adaptive(PredictorKind::kProfile);
  int failures = 0;
  const auto check = [&failures](bool ok, const std::string& what) {
    if (!ok) {
      std::cerr << "SMOKE FAIL: " << what << '\n';
      ++failures;
    }
  };

  std::cout << "=== Ablation: multi-tier cache + backend vs single tier "
               "(Zipf key-value traffic) ===\n\n";

  // --- Section 0 (smoke only): disabled apptier config must be inert ------
  if (smoke) {
    ScenarioConfig plain = zipf_scenario(scale);
    plain.set_horizon(horizon);
    ScenarioConfig touched = plain;
    touched.apptier.ttl = 5.0;               // enabled stays false:
    touched.apptier.cache_vms = 64;          // none of this may matter
    touched.apptier.cache_capacity_per_vm = 1;
    const RunMetrics a = run_scenario(plain, adaptive, seed).metrics;
    const RunMetrics b = run_scenario(touched, adaptive, seed).metrics;
    // Bitwise, every metric: any drift means the disabled apptier config
    // leaked into the simulation.
    const std::vector<std::string> differences =
        metric_differences(a, b, {"wall_seconds"});
    for (const std::string& line : differences) {
      check(false, "tiers-off runs must be bit-identical (" + line + ")");
    }
    check(a.cache_hits == 0, "tiers-off run must not serve cache hits");
    std::cout << "tiers-off bit-identity: "
              << (differences.empty() ? "ok" : "FAILED") << "\n\n";
  }

  // --- Section 1: equal-QoS sizing, single-tier vs tiered -----------------
  std::cout << "--- sizing: single-tier (total lambda) vs tiered "
               "(lambda_miss) ---\n";
  TextTable sizing({"config", "hit_ratio", "backend_vmh", "cache_vmh",
                    "avg_resp", "p99_resp", "rejection", "violations",
                    "lambda_miss"});
  std::vector<RunMetrics> sized;
  for (const bool tiers : {false, true}) {
    ScenarioConfig config = tiers ? tiered_config(scale) : zipf_scenario(scale);
    config.set_horizon(horizon);
    RunOutput output = run_scenario(config, adaptive, seed);
    const RunMetrics& m = output.metrics;
    sizing.add_row({tiers ? "tiered" : "single-tier",
                    fmt(m.cache_hit_ratio, 3), fmt(m.vm_hours, 1),
                    fmt(m.cache_vm_hours, 1), fmt(m.avg_response_time, 4),
                    fmt(m.p99_response_time, 4), fmt(m.rejection_rate, 4),
                    std::to_string(m.qos_violations),
                    fmt(m.lambda_miss_mean, 2)});
    sized.push_back(m);
  }
  sizing.print(std::cout);
  const ScenarioConfig reference = zipf_scenario(scale);
  const RunMetrics& single = sized.front();
  const RunMetrics& tiered = sized.back();
  std::cout << "\nReading: the cache absorbs the Zipf hot head, so the tiered\n"
               "backend plans for lambda_miss = lambda * (1 - h) and spends\n"
            << fmt(single.vm_hours - tiered.vm_hours, 1)
            << " fewer backend VM-hours while the end-to-end response mixes\n"
               "fast hits with full-demand misses.\n\n";
  if (smoke) {
    check(tiered.vm_hours < single.vm_hours,
          "tiered backend must spend fewer VM-hours than single-tier");
    check(tiered.avg_response_time <= reference.qos.max_response_time,
          "tiered run must meet the response-time QoS target");
    check(single.avg_response_time <= reference.qos.max_response_time,
          "single-tier run must meet the response-time QoS target");
    check(tiered.rejection_rate <=
              single.rejection_rate + reference.qos.max_rejection_rate + 0.02,
          "tiered rejection must stay comparable to single-tier");
    check(tiered.cache_hit_ratio > 0.3,
          "Zipf hot head should produce a substantial hit ratio");
  }

  // --- Section 2: per-tier latency vs throughput --------------------------
  std::cout << "--- per-tier latency vs throughput (tiered, scale sweep) "
               "---\n";
  TextTable curve({"scale", "lambda", "hit_ratio", "lambda_cache",
                   "lambda_miss", "cache_resp", "backend_resp", "e2e_resp",
                   "cache_vms", "backend_vms"});
  const std::vector<double> sweep_scales =
      smoke ? std::vector<double>{0.01, 0.02}
            : std::vector<double>{0.005, 0.01, 0.02, 0.04, 0.08};
  for (const double s : sweep_scales) {
    ScenarioConfig config = tiered_config(s);
    config.set_horizon(horizon);
    const RunMetrics m = run_scenario(config, adaptive, seed).metrics;
    const double lambda = s * config.zipf.base_rate;
    curve.add_row({fmt(s, 3), fmt(lambda, 1), fmt(m.cache_hit_ratio, 3),
                   fmt(lambda * m.cache_hit_ratio, 1),
                   fmt(m.lambda_miss_mean, 1),
                   fmt(m.cache_avg_response_time, 4),
                   fmt(m.backend_avg_response_time, 4),
                   fmt(m.avg_response_time, 4), fmt(m.cache_avg_instances, 1),
                   fmt(m.avg_instances, 1)});
  }
  curve.print(std::cout);
  std::cout << "\nReading: each tier rides its own latency-throughput curve —\n"
               "cache hits stay an order of magnitude faster than backend\n"
               "misses at every load, and both pools grow with their OWN\n"
               "offered flow (lambda*h vs lambda*(1-h)), not the total.\n\n";

  // --- Section 3: cache-warmup transient after a seeded cache-VM crash ----
  std::cout << "--- warmup transient: cache-VM crash at t=" << horizon / 2.0
            << " s ---\n";
  ScenarioConfig crash_config = tiered_config(scale);
  crash_config.set_horizon(horizon);
  const SimTime crash_at = horizon / 2.0;
  crash_config.apptier.cache_crash_at = {crash_at};
  RunOutput crash_run = run_scenario(crash_config, adaptive, seed);
  const RunMetrics& cm = crash_run.metrics;
  const double before_crash =
      mean_hit_ratio(crash_run.apptier_series, 0.25 * horizon, crash_at);
  const double after_crash = mean_hit_ratio(
      crash_run.apptier_series, crash_at, crash_at + 0.1 * horizon);
  const double recovered =
      mean_hit_ratio(crash_run.apptier_series, 0.9 * horizon, horizon);
  std::cout << "invalidations " << cm.cache_invalidations
            << "; window hit ratio " << fmt(before_crash, 3)
            << " before -> " << fmt(after_crash, 3) << " after crash -> "
            << fmt(recovered, 3) << " by the horizon\n\n";
  if (smoke) {
    check(cm.cache_invalidations > 0,
          "cache-VM crash must invalidate resident entries via slot remap");
    check(recovered > after_crash,
          "hit ratio must recover after the crash transient");
  }

  // --- Section 4: TTL storm (full directory flush) ------------------------
  std::cout << "--- TTL storm: directory flush at t=" << horizon / 2.0
            << " s ---\n";
  ScenarioConfig storm_config = tiered_config(scale);
  storm_config.set_horizon(horizon);
  const SimTime flush_at = horizon / 2.0;
  storm_config.apptier.flush_at = {flush_at};
  RunOutput storm_run = run_scenario(storm_config, adaptive, seed);
  const RunMetrics& sm = storm_run.metrics;
  const double before_storm =
      mean_hit_ratio(storm_run.apptier_series, 0.25 * horizon, flush_at);
  const double after_storm = mean_hit_ratio(
      storm_run.apptier_series, flush_at, flush_at + 0.05 * horizon);
  const double storm_recovered =
      mean_hit_ratio(storm_run.apptier_series, 0.9 * horizon, horizon);
  std::cout << "flushes " << sm.cache_flushes << "; window hit ratio "
            << fmt(before_storm, 3) << " before -> " << fmt(after_storm, 3)
            << " right after the flush -> " << fmt(storm_recovered, 3)
            << " by the horizon\n";
  std::cout << "\nReading: the storm sends the full lambda to the backend\n"
               "until refills rebuild the working set; the next planning\n"
               "windows see the hit-ratio collapse through lambda_miss and\n"
               "re-grow the backend, then shrink it again as the cache\n"
               "re-warms.\n";
  if (smoke) {
    check(sm.cache_flushes == 1, "exactly one flush event must fire");
    check(after_storm < before_storm,
          "hit ratio must collapse right after the flush");
    check(storm_recovered > after_storm,
          "hit ratio must recover after the TTL storm");
  }

  if (!smoke) return 0;
  if (failures != 0) return 1;
  std::cout << "\nsmoke checks passed\n";
  return 0;
}
