// Ablation AB11: model-predictive (lookahead) provisioning vs the paper's
// reactive adaptive mechanism.
//
// Algorithm 1 sizes the pool from the analytical model alone; the lookahead
// provisioner (src/lookahead) additionally forks cheap what-if clones of the
// whole world at each analysis window, simulates candidate pool sizes (and
// spot bids) a few windows ahead under a Poisson forecast, and commits the
// cheapest candidate whose clone kept QoS no worse than Algorithm 1's own
// choice.
//
//   A. No-search guard. Lookahead with K = 1 and no bid levels never
//      consults the what-if engine and must be bit-identical to the
//      adaptive baseline — every metric but the policy label, including
//      the executed event count. Exits nonzero on any mismatch, so CI pins
//      the guarantee.
//   B. Checkpoint guard. Snapshot a live market run mid-flight, push it
//      through the binary disk codec, restore, continue — and require the
//      finished run bit-identical to the uninterrupted one. Exits nonzero
//      on any mismatch.
//   C. AB11 table. Web scenario on a live spot market with SLO burn-rate
//      alerting: reactive adaptive (profile / EWMA / oracle predictors)
//      vs lookahead. Columns: billed cost, VM hours, rejection rate, QoS
//      violations, SLO alerts. The claim under test: lookahead meets QoS
//      (never more SLO alerts than the reactive profile baseline) at a
//      lower billed cost.
#include <cstdint>
#include <cstdio>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "experiment/report.h"
#include "experiment/runner.h"
#include "experiment/world.h"
#include "lookahead/checkpoint.h"
#include "util/cli.h"

using namespace cloudprov;

namespace {

ScenarioConfig base_scenario(bool smoke) {
  ScenarioConfig config = web_scenario(smoke ? 0.02 : 0.05);
  if (smoke) {
    // CI smoke: 6 simulated hours instead of a day.
    config.set_horizon(6.0 * 3600.0);
  }
  return config;
}

ScenarioConfig market_scenario(bool smoke) {
  ScenarioConfig config = base_scenario(smoke);
  config.market.enabled = true;
  config.market.acquisition.spot_fraction = 0.5;
  config.market.acquisition.bid = 0.70;
  config.reconciler.enabled = true;
  config.reconciler.interval = 60.0;
  return config;
}

TelemetryOptions slo_telemetry(const ScenarioConfig& config) {
  TelemetryOptions opts;
  opts.trace_requests = false;
  opts.slo_enabled = true;
  opts.slo.log_alerts = false;
  opts.drift_enabled = true;
  opts.drift.qos_max_response_time = config.qos.max_response_time;
  return opts;
}

/// Prints each line of `differences` after `failure`; true when there are
/// none. The guards compare bitwise: the disabled search and the checkpoint
/// roundtrip must not move a single double.
bool same_metrics(const std::vector<std::string>& differences,
                  const char* failure) {
  if (differences.empty()) return true;
  std::cout << failure << '\n';
  for (const std::string& line : differences) std::cout << "  " << line << '\n';
  return false;
}

void print_ab11_row(std::ostream& out, const RunMetrics& m) {
  out << "  " << std::left << std::setw(26) << m.policy << std::right
      << std::setw(10) << fmt(m.billed_cost, 2) << std::setw(10)
      << fmt(m.vm_hours, 2) << std::setw(9) << fmt(100.0 * m.rejection_rate, 2)
      << '%' << std::setw(8) << m.qos_violations << std::setw(8)
      << (m.slo_response_alerts + m.slo_rejection_alerts) << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(
      "Ablation AB11: lookahead (model-predictive) provisioning vs reactive "
      "adaptive — no-search guard, checkpoint roundtrip guard, and cost/QoS "
      "comparison on a live spot market (web scenario).");
  args.add_flag("seed", "42", "base random seed", "<int>");
  args.add_flag("smoke", "false",
                "short-horizon run for CI smoke testing", "<bool>");
  if (!args.parse(argc, argv)) return 0;
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const bool smoke = args.get_bool("smoke");

  // --- A: K = 1, no bid levels — search disabled, bit-identical ----------
  std::cout << "=== A. No-search guard: lookahead(1,1) vs adaptive ===\n\n";
  {
    const ScenarioConfig config = base_scenario(smoke);
    RunMetrics adaptive =
        run_scenario(config, PolicySpec::adaptive(), seed).metrics;
    RunMetrics lookahead =
        run_scenario(config, PolicySpec::lookahead_spec(1, 1), seed).metrics;
    print_policy_table(std::cout,
                       {aggregate({adaptive}), aggregate({lookahead})});
    if (!same_metrics(metric_differences(adaptive, lookahead,
                                         {"policy", "wall_seconds"}),
                      "\nFAIL: disabled lookahead search perturbed the "
                      "simulation:")) {
      return 1;
    }
    std::cout << "\nOK: every metric (incl. simulated_events="
              << adaptive.simulated_events << ") bit-identical.\n";
  }

  // --- B: checkpoint -> disk -> restore -> continue ----------------------
  std::cout << "\n=== B. Checkpoint guard: disk roundtrip mid-run ===\n\n";
  {
    const ScenarioConfig config = market_scenario(smoke);
    const PolicySpec policy = PolicySpec::adaptive();
    const RunMetrics full = run_scenario(config, policy, seed).metrics;

    World world(config, policy, seed);
    world.start();
    world.run_to(config.horizon / 3.0);
    const std::string path = "bench_lookahead_ckpt.bin";
    write_checkpoint_file(path, world.snapshot());
    const WorldState state = read_checkpoint_file(path);
    std::remove(path.c_str());

    World resumed(config, policy, seed, state);
    resumed.run_to(config.horizon);
    const RunMetrics continued = resumed.finish().metrics;
    if (!same_metrics(metric_differences(full, continued, {"wall_seconds"}),
                      "FAIL: checkpoint/restore diverged from the "
                      "uninterrupted run:")) {
      return 1;
    }
    std::cout << "OK: snapshot at t=" << fmt(config.horizon / 3.0, 0)
              << "s, restored from disk, continued to the horizon; every "
                 "metric (incl. billed cost "
              << fmt(continued.billed_cost, 2) << " and simulated_events="
              << continued.simulated_events << ") bit-identical.\n";
  }

  // --- C: AB11 — reactive vs lookahead on the spot market ----------------
  std::cout << "\n=== C. AB11: reactive adaptive vs lookahead (spot market, "
               "SLO alerting) ===\n\n";
  {
    const ScenarioConfig config = market_scenario(smoke);
    const std::size_t candidates = smoke ? 3 : 5;
    const std::size_t horizon_windows = 2;
    const std::vector<std::pair<std::string, PolicySpec>> contenders = {
        {"Adaptive(profile)", PolicySpec::adaptive()},
        {"Adaptive(ewma)", PolicySpec::adaptive(PredictorKind::kEwma)},
        {"Adaptive(oracle)", PolicySpec::adaptive(PredictorKind::kOracle)},
        {"Lookahead",
         PolicySpec::lookahead_spec(candidates, horizon_windows)},
        {"Lookahead+bids",
         PolicySpec::lookahead_spec(candidates, horizon_windows,
                                    PredictorKind::kProfile, {0.45, 1.0})},
    };

    std::vector<RunMetrics> rows;
    for (const auto& [label, policy] : contenders) {
      RunMetrics m =
          run_scenario(config, policy, seed, slo_telemetry(config)).metrics;
      m.policy = label;
      rows.push_back(std::move(m));
    }

    std::cout << "  " << std::left << std::setw(26) << "policy" << std::right
              << std::setw(10) << "billed" << std::setw(10) << "VM-h"
              << std::setw(10) << "rej" << std::setw(8) << "QoSv"
              << std::setw(8) << "alerts" << '\n';
    for (const RunMetrics& m : rows) print_ab11_row(std::cout, m);

    const RunMetrics& profile = rows[0];
    const RunMetrics& ewma = rows[1];
    const RunMetrics& best_lookahead =
        rows[3].billed_cost <= rows[4].billed_cost ? rows[3] : rows[4];
    const std::uint64_t profile_alerts =
        profile.slo_response_alerts + profile.slo_rejection_alerts;
    const std::uint64_t la_alerts = best_lookahead.slo_response_alerts +
                                    best_lookahead.slo_rejection_alerts;
    std::cout << "\nReading: the what-if clones certify each cut before it "
                 "is committed, so the\nlookahead bill ("
              << fmt(best_lookahead.billed_cost, 2)
              << ") undercuts reactive profile ("
              << fmt(profile.billed_cost, 2) << ") and EWMA ("
              << fmt(ewma.billed_cost, 2) << ")\nwhile SLO alerts stay at "
              << la_alerts << " vs " << profile_alerts
              << " for the reactive baseline.\n";
    if (best_lookahead.billed_cost > profile.billed_cost ||
        best_lookahead.billed_cost > ewma.billed_cost ||
        la_alerts > profile_alerts) {
      std::cout << "\nFAIL: lookahead did not dominate the reactive "
                   "baseline (cost or alerts)\n";
      return 1;
    }
  }
  return 0;
}
