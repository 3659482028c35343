// Ablation AB1: predictor choice inside the adaptive mechanism.
//
// The paper evaluates only the time-based profile predictor and names QRSM
// and ARMAX as future work (Section VII). This bench runs the same adaptive
// mechanism with every predictor in the library — model-derived (profile,
// oracle) and history-based (EWMA, max-window moving average, AR(4), QRSM) —
// on a shortened web scenario, separating the cost of prediction error from
// the provisioning algorithm itself.
#include <iostream>

#include "experiment/report.h"
#include "experiment/runner.h"
#include "util/cli.h"

using namespace cloudprov;

int main(int argc, char** argv) {
  ArgParser args("Ablation: arrival-rate predictor choice (web scenario).");
  args.add_flag("scale", "0.05", "workload scale factor", "<double>");
  args.add_flag("days", "2", "simulated days (paper horizon: 7)", "<int>");
  args.add_flag("reps", "2", "replications per predictor", "<int>");
  args.add_flag("seed", "42", "base random seed", "<int>");
  if (!args.parse(argc, argv)) return 0;

  ScenarioConfig config = web_scenario(args.get_double("scale"));
  const double horizon = static_cast<double>(args.get_int("days")) * 86400.0;
  config.set_horizon(horizon);
  const auto reps = static_cast<std::size_t>(args.get_int("reps"));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));

  std::cout << "=== Ablation: predictor choice (web, scale "
            << args.get_double("scale") << ", " << args.get_int("days")
            << " days, " << reps << " reps) ===\n\n";

  std::vector<AggregateMetrics> results;
  for (PredictorKind kind :
       {PredictorKind::kProfile, PredictorKind::kOracle, PredictorKind::kEwma,
        PredictorKind::kMovingAverage, PredictorKind::kAr,
        PredictorKind::kQrsm}) {
    const auto runs =
        run_replications(config, PolicySpec::adaptive(kind), reps, seed);
    results.push_back(aggregate(runs));
  }
  print_policy_table(std::cout, results);

  std::cout
      << "\nReading: on the slowly-drifting web sinusoid every predictor\n"
         "keeps rejection near zero, but the model-derived ones (profile,\n"
         "oracle) do it with the smallest pools and fewest VM-hours, while\n"
         "the history-based ones chase per-window noise and over-provision\n"
         "(higher max instances / VM-hours). The decisive case for proactive\n"
         "prediction is sharp ramps — see bench_ablation_interval, where a\n"
         "reactive predictor leaks up to ~17% rejection at the BoT 8 a.m.\n"
         "step while the profile predictor does not.\n";
  return 0;
}
