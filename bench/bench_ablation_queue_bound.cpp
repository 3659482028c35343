// Ablation AB2: the per-instance queue bound k = floor(Ts/Tr) (Equation 1).
//
// Sweeps the negotiated response time Ts, which drives k, on a shortened web
// scenario. Larger k lets each instance run closer to saturation before the
// model scales up (fewer VM-hours) but stretches in-queue waiting towards
// Ts; k = 1 degenerates to an Erlang loss system that needs the most
// instances. Response-time violations must stay at zero for every k — that
// is Equation 1's guarantee.
#include <iostream>

#include "experiment/report.h"
#include "experiment/runner.h"
#include "util/cli.h"

using namespace cloudprov;

int main(int argc, char** argv) {
  ArgParser args("Ablation: queue bound k via the negotiated Ts (web scenario).");
  args.add_flag("scale", "0.05", "workload scale factor", "<double>");
  args.add_flag("days", "1", "simulated days", "<int>");
  args.add_flag("reps", "2", "replications per setting", "<int>");
  args.add_flag("seed", "42", "base random seed", "<int>");
  if (!args.parse(argc, argv)) return 0;

  const auto reps = static_cast<std::size_t>(args.get_int("reps"));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const double horizon = static_cast<double>(args.get_int("days")) * 86400.0;

  std::cout << "=== Ablation: queue bound k (web, scale "
            << args.get_double("scale") << ") ===\n\n";

  TextTable table({"Ts (ms)", "k", "rejection", "utilization", "vm_hours",
                   "avg_resp_ms", "p99_resp_ms", "violations"});
  for (double ts_ms : {150.0, 250.0, 450.0, 850.0, 1650.0}) {
    ScenarioConfig config = web_scenario(args.get_double("scale"));
    config.set_horizon(horizon);
    config.qos.max_response_time = ts_ms / 1000.0;
    const std::size_t k =
        queue_bound(config.qos.max_response_time,
                    config.initial_service_time_estimate);

    const auto runs =
        run_replications(config, PolicySpec::adaptive(), reps, seed);
    const AggregateMetrics agg = aggregate(runs);
    double p99 = 0.0;
    for (const RunMetrics& run : runs) p99 += run.p99_response_time;
    p99 /= static_cast<double>(runs.size());

    table.add_row({fmt(ts_ms, 0), std::to_string(k),
                   fmt(agg.rejection_rate.mean, 4), fmt(agg.utilization.mean, 3),
                   fmt(agg.vm_hours.mean, 1),
                   fmt(agg.avg_response_time.mean * 1000.0, 1),
                   fmt(p99 * 1000.0, 1), fmt(agg.qos_violations.mean, 1)});
  }
  table.print(std::cout);

  std::cout
      << "\nReading: deeper queues (larger k) cut VM-hours but push p99\n"
         "response time towards Ts. Two caveats the sweep exposes, documented\n"
         "in EXPERIMENTS.md: (1) Equation 1 uses the MEAN service time, so\n"
         "with 0-10%% heterogeneity the guarantee needs k * Tr_max <= Ts —\n"
         "at Ts=850 ms, k=8 gives 8 * 110 ms = 880 ms > Ts and violations\n"
         "appear; (2) the modeler's blocking tolerance is calibrated for\n"
         "k=2 — for large k the Tq <= Ts check admits near-overload pools,\n"
         "so rejection grows. The paper's scenarios both sit at k = 2,\n"
         "where neither effect bites.\n";
  return 0;
}
