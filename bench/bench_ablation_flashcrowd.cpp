// Ablation AB8: flash crowds — load spikes outside the workload model.
//
// Overlays an unannounced 1-hour Poisson burst (3x the base rate) on the web
// workload and compares three adaptive configurations: the paper's pure
// profile predictor (blind to the spike), a pure reactive EWMA, and the
// HybridPredictor (max of both). The hybrid should match the profile's
// economy off-spike and the reactive's coverage on-spike.
#include <iostream>
#include <memory>

#include "cloud/broker.h"
#include "core/adaptive_policy.h"
#include "core/application_provisioner.h"
#include "experiment/report.h"
#include "experiment/scenario.h"
#include "predict/ewma.h"
#include "predict/hybrid.h"
#include "predict/periodic_profile.h"
#include "telemetry/telemetry.h"
#include "util/cli.h"
#include "workload/spike_overlay.h"

using namespace cloudprov;

namespace {

struct Row {
  std::string predictor;
  double rejection_overall;
  double rejection_in_spike;
  double vm_hours;
  double max_instances;
  std::uint64_t slo_alerts;
  double worst_burn;
};

Row run_once(const ScenarioConfig& config, const SpikeConfig& spike,
             std::shared_ptr<ArrivalRatePredictor> predictor,
             const std::string& label, std::uint64_t seed) {
  Simulation sim;
  // SLO burn-rate alerting rides along (observational only): an unabsorbed
  // flash crowd should burn the rejection budget fast enough to page.
  TelemetryOptions telemetry_options;
  telemetry_options.slo_enabled = true;
  telemetry_options.slo.log_alerts = false;
  Telemetry telemetry(telemetry_options);
  Datacenter datacenter(sim, config.datacenter,
                        std::make_unique<LeastLoadedPlacement>());
  ProvisionerConfig prov_config;
  prov_config.initial_service_time_estimate = config.initial_service_time_estimate;
  ApplicationProvisioner provisioner(sim, datacenter, config.qos, prov_config);
  provisioner.set_telemetry(&telemetry);

  SpikeOverlaySource source(std::make_unique<WebWorkload>(config.web), spike);
  Broker broker(sim, source, provisioner, Rng(seed));
  AdaptivePolicy policy(sim, std::move(predictor), config.modeler,
                        config.analyzer);
  policy.attach(provisioner);
  broker.start();

  // Sample rejection counters at the spike boundaries.
  std::uint64_t rejected_at_spike_start = 0;
  std::uint64_t total_at_spike_start = 0;
  std::uint64_t rejected_at_spike_end = 0;
  std::uint64_t total_at_spike_end = 0;
  sim.schedule_at(spike.start, [&] {
    rejected_at_spike_start = provisioner.rejected();
    total_at_spike_start = provisioner.total_arrivals();
  });
  sim.schedule_at(spike.end, [&] {
    rejected_at_spike_end = provisioner.rejected();
    total_at_spike_end = provisioner.total_arrivals();
  });
  sim.run(config.horizon);

  const auto spike_total = total_at_spike_end - total_at_spike_start;
  const auto spike_rejected = rejected_at_spike_end - rejected_at_spike_start;
  TimeWeightedValue history = provisioner.instance_history();
  history.advance(sim.now());
  telemetry.slo()->evaluate(sim.now());  // final reading at the horizon
  return Row{label, provisioner.rejection_rate(),
             spike_total == 0 ? 0.0
                              : static_cast<double>(spike_rejected) /
                                    static_cast<double>(spike_total),
             datacenter.vm_hours(), history.max(),
             telemetry.slo()->response_alerts() +
                 telemetry.slo()->rejection_alerts(),
             telemetry.slo()->worst_burn_rate()};
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("Ablation: flash crowd outside the workload model (web).");
  args.add_flag("scale", "0.1", "workload scale factor", "<double>");
  args.add_flag("days", "1", "simulated days", "<int>");
  args.add_flag("spike-factor", "3.0", "spike rate as multiple of base rate",
                "<double>");
  args.add_flag("seed", "42", "random seed", "<int>");
  args.add_flag("smoke", "false",
                "CI smoke mode: small scale, horizon cut after the spike "
                "window");
  if (!args.parse(argc, argv)) return 0;
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const bool smoke = args.get_bool("smoke");

  ScenarioConfig config =
      web_scenario(smoke ? 0.05 : args.get_double("scale"));
  config.set_horizon(smoke
                         ? 16.0 * 3600.0
                         : static_cast<double>(args.get_int("days")) * 86400.0);

  // One-hour spike starting 14:00, (factor-1)x the base rate on top.
  WebWorkload base_model(config.web);
  SpikeConfig spike;
  spike.start = 14.0 * 3600.0;
  spike.end = 15.0 * 3600.0;
  spike.extra_rate = (args.get_double("spike-factor") - 1.0) *
                     base_model.expected_rate(14.5 * 3600.0);
  spike.service_demand =
      std::make_shared<ScaledUniformDistribution>(config.web.service_base,
                                                  config.web.service_spread);

  std::cout << "=== Ablation: flash crowd (web, 1-hour "
            << args.get_double("spike-factor") << "x spike at 14:00) ===\n\n";

  TextTable table({"predictor", "rejection overall", "rejection in spike",
                   "vm_hours", "max_inst", "slo_alerts", "worst_burn"});
  const auto add_row = [&table](const Row& row) {
    table.add_row({row.predictor, fmt(row.rejection_overall, 4),
                   fmt(row.rejection_in_spike, 4), fmt(row.vm_hours, 1),
                   fmt(row.max_instances, 1), std::to_string(row.slo_alerts),
                   fmt(row.worst_burn, 1)});
  };
  std::uint64_t total_alerts = 0;
  {
    auto profile = std::make_shared<PeriodicProfilePredictor>(
        web_profile_predictor(config.web));
    const Row row = run_once(config, spike, profile, "profile (paper)", seed);
    total_alerts += row.slo_alerts;
    add_row(row);
  }
  {
    auto reactive = std::make_shared<EwmaPredictor>(0.4, 0.15);
    const Row row = run_once(config, spike, reactive, "ewma (reactive)", seed);
    total_alerts += row.slo_alerts;
    add_row(row);
  }
  {
    // The hybrid's reactive arm uses no headroom: off-spike the profile
    // envelope dominates the max (keeping profile economy); the reactive arm
    // only takes over when observed load genuinely exceeds the model.
    auto hybrid = std::make_shared<HybridPredictor>(
        std::make_shared<PeriodicProfilePredictor>(
            web_profile_predictor(config.web)),
        std::make_shared<EwmaPredictor>(0.4, 0.0));
    const Row row = run_once(config, spike, hybrid, "hybrid (extension)", seed);
    total_alerts += row.slo_alerts;
    add_row(row);
  }
  table.print(std::cout);
  std::cout << "\nSLO alerts (all configurations): " << total_alerts << '\n';

  std::cout
      << "\nReading: the profile predictor cannot see the spike (its model\n"
         "doesn't contain it) and rejects heavily inside the spike window;\n"
         "the reactive EWMA covers the spike after a one-interval lag but\n"
         "tracks noisily all day; the hybrid takes max(profile, reactive):\n"
         "profile economy in normal operation, reactive coverage during the\n"
         "crowd. The slo_alerts column counts multi-window burn-rate alerts\n"
         "raised during the run (the spike should page at least the blind\n"
         "profile configuration).\n";
  return 0;
}
