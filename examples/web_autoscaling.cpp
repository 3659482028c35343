// Web autoscaling walkthrough (the paper's Section V-B1 scenario, condensed).
//
// Runs two days of the Wikipedia-model workload at reduced scale under the
// adaptive policy and prints an hourly timeline: expected arrival rate,
// instances provisioned, and cumulative rejection — the dynamics behind
// Figure 5 rendered as text.
//
// Try: ./web_autoscaling            (defaults)
//      ./web_autoscaling 0.1 7      (scale 0.1, full week)
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "cloud/broker.h"
#include "core/adaptive_policy.h"
#include "core/application_provisioner.h"
#include "experiment/scenario.h"
#include "predict/periodic_profile.h"

using namespace cloudprov;

int main(int argc, char** argv) {
  const double scale = argc > 1 ? std::atof(argv[1]) : 0.05;
  const int days = argc > 2 ? std::atoi(argv[2]) : 2;

  ScenarioConfig config = web_scenario(scale);
  config.set_horizon(days * duration::kDay);

  Simulation sim;
  Datacenter datacenter(sim, config.datacenter,
                        std::make_unique<LeastLoadedPlacement>());
  ProvisionerConfig prov_config;
  prov_config.initial_service_time_estimate = config.initial_service_time_estimate;
  ApplicationProvisioner provisioner(sim, datacenter, config.qos, prov_config);

  WebWorkload workload(config.web);
  Broker broker(sim, workload, provisioner, Rng(2011));

  // The paper's six-period time-based predictor, derived from the model.
  auto predictor = std::make_shared<PeriodicProfilePredictor>(
      web_profile_predictor(config.web));
  AdaptivePolicy policy(sim, predictor, config.modeler, config.analyzer);
  policy.attach(provisioner);
  broker.start();

  std::printf("hour | expected req/s | instances | rejected so far\n");
  std::printf("-----+----------------+-----------+----------------\n");
  for (int hour = 0; hour <= days * 24; ++hour) {
    sim.schedule_at(hour * duration::kHour, [&, hour] {
      std::printf("%4d | %14.1f | %9zu | %llu\n", hour,
                  predictor->predict(sim.now()), provisioner.live_instances(),
                  static_cast<unsigned long long>(provisioner.rejected()));
    });
  }
  sim.run(config.horizon);

  std::printf("\nsummary over %d day(s) at scale %.2f:\n", days, scale);
  std::printf("  requests:    %llu (%.4f%% rejected)\n",
              static_cast<unsigned long long>(broker.generated()),
              100.0 * provisioner.rejection_rate());
  std::printf("  response:    %.1f ms mean, %.1f ms p99 (Ts = %.0f ms)\n",
              1e3 * provisioner.response_time_stats().mean(),
              1e3 * provisioner.response_p99(),
              1e3 * config.qos.max_response_time);
  std::printf("  violations:  %llu\n",
              static_cast<unsigned long long>(provisioner.qos_violations()));
  std::printf("  VM hours:    %.1f at %.1f%% utilization\n",
              datacenter.vm_hours(), 100.0 * datacenter.utilization());
  return 0;
}
