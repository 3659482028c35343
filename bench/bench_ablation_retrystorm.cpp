// Ablation AB12: retry-storm metastability and the resilience ladder.
//
// A static web-serving pool takes a correlated capacity hit (host crashes)
// while the IaaS allocation API is in an outage, so the reconciler cannot
// heal until the outage lifts. Impatient clients (attempt timeout + an
// 8-second patience deadline) keep retrying. Four configurations:
//
//   no-fault   the same client stack, no trigger — the goodput yardstick
//   naive      unbounded retries, no budget/breaker/shed: the trigger tips
//              the system into a *metastable* failure — after capacity is
//              fully restored, amplified retries plus capacity wasted on
//              requests whose clients already timed out keep goodput pinned
//              near zero indefinitely
//   budgeted   bounded attempts + token-bucket retry budget + circuit
//              breaker: amplification is capped, the storm drains, and
//              post-trigger goodput recovers to >= 90% of no-fault
//   shedding   budgeted + deadline/brownout admission shedding: the server
//              also refuses doomed work, keeping the p99 response time of
//              requests it *does* serve within the QoS target
//
// Goodput = logical client requests whose reply arrived within the client's
// patience, measured over the post-trigger window [outage end, horizon] —
// i.e. after the root cause is gone.
//
// --smoke additionally asserts the three regimes (and a neutral-layer
// no-op check) and exits non-zero on violation, so CI catches both a broken
// resilience layer and a silently vanished metastable regime.
#include <cstdlib>
#include <iostream>
#include <string>

#include "experiment/report.h"
#include "experiment/runner.h"
#include "util/cli.h"

using namespace cloudprov;

namespace {

struct Window {
  std::uint64_t requests = 0;
  std::uint64_t succeeded = 0;
};

struct Row {
  std::string label;
  RunMetrics metrics;
  Window post;  ///< client traffic in [trigger end, horizon]
  double post_goodput() const {
    return post.requests == 0
               ? 0.0
               : static_cast<double>(post.succeeded) /
                     static_cast<double>(post.requests);
  }
};

constexpr SimTime kTriggerStart = 3600.0;
constexpr SimTime kTriggerEnd = 5400.0;

/// Static pool spread evenly across few hosts so the scripted host crashes
/// remove a known fraction of capacity (the survivors can absorb the full
/// pool after the heal: 8 cores per host).
ScenarioConfig base_config(double scale, SimTime horizon) {
  ScenarioConfig config = web_scenario(scale);
  config.set_horizon(horizon);
  config.datacenter.host_count = 5;
  // Impatient clients with unbounded retries: the naive default.
  config.resilience.enabled = true;
  config.resilience.attempt_timeout = 0.15;
  config.resilience.request_deadline = 8.0;
  config.resilience.retry.max_attempts = 0;  // unbounded
  config.resilience.retry.base = 0.05;
  config.resilience.retry.cap = 0.5;
  return config;
}

/// The trigger: three of five hosts crash at the start of a 30-minute IaaS
/// allocation outage, so the reconciler can only heal after the outage.
void add_trigger(ScenarioConfig& config) {
  config.fault.outages.push_back({kTriggerStart, kTriggerEnd});
  for (std::size_t host = 0; host < 3; ++host) {
    config.fault.scripted.push_back(
        {ScriptedFault::Kind::kHostCrash, kTriggerStart, host});
  }
  config.reconciler.enabled = true;
  config.reconciler.interval = 60.0;
}

void add_protection(ScenarioConfig& config) {
  config.resilience.retry.max_attempts = 4;
  config.resilience.budget.enabled = true;
  config.resilience.budget.ratio = 0.2;
  config.resilience.budget.burst = 10.0;
  config.resilience.breaker.enabled = true;
}

void add_shedding(ScenarioConfig& config) {
  config.resilience.shed.deadline_enabled = true;
  config.resilience.shed.brownout_enabled = true;
  config.resilience.shed.brownout_utilization = 0.85;
  config.resilience.shed.brownout_fraction = 0.5;
  config.resilience.shed.brownout_priority = 1;
}

Row run_once(const ScenarioConfig& config, const std::string& label,
             std::size_t pool, std::uint64_t seed) {
  World world(config, PolicySpec::fixed(pool), seed, std::nullopt);
  world.start();
  world.run_to(kTriggerEnd);
  const RetryGateway* gateway = world.gateway();
  const std::uint64_t requests_at_end = gateway->client_requests();
  const std::uint64_t succeeded_at_end = gateway->client_succeeded();
  world.run_to(config.horizon);
  Row row;
  row.label = label;
  row.metrics = world.finish().metrics;
  row.post.requests = row.metrics.client_requests - requests_at_end;
  row.post.succeeded = row.metrics.client_succeeded - succeeded_at_end;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(
      "Ablation: retry-storm metastability vs budget/breaker/shedding (web).");
  args.add_flag("scale", "0.1", "workload scale factor", "<double>");
  args.add_flag("pool", "150",
                "static pool size (paper scale; scaled like Static-N)",
                "<int>");
  args.add_flag("hours", "4", "simulated hours", "<int>");
  args.add_flag("seed", "42", "random seed", "<int>");
  args.add_flag("smoke", "false",
                "CI smoke mode: 2-hour horizon, assert the three regimes and "
                "the neutral no-op, exit non-zero on violation");
  if (!args.parse(argc, argv)) return 0;
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const bool smoke = args.get_bool("smoke");
  const double scale = args.get_double("scale");
  const auto pool = static_cast<std::size_t>(args.get_int("pool"));
  const SimTime horizon =
      smoke ? 2.0 * 3600.0
            : static_cast<double>(args.get_int("hours")) * 3600.0;

  std::cout << "=== Ablation: retry storm (static web pool, 3/5 hosts crash "
               "at t=3600 s, 30-min allocation outage) ===\n\n";

  const Row no_fault =
      run_once(base_config(scale, horizon), "no-fault", pool, seed);
  ScenarioConfig naive_config = base_config(scale, horizon);
  add_trigger(naive_config);
  const Row naive = run_once(naive_config, "naive retries", pool, seed);
  ScenarioConfig budgeted_config = naive_config;
  add_protection(budgeted_config);
  const Row budgeted = run_once(budgeted_config, "budget+breaker", pool, seed);
  ScenarioConfig shed_config = budgeted_config;
  add_shedding(shed_config);
  const Row shedding = run_once(shed_config, "+shedding", pool, seed);

  TextTable table({"configuration", "post-trigger goodput", "ok", "failed",
                   "retries", "budget_deny", "br_open", "fast_fail", "shed",
                   "wasted", "p99_resp"});
  for (const Row* row : {&no_fault, &naive, &budgeted, &shedding}) {
    const RunMetrics& m = row->metrics;
    table.add_row({row->label, fmt(row->post_goodput(), 4),
                   std::to_string(m.client_succeeded),
                   std::to_string(m.client_failed),
                   std::to_string(m.client_retries),
                   std::to_string(m.retry_budget_denied),
                   std::to_string(m.breaker_opens),
                   std::to_string(m.breaker_fast_fails),
                   std::to_string(m.shed_deadline + m.shed_brownout),
                   std::to_string(m.wasted_completions),
                   fmt(m.p99_response_time, 3)});
  }
  table.print(std::cout);

  const double target = naive_config.qos.max_response_time;
  std::cout
      << "\nReading: the trigger clears at t=5400 s with the pool fully\n"
         "healed, yet the naive configuration never recovers — every failed\n"
         "request retries for its whole 8-second patience while the pool\n"
         "burns capacity on requests whose clients already left (wasted\n"
         "column): a metastable failure sustained by the client stack, not\n"
         "the fault. The retry budget caps amplification at ~1.1x and the\n"
         "breaker sheds the residual storm, so goodput snaps back once the\n"
         "root cause is gone. Admission shedding additionally keeps served\n"
         "p99 at " << fmt(shedding.metrics.p99_response_time, 3)
      << " s (target " << fmt(target, 3) << " s).\n";

  if (!smoke) return 0;

  int failures = 0;
  const auto check = [&failures](bool ok, const std::string& what) {
    if (!ok) {
      std::cerr << "SMOKE FAIL: " << what << '\n';
      ++failures;
    }
  };
  check(no_fault.post_goodput() > 0.95,
        "no-fault post-trigger goodput should be ~1");
  check(naive.post_goodput() < 0.5 * no_fault.post_goodput(),
        "naive unbounded retries should stay metastable after the trigger");
  check(budgeted.post_goodput() >= 0.9 * no_fault.post_goodput(),
        "budget+breaker should restore >= 90% of no-fault goodput");
  check(budgeted.post_goodput() > naive.post_goodput(),
        "budget+breaker should beat naive goodput");
  check(shedding.metrics.p99_response_time <= target,
        "shedding should keep served p99 within the QoS target");
  check(shedding.metrics.shed_deadline + shedding.metrics.shed_brownout > 0,
        "shedding should actually shed during the storm");

  // Neutral no-op: enabling the layer with every feature off must not move
  // a single simulation observable; only the gateway's own client counters
  // appear.
  ScenarioConfig neutral = base_config(scale, horizon);
  neutral.resilience = ResilienceConfig{};
  const RunMetrics off =
      run_scenario(neutral, PolicySpec::fixed(pool), seed).metrics;
  neutral.resilience.enabled = true;
  const RunMetrics on =
      run_scenario(neutral, PolicySpec::fixed(pool), seed).metrics;
  for (const std::string& line : metric_differences(
           off, on,
           {"client_requests", "client_succeeded", "client_attempts",
            "wall_seconds"})) {
    check(false, "neutral-enabled resilience layer must be a strict no-op (" +
                     line + ")");
  }

  if (failures != 0) return 1;
  std::cout << "\nsmoke checks passed\n";
  return 0;
}
