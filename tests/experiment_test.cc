#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "experiment/metrics.h"
#include "experiment/report.h"
#include "experiment/runner.h"
#include "experiment/scenario.h"
#include "layered_web.h"
#include "metrics_equality.h"
#include "util/csv.h"

namespace cloudprov {
namespace {

TEST(Scenario, WebFactoryMatchesPaperSetup) {
  const ScenarioConfig config = web_scenario(1.0);
  EXPECT_EQ(config.workload, WorkloadKind::kWeb);
  EXPECT_EQ(config.horizon, 7.0 * 86400.0);
  EXPECT_EQ(config.qos.max_response_time, 0.250);
  EXPECT_EQ(config.qos.min_utilization, 0.80);
  EXPECT_NEAR(config.initial_service_time_estimate, 0.105, 1e-12);
  EXPECT_EQ(config.datacenter.host_count, 1000u);
  EXPECT_EQ(config.web.week[0].max, 1000.0);  // Monday (Table II)
  EXPECT_EQ(config.web.week[6].min, 400.0);   // Sunday
}

TEST(Scenario, ScientificFactoryMatchesPaperSetup) {
  const ScenarioConfig config = scientific_scenario(1.0);
  EXPECT_EQ(config.workload, WorkloadKind::kScientific);
  EXPECT_EQ(config.horizon, 86400.0);
  EXPECT_EQ(config.qos.max_response_time, 700.0);
  EXPECT_NEAR(config.initial_service_time_estimate, 315.0, 1e-9);
  EXPECT_EQ(config.bot.peak_interarrival_shape, 4.25);
  EXPECT_EQ(config.bot.peak_interarrival_scale, 7.86);
}

TEST(Scenario, ScaledInstancesRoundToAtLeastOne) {
  const ScenarioConfig config = web_scenario(0.1);
  EXPECT_EQ(config.scaled_instances(150), 15u);
  EXPECT_EQ(config.scaled_instances(125), 13u);  // round half away from zero
  EXPECT_EQ(config.scaled_instances(1), 1u);
  const ScenarioConfig tiny = web_scenario(0.001);
  EXPECT_EQ(tiny.scaled_instances(150), 1u);
}

TEST(Scenario, PaperStaticSizes) {
  EXPECT_EQ(paper_static_sizes(WorkloadKind::kWeb),
            (std::vector<std::size_t>{50, 75, 100, 125, 150}));
  EXPECT_EQ(paper_static_sizes(WorkloadKind::kScientific),
            (std::vector<std::size_t>{15, 30, 45, 60, 75}));
}

TEST(PolicySpec, Labels) {
  EXPECT_EQ(PolicySpec::adaptive().label(1.0), "Adaptive");
  EXPECT_EQ(PolicySpec::adaptive(PredictorKind::kEwma).label(1.0),
            "Adaptive(ewma)");
  EXPECT_EQ(PolicySpec::fixed(150).label(0.1), "Static-15");
  EXPECT_THROW(PolicySpec::fixed(0), std::invalid_argument);
}

TEST(Runner, StaticScientificRunProducesPaperRejection) {
  // The cheapest strong end-to-end anchor: Static-45 on the scientific
  // workload rejects ~31.7% (paper, Section V-C2).
  const ScenarioConfig config = scientific_scenario(1.0);
  const auto runs = run_replications(config, PolicySpec::fixed(45), 3, 7);
  const AggregateMetrics agg = aggregate(runs);
  EXPECT_NEAR(agg.rejection_rate.mean, 0.317, 0.04);
  EXPECT_EQ(agg.qos_violations.mean, 0.0);
}

// Every numeric RunMetrics member is 8 bytes and `policy` is the only
// other one, so a member missing from for_each_metric breaks the size sum.
TEST(RunMetricsSchema, VisitorCoversEveryMember) {
  std::set<std::string> names;
  for_each_metric(RunMetrics{}, [&](const char* name, const auto& value,
                                    MetricDirection, MetricGroup) {
    static_assert(sizeof(value) == 8);
    EXPECT_TRUE(names.insert(name).second) << "duplicate " << name;
  });
  EXPECT_EQ(sizeof(RunMetrics), sizeof(std::string) + 8 * names.size());
}

// metric_differences names exactly the field that changed, whichever it is.
TEST(RunMetricsSchema, MetricDifferencesNamesEachChangedField) {
  const RunMetrics base;
  std::size_t fields = 0;
  for_each_metric(base, [&](const char*, const auto&, MetricDirection,
                            MetricGroup) {
    ++fields;
  });
  for (std::size_t k = 0; k < fields; ++k) {
    RunMetrics changed = base;
    std::string name;
    std::size_t i = 0;
    for_each_metric(changed, [&](const char* field, auto& value,
                                 MetricDirection, MetricGroup) {
      if (i++ != k) return;
      name = field;
      value += 1;
    });
    SCOPED_TRACE(name);
    const std::vector<std::string> differences =
        metric_differences(changed, base, {});
    ASSERT_EQ(differences.size(), 1u);
    EXPECT_EQ(differences[0].substr(0, name.size() + 2), name + ": ");
    EXPECT_TRUE(metric_differences(changed, base, {name}).empty());
  }

  RunMetrics relabelled = base;
  relabelled.policy = "other";
  EXPECT_EQ(metric_differences(relabelled, base, {}),
            std::vector<std::string>{"policy: other vs "});
  EXPECT_TRUE(metric_differences(relabelled, base, {"policy"}).empty());

  EXPECT_TRUE(metric_differences(base, base, {}).empty());
  EXPECT_THROW(metric_differences(base, base, {"no_such_metric"}),
               std::invalid_argument);
}

TEST(Runner, SameSeedSameResult) {
  const ScenarioConfig config = scientific_scenario(1.0);
  const RunOutput a = run_scenario(config, PolicySpec::adaptive(), 99);
  const RunOutput b = run_scenario(config, PolicySpec::adaptive(), 99);
  expect_same_metrics(a.metrics, b.metrics, {"wall_seconds"});
  EXPECT_EQ(a.decisions.size(), b.decisions.size());
}

TEST(Runner, DifferentSeedsDiffer) {
  const ScenarioConfig config = scientific_scenario(1.0);
  const RunOutput a = run_scenario(config, PolicySpec::adaptive(), 1);
  const RunOutput b = run_scenario(config, PolicySpec::adaptive(), 2);
  EXPECT_NE(a.metrics.generated, b.metrics.generated);
}

TEST(Runner, ReplicationsUseDistinctSeeds) {
  const ScenarioConfig config = scientific_scenario(1.0);
  const auto runs = run_replications(config, PolicySpec::fixed(30), 3, 5);
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_NE(runs[0].seed, runs[1].seed);
  EXPECT_NE(runs[1].seed, runs[2].seed);
  EXPECT_NE(runs[0].generated, runs[1].generated);
}

TEST(Runner, ParallelReplicationsMatchSequential) {
  // Threaded execution must be bit-identical to sequential: seeds are fixed
  // up front and replications share no state.
  const ScenarioConfig config = scientific_scenario(1.0);
  const auto sequential = run_replications(config, PolicySpec::fixed(30), 4, 9,
                                           {}, /*parallelism=*/1);
  const auto parallel = run_replications(config, PolicySpec::fixed(30), 4, 9,
                                         {}, /*parallelism=*/4);
  ASSERT_EQ(sequential.size(), parallel.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_EQ(sequential[i].seed, parallel[i].seed);
    EXPECT_EQ(sequential[i].generated, parallel[i].generated);
    EXPECT_EQ(sequential[i].rejected, parallel[i].rejected);
    EXPECT_EQ(sequential[i].avg_response_time, parallel[i].avg_response_time);
    EXPECT_EQ(sequential[i].simulated_events, parallel[i].simulated_events);
  }
}

TEST(Runner, ParallelReplicationsAreElementWiseIdenticalAcrossAllFields) {
  // Stronger form of the spot checks above: every deterministic RunMetrics
  // field must be element-wise identical between parallelism=1 and
  // parallelism=4 for the same base seed, including the market ledger
  // (spot enabled so its fields are live, not trivially zero).
  ScenarioConfig config = scientific_scenario(1.0);
  config.market.enabled = true;
  config.market.acquisition.spot_fraction = 0.5;
  config.market.acquisition.bid = 0.7;
  const auto sequential = run_replications(config, PolicySpec::adaptive(), 4,
                                           13, {}, /*parallelism=*/1);
  const auto parallel = run_replications(config, PolicySpec::adaptive(), 4,
                                         13, {}, /*parallelism=*/4);
  ASSERT_EQ(sequential.size(), parallel.size());
#define EXPECT_REP_FIELD_EQ(field) \
  EXPECT_EQ(sequential[i].field, parallel[i].field) << #field << " rep " << i
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_REP_FIELD_EQ(policy);
    EXPECT_REP_FIELD_EQ(seed);
    EXPECT_REP_FIELD_EQ(generated);
    EXPECT_REP_FIELD_EQ(accepted);
    EXPECT_REP_FIELD_EQ(rejected);
    EXPECT_REP_FIELD_EQ(completed);
    EXPECT_REP_FIELD_EQ(qos_violations);
    EXPECT_REP_FIELD_EQ(avg_response_time);
    EXPECT_REP_FIELD_EQ(std_response_time);
    EXPECT_REP_FIELD_EQ(p95_response_time);
    EXPECT_REP_FIELD_EQ(p99_response_time);
    EXPECT_REP_FIELD_EQ(min_instances);
    EXPECT_REP_FIELD_EQ(max_instances);
    EXPECT_REP_FIELD_EQ(avg_instances);
    EXPECT_REP_FIELD_EQ(vm_hours);
    EXPECT_REP_FIELD_EQ(busy_vm_hours);
    EXPECT_REP_FIELD_EQ(utilization);
    EXPECT_REP_FIELD_EQ(rejection_rate);
    EXPECT_REP_FIELD_EQ(instance_failures);
    EXPECT_REP_FIELD_EQ(vm_crashes);
    EXPECT_REP_FIELD_EQ(host_crashes);
    EXPECT_REP_FIELD_EQ(boot_failures);
    EXPECT_REP_FIELD_EQ(boot_timeouts);
    EXPECT_REP_FIELD_EQ(lost_requests);
    EXPECT_REP_FIELD_EQ(lost_to_vm_crashes);
    EXPECT_REP_FIELD_EQ(lost_to_host_crashes);
    EXPECT_REP_FIELD_EQ(availability);
    EXPECT_REP_FIELD_EQ(recoveries);
    EXPECT_REP_FIELD_EQ(mttr_mean);
    EXPECT_REP_FIELD_EQ(mttr_max);
    EXPECT_REP_FIELD_EQ(reconciler_heals);
    EXPECT_REP_FIELD_EQ(reconciler_retries);
    EXPECT_REP_FIELD_EQ(reconciler_aborts);
    EXPECT_REP_FIELD_EQ(final_instances);
    EXPECT_REP_FIELD_EQ(slo_response_alerts);
    EXPECT_REP_FIELD_EQ(slo_rejection_alerts);
    EXPECT_REP_FIELD_EQ(slo_worst_burn_rate);
    EXPECT_REP_FIELD_EQ(drift_windows);
    EXPECT_REP_FIELD_EQ(drift_response_mape);
    EXPECT_REP_FIELD_EQ(drift_response_bias);
    EXPECT_REP_FIELD_EQ(spans_traced);
    EXPECT_REP_FIELD_EQ(billed_cost);
    EXPECT_REP_FIELD_EQ(on_demand_cost);
    EXPECT_REP_FIELD_EQ(spot_cost);
    EXPECT_REP_FIELD_EQ(reserved_cost);
    EXPECT_REP_FIELD_EQ(on_demand_purchases);
    EXPECT_REP_FIELD_EQ(spot_purchases);
    EXPECT_REP_FIELD_EQ(reserved_purchases);
    EXPECT_REP_FIELD_EQ(spot_revocations);
    EXPECT_REP_FIELD_EQ(revocation_kills);
    EXPECT_REP_FIELD_EQ(lost_to_revocations);
    EXPECT_REP_FIELD_EQ(spot_price_mean);
    EXPECT_REP_FIELD_EQ(spot_price_max);
    EXPECT_REP_FIELD_EQ(simulated_events);
  }
#undef EXPECT_REP_FIELD_EQ
  // Spot must actually have been exercised for the market block to bite.
  EXPECT_GT(sequential[0].spot_purchases, 0u);
}

TEST(Runner, AdaptiveParallelReplicationsMatchSequential) {
  // Same guarantee for the adaptive policy, whose monitor/analyzer/modeler
  // loop exercises far more per-replication state than a static pool.
  const ScenarioConfig config = scientific_scenario(1.0);
  const auto sequential = run_replications(config, PolicySpec::adaptive(), 3,
                                           11, {}, /*parallelism=*/1);
  const auto parallel = run_replications(config, PolicySpec::adaptive(), 3,
                                         11, {}, /*parallelism=*/3);
  ASSERT_EQ(sequential.size(), parallel.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_EQ(sequential[i].seed, parallel[i].seed);
    EXPECT_EQ(sequential[i].generated, parallel[i].generated);
    EXPECT_EQ(sequential[i].accepted, parallel[i].accepted);
    EXPECT_EQ(sequential[i].rejected, parallel[i].rejected);
    EXPECT_EQ(sequential[i].qos_violations, parallel[i].qos_violations);
    EXPECT_EQ(sequential[i].avg_response_time, parallel[i].avg_response_time);
    EXPECT_EQ(sequential[i].vm_hours, parallel[i].vm_hours);
    EXPECT_EQ(sequential[i].max_instances, parallel[i].max_instances);
    EXPECT_EQ(sequential[i].simulated_events, parallel[i].simulated_events);
  }
}

TEST(Runner, ReplicationSeedsMatchBatchExecution) {
  // replication_seeds() exposes the exact seed sequence run_replications
  // uses, so a single replication can be reproduced outside a batch.
  const ScenarioConfig config = scientific_scenario(1.0);
  const auto seeds = replication_seeds(3, 5);
  ASSERT_EQ(seeds.size(), 3u);
  const auto runs = run_replications(config, PolicySpec::fixed(30), 3, 5);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].seed, seeds[i]);
  }
  const RunOutput solo = run_scenario(config, PolicySpec::fixed(30), seeds[0]);
  EXPECT_EQ(solo.metrics.generated, runs[0].generated);
  EXPECT_EQ(solo.metrics.simulated_events, runs[0].simulated_events);
}

TEST(Runner, ProgressCallbackFires) {
  const ScenarioConfig config = scientific_scenario(1.0);
  int calls = 0;
  run_replications(config, PolicySpec::fixed(15), 2, 5,
                   [&](const RunMetrics&) { ++calls; });
  EXPECT_EQ(calls, 2);
}

TEST(Runner, WorkloadRateCurveCoversHorizon) {
  const ScenarioConfig config = scientific_scenario(1.0);
  const auto curve = workload_rate_curve(config, 3600.0, 2, 3);
  ASSERT_EQ(curve.size(), 24u);
  // Rates must be higher inside the peak window.
  EXPECT_GT(curve[12].value, 4.0 * curve[3].value);
}

TEST(Aggregate, ComputesCrossRunStatistics) {
  RunMetrics a;
  a.policy = "X";
  a.vm_hours = 100.0;
  a.rejection_rate = 0.1;
  RunMetrics b = a;
  b.vm_hours = 120.0;
  b.rejection_rate = 0.2;
  const AggregateMetrics agg = aggregate({a, b});
  EXPECT_EQ(agg.policy, "X");
  EXPECT_EQ(agg.replications, 2u);
  EXPECT_NEAR(agg.vm_hours.mean, 110.0, 1e-12);
  EXPECT_GT(agg.vm_hours.half_width, 0.0);
  EXPECT_NEAR(agg.rejection_rate.mean, 0.15, 1e-12);
  EXPECT_THROW(aggregate({}), std::invalid_argument);
}

TEST(Report, TextTableAlignsColumns) {
  TextTable table({"a", "long_header"});
  table.add_row({"value_longer_than_header", "x"});
  std::ostringstream out;
  table.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("a"), std::string::npos);
  EXPECT_NE(text.find("value_longer_than_header"), std::string::npos);
  EXPECT_NE(text.find("----"), std::string::npos);
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

TEST(Report, FormatHelpers) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(2.0, 0), "2");
  ConfidenceInterval ci;
  ci.mean = 1.5;
  ci.half_width = 0.25;
  EXPECT_EQ(fmt_ci(ci, 2), "1.50 +- 0.25");
}

TEST(Report, PolicyCsvRoundTripsThroughReader) {
  RunMetrics run;
  run.policy = "Adaptive";
  run.vm_hours = 10.0;
  const AggregateMetrics agg = aggregate({run});
  std::ostringstream out;
  write_policy_csv(out, {agg});
  std::istringstream in(out.str());
  CsvReader reader(in);
  const auto header = reader.next_row();
  ASSERT_TRUE(header.has_value());
  EXPECT_EQ((*header)[0], "policy");
  const auto row = reader.next_row();
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ((*row)[0], "Adaptive");
  EXPECT_EQ(std::stod((*row)[8]), 10.0);
}

TEST(Report, PrintClaim) {
  std::ostringstream out;
  print_claim(out, "test claim", 0.26, 0.24);
  EXPECT_EQ(out.str(), "  [claim] test claim: paper=0.26 measured=0.24\n");
}

// One row per metric of the chosen groups, one column per run.
TEST(Report, MetricTablePrintsChosenGroups) {
  RunMetrics a;
  a.policy = "A";
  a.capacity_clips = 3;
  RunMetrics b;
  b.policy = "B";
  b.capacity_denied = 7;
  std::ostringstream out;
  print_metric_table(out, {a, b}, {MetricGroup::kTenancy});
  EXPECT_EQ(out.str(),
            "metric           A  B  \n"
            "-----------------------\n"
            "capacity_clips   3  0  \n"
            "capacity_denied  0  7  \n");

  // Replications of one policy: each shared label gains the run's index.
  b.policy = "A";
  RunMetrics c;
  c.policy = "C";
  out.str("");
  print_metric_table(out, {a, b, c}, {MetricGroup::kTenancy});
  EXPECT_EQ(out.str(),
            "metric           A #0  A #1  C  \n"
            "--------------------------------\n"
            "capacity_clips   3     0     0  \n"
            "capacity_denied  0     7     0  \n");
}

// The run CSV's header is `policy` plus each schema name once, in visit
// order, and every cell parses back to the visited value bit for bit.
TEST(RunCsv, RowsRoundTripEveryMetric) {
  ScenarioConfig layered = layered_web_config(0.01);
  layered.set_horizon(4.0 * 3600.0);
  ScenarioConfig tiered = zipf_scenario(0.02);
  tiered.set_horizon(2.0 * 3600.0);
  tiered.apptier.enabled = true;
  const std::vector<RunMetrics> runs{
      run_scenario(layered, PolicySpec::adaptive(), 42,
                   layered_web_telemetry(layered, 42))
          .metrics,
      run_scenario(tiered, PolicySpec::adaptive(), 42).metrics};
  std::ostringstream out;
  write_runs_csv(out, runs);

  std::vector<std::string> header{"policy"};
  for_each_metric(RunMetrics{}, [&](const char* name, const auto&,
                                    MetricDirection, MetricGroup) {
    header.emplace_back(name);
  });
  std::istringstream in(out.str());
  CsvReader reader(in);
  EXPECT_EQ(reader.next_row(), header);
  for (const RunMetrics& run : runs) {
    const auto row = reader.next_row();
    ASSERT_TRUE(row.has_value());
    ASSERT_EQ(row->size(), header.size());
    EXPECT_EQ(row->front(), run.policy);
    std::size_t column = 1;
    for_each_metric(run, [&](const char* name, const auto& value,
                             MetricDirection, MetricGroup) {
      const std::string& cell = (*row)[column++];
      std::remove_cvref_t<decltype(value)> parsed{};
      const auto [end, error] =
          std::from_chars(cell.data(), cell.data() + cell.size(), parsed);
      EXPECT_EQ(error, std::errc{}) << name << " = " << cell;
      EXPECT_EQ(end, cell.data() + cell.size()) << name << " = " << cell;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(parsed),
                std::bit_cast<std::uint64_t>(value))
          << name << " = " << cell;
    });
  }
  EXPECT_FALSE(reader.next_row().has_value());
}

}  // namespace
}  // namespace cloudprov
