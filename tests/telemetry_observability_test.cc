// Observability monitors: span tracer, model-drift observatory, SLO
// burn-rate alerting, and their exporters.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "experiment/runner.h"
#include "layered_web.h"
#include "telemetry/drift_monitor.h"
#include "telemetry/export.h"
#include "telemetry/slo_monitor.h"
#include "telemetry/span_tracer.h"
#include "telemetry/telemetry.h"
#include "util/csv.h"

namespace cloudprov {
namespace {

// ---------------------------------------------------------------------------
// Span tracer.

TEST(SpanTracer, SamplingIsDeterministicAndRateShaped) {
  SpanTracer::Options options;
  options.sample_rate = 0.1;
  options.seed = 99;
  const SpanTracer a(options);
  const SpanTracer b(options);
  std::size_t sampled = 0;
  for (std::uint64_t id = 0; id < 10000; ++id) {
    EXPECT_EQ(a.sampled(id), b.sampled(id));  // pure function of (id, seed)
    if (a.sampled(id)) ++sampled;
  }
  // The hash is uniform; 10% +- a loose tolerance over 10k ids.
  EXPECT_GT(sampled, 800u);
  EXPECT_LT(sampled, 1200u);

  options.sample_rate = 0.0;
  EXPECT_FALSE(SpanTracer(options).sampled(1));
  options.sample_rate = 1.0;
  EXPECT_TRUE(SpanTracer(options).sampled(1));
}

TEST(SpanTracer, LifecycleOutcomesAndEviction) {
  SpanTracer::Options options;
  options.sample_rate = 1.0;
  options.capacity = 2;
  SpanTracer tracer(options);

  // Completed: arrival -> admit -> service start -> complete.
  tracer.on_arrival(1.0, 1);
  tracer.on_admit(1.0, 1, 7);
  tracer.on_service_start(1.5, 1, 7);
  tracer.on_complete(2.0, 1, /*qos_violation=*/true);
  // Rejected at admission: never admitted, no VM.
  tracer.on_arrival(1.1, 2);
  tracer.on_reject(1.1, 2);
  // Lost while queued: admitted but the instance died before service.
  tracer.on_arrival(1.2, 3);
  tracer.on_admit(1.2, 3, 9);
  tracer.on_lost(1.8, 3);

  EXPECT_EQ(tracer.traced(), 3u);
  EXPECT_EQ(tracer.in_flight(), 0u);
  EXPECT_EQ(tracer.dropped(), 1u);  // capacity 2: the completed trace evicted
  ASSERT_EQ(tracer.finished().size(), 2u);

  const SpanTracer::RequestTrace& rejected = tracer.finished()[0];
  EXPECT_EQ(rejected.trace_id, 2u);
  EXPECT_EQ(rejected.outcome, SpanTracer::Outcome::kRejected);
  EXPECT_EQ(rejected.vm_id, 0u);
  EXPECT_DOUBLE_EQ(rejected.finish, 1.1);

  const SpanTracer::RequestTrace& lost = tracer.finished()[1];
  EXPECT_EQ(lost.trace_id, 3u);
  EXPECT_EQ(lost.outcome, SpanTracer::Outcome::kLost);
  EXPECT_EQ(lost.vm_id, 9u);
  EXPECT_DOUBLE_EQ(lost.service_start, 0.0);  // never reached service
}

TEST(SpanTracer, SpanCsvListsDerivedChildSpans) {
  SpanTracer::Options options;
  options.sample_rate = 1.0;
  SpanTracer tracer(options);
  tracer.on_arrival(1.0, 1);
  tracer.on_admit(1.0, 1, 7);
  tracer.on_service_start(1.5, 1, 7);
  tracer.on_complete(2.0, 1, false);

  std::ostringstream out;
  write_span_csv(out, tracer);
  std::istringstream in(out.str());
  CsvReader reader(in);
  const auto header = reader.next_row();
  ASSERT_TRUE(header.has_value());
  EXPECT_EQ((*header)[0], "trace_id");
  std::vector<std::vector<std::string>> rows;
  while (const auto row = reader.next_row()) rows.push_back(*row);
  // admission + queue_wait + service for the one completed trace.
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][1], "admission");
  EXPECT_EQ(rows[1][1], "queue_wait");
  EXPECT_EQ(std::stod(rows[1][4]), 0.5);  // 1.0 -> 1.5
  EXPECT_EQ(rows[2][1], "service");
  EXPECT_EQ(std::stod(rows[2][4]), 0.5);  // 1.5 -> 2.0
  EXPECT_EQ(rows[2][6], "completed");
}

// Acceptance criterion: with sampling on, the same seed produces the same
// span CSV byte for byte.
TEST(SpanTracer, SameSeedSameSpanCsvInWebScenario) {
  ScenarioConfig config = web_scenario(0.001);
  config.horizon = 4.0 * 3600.0;
  config.web.horizon = config.horizon;
  TelemetryOptions opts;
  opts.trace_capacity = 1 << 12;
  opts.span_sample_rate = 0.1;
  opts.span_seed = 17;

  std::string csv[2];
  for (std::string& text : csv) {
    const RunOutput output =
        run_scenario(config, PolicySpec::adaptive(), 1234, opts);
    ASSERT_NE(output.telemetry, nullptr);
    ASSERT_NE(output.telemetry->spans(), nullptr);
    std::ostringstream out;
    write_span_csv(out, *output.telemetry->spans());
    text = out.str();
  }
  EXPECT_FALSE(csv[0].empty());
  EXPECT_GT(csv[0].size(), csv[0].find('\n') + 1)
      << "span CSV has no data rows";
  EXPECT_EQ(csv[0], csv[1]);
}

// ---------------------------------------------------------------------------
// Snapshot::diff member (windowed view used by the monitors).

TEST(MetricsRegistry, SnapshotDiffMember) {
  MetricsRegistry registry;
  registry.counter("a").add(3);
  registry.histogram("h", {1.0}).observe(0.5);
  const auto base = registry.snapshot();
  registry.counter("a").add(4);
  registry.histogram("h", {1.0}).observe(0.25);
  const auto delta = registry.snapshot().diff(base);
  EXPECT_EQ(delta.counters[0].value, 4u);
  EXPECT_EQ(delta.histograms[0].count, 1u);
  EXPECT_DOUBLE_EQ(delta.histograms[0].sum, 0.25);
}

// ---------------------------------------------------------------------------
// Drift monitor.

// Acceptance criterion: windowed MAPE/bias/coverage match a hand-computed
// three-window example.
TEST(DriftMonitor, ThreeWindowHandComputedErrorStats) {
  MetricsRegistry registry;
  TraceBuffer trace(256);
  Counter& arrived = registry.counter("requests_arrived");
  Counter& completed = registry.counter("requests_completed");
  Counter& rejected = registry.counter("requests_rejected");
  Histogram& response = registry.histogram("response_time_seconds", {10.0});

  DriftMonitor::Config config;
  config.qos_max_response_time = 0.25;
  DriftMonitor drift(registry, trace, config);

  auto predict = [](double ts, double rej, double util) {
    DriftMonitor::Prediction p;
    p.response_time = ts;
    p.rejection = rej;
    p.utilization = util;
    return p;
  };

  // Window 1 [0,100): predicted 0.2, observed mean 0.1 -> error +0.1.
  drift.on_decision(0.0, predict(0.2, 0.0, 0.5), 0.0, 0.0);
  arrived.add(2);
  completed.add(1);
  response.observe(0.1);
  // Window 2 [100,200): predicted 0.3, observed mean 0.2 -> error +0.1.
  drift.on_decision(100.0, predict(0.3, 0.2, 0.5), 1.0, 0.5);
  arrived.add(4);
  rejected.add(1);
  completed.add(2);
  response.observe(0.1);
  response.observe(0.3);
  // Window 3 [200,300): predicted 0.1, observed mean 0.4 -> error -0.3,
  // and 0.4 > Ts = 0.25 breaks the k-bound guarantee for this window.
  drift.on_decision(200.0, predict(0.1, 0.5, 0.5), 2.0, 1.5);
  arrived.add(2);
  rejected.add(1);
  completed.add(1);
  response.observe(0.4);
  drift.finalize(300.0, 3.0, 2.0);

  ASSERT_EQ(drift.windows().size(), 3u);
  EXPECT_EQ(drift.closed_windows(), 3u);
  const DriftMonitor::WindowRecord& w1 = drift.windows()[0];
  EXPECT_DOUBLE_EQ(w1.observed_response_time, 0.1);
  EXPECT_NEAR(w1.response_error, 0.1, 1e-12);
  EXPECT_TRUE(w1.within_bound);
  EXPECT_EQ(w1.arrivals, 2u);
  const DriftMonitor::WindowRecord& w2 = drift.windows()[1];
  EXPECT_DOUBLE_EQ(w2.observed_rejection, 0.25);  // 1 of 4 arrivals
  EXPECT_NEAR(w2.rejection_error, -0.05, 1e-12);
  EXPECT_DOUBLE_EQ(w2.observed_utilization, 1.0);  // (1.5-0.5)/(2-1)
  const DriftMonitor::WindowRecord& w3 = drift.windows()[2];
  EXPECT_FALSE(w3.within_bound);

  // MAPE = 100 * mean(0.1/0.1, 0.1/0.2, 0.3/0.4) = 75%.
  const DriftMonitor::ErrorStats stats = drift.response_error();
  EXPECT_EQ(stats.windows, 3u);
  EXPECT_NEAR(stats.mape, 75.0, 1e-9);
  // Bias = (0.1 + 0.1 - 0.3) / 3.
  EXPECT_NEAR(stats.bias, -0.1 / 3.0, 1e-12);
  // Coverage: 2 of 3 windows stayed within Ts.
  EXPECT_NEAR(stats.coverage, 2.0 / 3.0, 1e-12);

  // One drift counter-lane sample per metric per closed window.
  std::size_t drift_events = 0;
  for (const auto& event : trace.events()) {
    if (std::string(event.category) == "drift") {
      EXPECT_EQ(event.track, kTrackDrift);
      ++drift_events;
    }
  }
  EXPECT_EQ(drift_events, 9u);
}

TEST(DriftMonitor, DriftCsvFromWebSmokeIsNonEmptyAndParseable) {
  ScenarioConfig config = web_scenario(0.001);
  config.horizon = 4.0 * 3600.0;
  config.web.horizon = config.horizon;
  TelemetryOptions opts;
  opts.trace_capacity = 1 << 12;
  opts.drift_enabled = true;
  opts.drift.qos_max_response_time = config.qos.max_response_time;
  const RunOutput output =
      run_scenario(config, PolicySpec::adaptive(), 5, opts);
  ASSERT_NE(output.telemetry, nullptr);
  ASSERT_NE(output.telemetry->drift(), nullptr);
  EXPECT_GT(output.metrics.drift_windows, 0u);

  std::ostringstream out;
  write_drift_csv(out, *output.telemetry->drift());
  std::istringstream in(out.str());
  CsvReader reader(in);
  const auto header = reader.next_row();
  ASSERT_TRUE(header.has_value());
  ASSERT_EQ(header->size(), 19u);
  std::size_t rows = 0;
  while (const auto row = reader.next_row()) {
    ASSERT_EQ(row->size(), header->size());
    EXPECT_LT(std::stod((*row)[0]), std::stod((*row)[1]));  // start < end
    ++rows;
  }
  EXPECT_EQ(rows, output.telemetry->drift()->windows().size());
  EXPECT_GT(rows, 0u);
}

// Model-agreement bound for the Figure 5 web day: the M/M/1/k response time
// Algorithm 1 predicts per window must stay within a band of the observed
// one. It read 16.99% (seed 42) and 16.94% (seed 7) when pinned, with the
// model over-predicting by about 20 ms (bias > 0), so a modeler regression
// either way fails here.
TEST(DriftMonitor, Fig5ResponseMapeIsBounded) {
  ScenarioConfig config = web_scenario(0.01);
  config.horizon = 86400.0;
  config.web.horizon = config.horizon;
  TelemetryOptions opts;
  opts.trace_requests = false;
  opts.drift_enabled = true;
  opts.drift.qos_max_response_time = config.qos.max_response_time;
  for (const std::uint64_t seed : {42u, 7u}) {
    const RunMetrics m =
        run_scenario(config, PolicySpec::adaptive(), seed, opts).metrics;
    EXPECT_EQ(m.drift_windows, 1440u) << "seed " << seed;
    EXPECT_GE(m.drift_response_mape, 12.0) << "seed " << seed;
    EXPECT_LE(m.drift_response_mape, 22.0) << "seed " << seed;
    EXPECT_GT(m.drift_response_bias, 0.0) << "seed " << seed;
  }
}

// The same bound with every optional layer of the web_layers benchmark on
// (active retry gateway with budget and breaker, spot market, VM faults and
// the reconciler; tests/layered_web.h): retries, revocations and crashes
// must not pull the model's per-window prediction away from the observed
// response time. It read 15.48% (seed 42) and 15.21% (seed 7) when pinned,
// with bias +18.3 ms and +18.0 ms, against 16.99% for the bare day.
TEST(DriftMonitor, LayeredWebResponseMapeIsBounded) {
  const ScenarioConfig config = layered_web_config(0.01);
  TelemetryOptions opts;
  opts.trace_requests = false;
  opts.drift_enabled = true;
  opts.drift.qos_max_response_time = config.qos.max_response_time;
  for (const std::uint64_t seed : {42u, 7u}) {
    const RunMetrics m =
        run_scenario(config, PolicySpec::adaptive(), seed, opts).metrics;
    EXPECT_EQ(m.drift_windows, 1440u) << "seed " << seed;
    EXPECT_GE(m.drift_response_mape, 11.0) << "seed " << seed;
    EXPECT_LE(m.drift_response_mape, 20.0) << "seed " << seed;
    EXPECT_GT(m.drift_response_bias, 0.0) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// SLO burn-rate monitor.

SloMonitor::Config one_rule_config() {
  SloMonitor::Config config;
  config.response_budget = 0.05;
  config.rejection_budget = 0.01;
  config.windows = {{300.0, 3600.0, 14.4}};
  config.eval_interval = 60.0;
  config.log_alerts = false;
  return config;
}

TEST(SloMonitor, NoAlertWithoutAFullWindowOfEvidence) {
  MetricsRegistry registry;
  TraceBuffer trace(64);
  Counter& completed = registry.counter("requests_completed");
  Counter& violations = registry.counter("qos_violations");
  SloMonitor slo(registry, trace, one_rule_config());

  slo.evaluate(0.0);
  completed.add(10);
  violations.add(10);  // 100% bad, but the short window has no base yet
  slo.evaluate(100.0);
  EXPECT_EQ(slo.response_alerts(), 0u);
  EXPECT_TRUE(slo.alerts().empty());
}

TEST(SloMonitor, RaisesOnceAndClearsOnRecovery) {
  MetricsRegistry registry;
  TraceBuffer trace(64);
  Counter& completed = registry.counter("requests_completed");
  Counter& violations = registry.counter("qos_violations");
  SloMonitor slo(registry, trace, one_rule_config());

  slo.evaluate(0.0);
  // 90% of completions violate Ts over [0, 3600]: burn = 0.9/0.05 = 18x on
  // both the 5-min and 1-h windows -> raise.
  completed.add(100);
  violations.add(90);
  slo.evaluate(3600.0);
  ASSERT_EQ(slo.alerts().size(), 1u);
  EXPECT_TRUE(slo.alerts()[0].raised);
  EXPECT_EQ(slo.alerts()[0].objective, SloMonitor::Objective::kResponse);
  EXPECT_NEAR(slo.alerts()[0].burn_short, 18.0, 1e-9);
  EXPECT_EQ(slo.response_alerts(), 1u);
  EXPECT_NEAR(slo.worst_burn_rate(), 18.0, 1e-9);

  // Sustained incident: still burning at the next evaluation, but the alert
  // edge fired once.
  completed.add(10);
  violations.add(9);
  slo.evaluate(3660.0);
  EXPECT_EQ(slo.alerts().size(), 1u);
  EXPECT_EQ(slo.response_alerts(), 1u);

  // Recovery: a clean 5-min window drops the short burn under threshold.
  completed.add(100);
  slo.evaluate(3990.0);
  ASSERT_EQ(slo.alerts().size(), 2u);
  EXPECT_FALSE(slo.alerts()[1].raised);
  EXPECT_EQ(slo.response_alerts(), 1u);  // clears are not counted as alerts

  // One instant per edge on the SLO lane.
  std::size_t edges = 0;
  for (const auto& event : trace.events()) {
    if (std::string(event.category) == "slo") {
      EXPECT_EQ(event.track, kTrackSlo);
      ++edges;
    }
  }
  EXPECT_EQ(edges, 2u);
}

TEST(SloMonitor, RejectionObjectiveUsesArrivalsAndItsOwnBudget) {
  MetricsRegistry registry;
  TraceBuffer trace(64);
  Counter& arrived = registry.counter("requests_arrived");
  Counter& rejected = registry.counter("requests_rejected");
  SloMonitor slo(registry, trace, one_rule_config());

  slo.evaluate(0.0);
  // 20% rejections against a 1% budget: burn 20x -> raise.
  arrived.add(1000);
  rejected.add(200);
  slo.evaluate(3600.0);
  EXPECT_EQ(slo.rejection_alerts(), 1u);
  EXPECT_EQ(slo.response_alerts(), 0u);
}

TEST(SloMonitor, SloCsvRoundTripsThroughReader) {
  MetricsRegistry registry;
  TraceBuffer trace(64);
  registry.counter("requests_completed").add(10);
  SloMonitor slo(registry, trace, one_rule_config());
  slo.evaluate(0.0);
  slo.evaluate(60.0);

  std::ostringstream out;
  write_slo_csv(out, slo);
  std::istringstream in(out.str());
  CsvReader reader(in);
  const auto header = reader.next_row();
  ASSERT_TRUE(header.has_value());
  ASSERT_EQ(header->size(), 9u);
  std::size_t rows = 0;
  while (const auto row = reader.next_row()) {
    ASSERT_EQ(row->size(), 9u);
    EXPECT_TRUE((*row)[1] == "response_time" || (*row)[1] == "rejection");
    ++rows;
  }
  // 2 evaluations x 1 rule x 2 objectives.
  EXPECT_EQ(rows, 4u);
}

TEST(SloMonitor, RejectsInvalidConfig) {
  MetricsRegistry registry;
  TraceBuffer trace(64);
  SloMonitor::Config bad = one_rule_config();
  bad.response_budget = 0.0;
  EXPECT_THROW(SloMonitor(registry, trace, bad), std::invalid_argument);
  bad = one_rule_config();
  bad.windows.clear();
  EXPECT_THROW(SloMonitor(registry, trace, bad), std::invalid_argument);
  bad = one_rule_config();
  bad.windows[0].long_window = 10.0;  // shorter than the short window
  EXPECT_THROW(SloMonitor(registry, trace, bad), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Prometheus text exporter.

TEST(Export, PrometheusTextFollowsExpositionConventions) {
  MetricsRegistry registry;
  registry.counter("hits").add(42);
  registry.gauge("depth").set(2.5);
  Histogram& h = registry.histogram("latency_seconds", {0.1, 1.0});
  h.observe(0.05);
  h.observe(0.5);
  h.observe(5.0);

  std::ostringstream out;
  write_prometheus_text(out, registry.snapshot());
  const std::string text = out.str();

  EXPECT_NE(text.find("# TYPE cloudprov_hits_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("# HELP cloudprov_hits_total"), std::string::npos);
  EXPECT_NE(text.find("cloudprov_hits_total 42\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE cloudprov_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("cloudprov_depth 2.5\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE cloudprov_latency_seconds histogram"),
            std::string::npos);
  // Cumulative buckets: 1 obs <= 0.1, 2 obs <= 1.0, 3 in +Inf.
  EXPECT_NE(text.find("cloudprov_latency_seconds_bucket{le=\"0.1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("cloudprov_latency_seconds_bucket{le=\"1\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("cloudprov_latency_seconds_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("cloudprov_latency_seconds_count 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("cloudprov_latency_seconds_sum "), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end: monitors populate RunMetrics.

TEST(Observability, RunMetricsCarryMonitorOutputs) {
  ScenarioConfig config = web_scenario(0.001);
  config.horizon = 4.0 * 3600.0;
  config.web.horizon = config.horizon;
  TelemetryOptions opts;
  opts.span_sample_rate = 0.5;
  opts.drift_enabled = true;
  opts.drift.qos_max_response_time = config.qos.max_response_time;
  opts.slo_enabled = true;
  opts.slo.log_alerts = false;
  const RunOutput output =
      run_scenario(config, PolicySpec::adaptive(), 11, opts);
  EXPECT_GT(output.metrics.spans_traced, 0u);
  EXPECT_GT(output.metrics.drift_windows, 0u);
  EXPECT_GT(output.metrics.drift_response_mape, 0.0);
  EXPECT_GE(output.metrics.slo_worst_burn_rate, 0.0);
  // A healthy small web run should not page.
  EXPECT_EQ(output.metrics.slo_response_alerts, 0u);
}

}  // namespace
}  // namespace cloudprov
