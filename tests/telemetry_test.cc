#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <initializer_list>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "experiment/runner.h"
#include "metrics_equality.h"
#include "sim/simulation.h"
#include "telemetry/export.h"
#include "telemetry/metrics_registry.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace_buffer.h"
#include "util/csv.h"

namespace cloudprov {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON parser, used to round-trip-validate the Chrome trace export.
// Supports the full value grammar the exporter can emit (objects, arrays,
// strings with escapes, numbers, booleans, null).
struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Json> array;
  std::map<std::string, Json> object;

  bool has(const std::string& key) const { return object.count(key) > 0; }
  const Json& at(const std::string& key) const { return object.at(key); }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Json parse() {
    Json value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& why) {
    throw std::runtime_error("JSON error at offset " + std::to_string(pos_) +
                             ": " + why);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* literal) {
    const std::size_t n = std::char_traits<char>::length(literal);
    if (text_.compare(pos_, n, literal) != 0) return false;
    pos_ += n;
    return true;
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') {
      Json value;
      value.type = Json::Type::kString;
      value.str = parse_string();
      return value;
    }
    if (consume_literal("true")) {
      Json value;
      value.type = Json::Type::kBool;
      value.boolean = true;
      return value;
    }
    if (consume_literal("false")) {
      Json value;
      value.type = Json::Type::kBool;
      return value;
    }
    if (consume_literal("null")) return Json{};
    return parse_number();
  }

  Json parse_object() {
    Json value;
    value.type = Json::Type::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return value;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      value.object.emplace(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return value;
    }
  }

  Json parse_array() {
    Json value;
    value.type = Json::Type::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return value;
    }
    for (;;) {
      value.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return value;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("bad escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("bad \\u escape");
          out += text_.substr(pos_, 4);  // keep raw hex; fidelity not needed
          pos_ += 4;
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected value");
    Json value;
    value.type = Json::Type::kNumber;
    value.number = std::stod(text_.substr(start, pos_ - start));
    return value;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Metrics registry.

TEST(MetricsRegistry, CounterAndGaugeSemantics) {
  MetricsRegistry registry;
  Counter& c = registry.counter("hits");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  // Re-requesting the same name yields the same instrument.
  EXPECT_EQ(&registry.counter("hits"), &c);
  EXPECT_EQ(registry.counter("hits").value(), 42u);

  Gauge& g = registry.gauge("depth");
  g.set(3.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  EXPECT_EQ(&registry.gauge("depth"), &g);
}

TEST(MetricsRegistry, KindMismatchThrows) {
  MetricsRegistry registry;
  registry.counter("x");
  EXPECT_THROW(registry.gauge("x"), std::invalid_argument);
  EXPECT_THROW(registry.histogram("x", {1.0}), std::invalid_argument);
}

TEST(MetricsRegistry, HistogramBucketSemantics) {
  Histogram h({1.0, 2.0, 5.0});
  h.observe(0.5);   // <= 1.0
  h.observe(1.0);   // <= 1.0 (upper bound inclusive)
  h.observe(1.5);   // <= 2.0
  h.observe(7.0);   // overflow
  ASSERT_EQ(h.bucket_counts().size(), 4u);
  EXPECT_EQ(h.bucket_counts()[0], 2u);
  EXPECT_EQ(h.bucket_counts()[1], 1u);
  EXPECT_EQ(h.bucket_counts()[2], 0u);
  EXPECT_EQ(h.bucket_counts()[3], 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 10.0);
  EXPECT_DOUBLE_EQ(h.mean(), 2.5);

  EXPECT_THROW(Histogram({}), std::invalid_argument);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
}

TEST(MetricsRegistry, DecadeBounds) {
  const std::vector<double> bounds = decade_bounds(1e-3, 1e3);
  ASSERT_FALSE(bounds.empty());
  EXPECT_DOUBLE_EQ(bounds.front(), 1e-3);
  EXPECT_DOUBLE_EQ(bounds.back(), 1e3);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
  // 7 decades x {1,2,5} minus the two trailing steps past 1e3.
  EXPECT_EQ(bounds.size(), 19u);
}

TEST(MetricsRegistry, SnapshotAndDelta) {
  MetricsRegistry registry;
  registry.counter("a").add(10);
  registry.counter("b").add(1);
  registry.gauge("g").set(7.0);
  registry.histogram("h", {1.0}).observe(0.5);

  const auto first = registry.snapshot();
  ASSERT_EQ(first.counters.size(), 2u);
  EXPECT_EQ(first.counters[0].name, "a");  // registration order
  EXPECT_EQ(first.counters[0].value, 10u);
  ASSERT_EQ(first.histograms.size(), 1u);
  EXPECT_EQ(first.histograms[0].count, 1u);

  registry.counter("a").add(5);
  registry.gauge("g").set(9.0);
  registry.histogram("h", {1.0}).observe(2.0);
  const auto delta = snapshot_delta(registry.snapshot(), first);
  EXPECT_EQ(delta.counters[0].value, 5u);   // windowed counter
  EXPECT_EQ(delta.counters[1].value, 0u);
  EXPECT_DOUBLE_EQ(delta.gauges[0].value, 9.0);  // gauges keep latest
  EXPECT_EQ(delta.histograms[0].count, 1u);
  EXPECT_EQ(delta.histograms[0].bucket_counts[1], 1u);  // the overflow obs
}

// ---------------------------------------------------------------------------
// Trace ring buffer.

TEST(TraceBuffer, OverflowSetsDropCounterAndKeepsNewest) {
  TraceBuffer buffer(4);
  for (int i = 1; i <= 6; ++i) {
    TraceEvent event;
    event.name = "e";
    event.time = static_cast<SimTime>(i);
    buffer.record(event);
  }
  EXPECT_EQ(buffer.capacity(), 4u);
  EXPECT_EQ(buffer.size(), 4u);
  EXPECT_EQ(buffer.recorded(), 6u);
  EXPECT_EQ(buffer.dropped(), 2u);
  const auto events = buffer.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_DOUBLE_EQ(events.front().time, 3.0);  // oldest retained
  EXPECT_DOUBLE_EQ(events.back().time, 6.0);   // newest

  buffer.clear();
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_EQ(buffer.dropped(), 0u);
  EXPECT_THROW(TraceBuffer(0), std::invalid_argument);
}

TEST(TraceBuffer, ArgListIsBounded) {
  TraceEvent event;
  for (int i = 0; i < 10; ++i) event.arg("k", static_cast<double>(i));
  EXPECT_EQ(event.arg_count, kMaxTraceArgs);
  EXPECT_DOUBLE_EQ(event.args[kMaxTraceArgs - 1].value,
                   static_cast<double>(kMaxTraceArgs - 1));
}

// ---------------------------------------------------------------------------
// Telemetry facade.

/// A trace ring of `capacity` events; every monitor off.
TelemetryOptions ring_options(std::size_t capacity, bool trace_requests) {
  TelemetryOptions options;
  options.trace_capacity = capacity;
  options.trace_requests = trace_requests;
  return options;
}

TEST(Telemetry, RequestLifecycleFeedsMetricsAndTrace) {
  Telemetry telemetry(ring_options(1024, /*trace_requests=*/true));
  telemetry.request_arrival(1.0, 1);
  telemetry.request_admitted(1.0, 1, 7);
  telemetry.request_arrival(1.1, 2);
  telemetry.request_rejected(1.1, 2);
  telemetry.request_completed(1.4, 1, /*response_time=*/0.4,
                              /*service_time=*/0.3, /*qos_violation=*/true);

  const auto snap = telemetry.metrics().snapshot();
  auto counter = [&](const std::string& name) -> std::uint64_t {
    for (const auto& view : snap.counters) {
      if (view.name == name) return view.value;
    }
    ADD_FAILURE() << "missing counter " << name;
    return 0;
  };
  EXPECT_EQ(counter("requests_arrived"), 2u);
  EXPECT_EQ(counter("requests_admitted"), 1u);
  EXPECT_EQ(counter("requests_rejected"), 1u);
  EXPECT_EQ(counter("requests_completed"), 1u);
  EXPECT_EQ(counter("qos_violations"), 1u);

  // arrival+admit, arrival+reject, request span + service span.
  EXPECT_EQ(telemetry.trace().size(), 6u);
  const auto events = telemetry.trace().events();
  const auto& span = events[4];
  EXPECT_STREQ(span.name, "request");
  EXPECT_EQ(span.phase, TracePhase::kComplete);
  EXPECT_DOUBLE_EQ(span.time, 1.0);       // arrival = finish - response
  EXPECT_DOUBLE_EQ(span.duration, 0.4);
}

/// Picks at or above this one call the non-request hooks.
constexpr std::uint64_t kFirstGeneralPick = 10;

/// Trace events one collector records during a feed_hooks() call, and how
/// many of them come from the non-request hooks.
struct FedEvents {
  std::uint64_t all = 0;
  std::uint64_t general = 0;
};

/// Drives `count` seeded hook calls into every collector in `sinks`: each
/// per-request hook plus general events with five args (scaling_decision),
/// dynamic names (vm_failed, request_shed) and counter lanes. With
/// `general_only` every call is a general event.
FedEvents feed_hooks(std::mt19937_64& rng, SimTime& now, int count,
                     std::initializer_list<Telemetry*> sinks,
                     bool general_only = false) {
  const auto unit = [&rng] {
    return static_cast<double>(rng() >> 11) * 0x1p-53;
  };
  const std::uint64_t first = general_only ? kFirstGeneralPick : 0;
  FedEvents fed;
  for (int i = 0; i < count; ++i) {
    now += unit();
    const SimTime t = now;
    const std::uint64_t id = rng() % 100000 + 1;
    const std::uint64_t pick = first + rng() % (16 - first);
    const double a = unit();
    const double b = unit();
    const std::size_t n = static_cast<std::size_t>(rng() % 7);
    for (Telemetry* sink : sinks) {
      switch (pick) {
        case 0: sink->request_arrival(t, id); break;
        case 1: sink->request_admitted(t, id, n); break;
        case 2: sink->request_rejected(t, id); break;
        case 3: sink->request_completed(t, id, a, a * b, n % 2 == 0); break;
        case 4: sink->retry_scheduled(t, id, n + 1, b); break;
        case 5: sink->retry_budget_exhausted(t, id); break;
        case 6: sink->client_timeout(t, id); break;
        case 7: sink->breaker_fast_fail(t, id); break;
        case 8: sink->cache_lookup(t, id, n % 2 == 0); break;
        case 9: sink->cache_fill(t, id); break;
        case 10: sink->scaling_decision(t, a * 50.0, b, n + 1, n, n); break;
        case 11:
          sink->vm_failed(t, id, n, n % 2 == 0 ? "vm_crash" : "host_crash");
          break;
        case 12:
          sink->request_shed(t, id, n % 2 == 0 ? "deadline" : "brownout");
          break;
        case 13: sink->instance_count(t, n, n / 2); break;
        case 14: sink->engine_sample(t, id, n); break;
        default: sink->vm_created(t, id); break;
      }
    }
    fed.all += pick == 3 ? 2 : 1;
    fed.general += pick >= kFirstGeneralPick ? 1 : 0;
  }
  return fed;
}

/// Field-by-field equality: strings by content, doubles by bits.
void expect_same_events(const std::vector<TraceEvent>& actual,
                        const std::vector<TraceEvent>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  const auto bits = [](double value) {
    return std::bit_cast<std::uint64_t>(value);
  };
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const TraceEvent& x = actual[i];
    const TraceEvent& y = expected[i];
    SCOPED_TRACE("event " + std::to_string(i) + " (" + y.name + ")");
    EXPECT_STREQ(x.name, y.name);
    EXPECT_STREQ(x.category, y.category);
    EXPECT_EQ(x.phase, y.phase);
    EXPECT_EQ(x.track, y.track);
    EXPECT_EQ(bits(x.time), bits(y.time));
    EXPECT_EQ(bits(x.duration), bits(y.duration));
    EXPECT_EQ(x.id, y.id);
    ASSERT_EQ(x.arg_count, y.arg_count);
    for (std::uint8_t k = 0; k < x.arg_count; ++k) {
      EXPECT_STREQ(x.args[k].key, y.args[k].key);
      EXPECT_EQ(bits(x.args[k].value), bits(y.args[k].value));
    }
  }
}

TEST(Telemetry, WrappedRingAndCloneKeepTheNewestEvents) {
  constexpr std::size_t kSmall = 64;
  Telemetry small(ring_options(kSmall, /*trace_requests=*/true));
  Telemetry large(ring_options(1 << 16, /*trace_requests=*/true));
  std::mt19937_64 rng(20261018);
  SimTime now = 0.0;
  const FedEvents fed = feed_hooks(rng, now, 2000, {&small, &large});
  // The mix wraps the small ring, and its general events alone, many times.
  ASSERT_GT(fed.general, 4 * kSmall);
  ASSERT_GT(fed.all, 16 * kSmall);
  std::uint64_t events = fed.all;

  const auto check = [&](std::uint64_t recorded) {
    EXPECT_EQ(large.trace().recorded(), recorded);
    EXPECT_EQ(large.trace().size(), recorded);
    EXPECT_EQ(large.trace().dropped(), 0u);
    EXPECT_EQ(small.trace().recorded(), recorded);
    EXPECT_EQ(small.trace().size(), kSmall);
    EXPECT_EQ(small.trace().dropped(), recorded - kSmall);
    const std::vector<TraceEvent> all = large.trace().events();
    const std::vector<TraceEvent> newest(
        all.end() - static_cast<std::ptrdiff_t>(kSmall), all.end());
    expect_same_events(small.trace().events(), newest);
  };
  check(events);
  // A run of general events alone leaves every retained record pointing at
  // the side ring, which must then hold a full capacity of them.
  events += feed_hooks(rng, now, 100, {&small, &large},
                       /*general_only=*/true).all;
  check(events);

  const std::unique_ptr<Telemetry> copy = small.clone();
  EXPECT_EQ(copy->trace().recorded(), small.trace().recorded());
  expect_same_events(copy->trace().events(), small.trace().events());

  events += feed_hooks(rng, now, 100, {&small, copy.get(), &large}).all;
  check(events);
  EXPECT_EQ(copy->trace().recorded(), events);
  EXPECT_EQ(copy->trace().dropped(), events - kSmall);
  expect_same_events(copy->trace().events(), small.trace().events());
}

TEST(Telemetry, TraceRequestsOffKeepsMetricsOnly) {
  Telemetry telemetry(ring_options(1024, /*trace_requests=*/false));
  telemetry.request_arrival(1.0, 1);
  telemetry.request_admitted(1.0, 1, 7);
  telemetry.request_completed(1.4, 1, 0.4, 0.3, false);
  telemetry.vm_created(2.0, 1);  // lifecycle events still traced
  EXPECT_EQ(telemetry.trace().size(), 1u);
  const auto snap = telemetry.metrics().snapshot();
  EXPECT_EQ(snap.counters[0].name, "requests_arrived");
  EXPECT_EQ(snap.counters[0].value, 1u);
}

// ---------------------------------------------------------------------------
// Exporters.

// A Chrome trace opens with the process name and one name per lane; the
// lanes are numbered 1..kTrackApptier.
constexpr std::size_t kMetadataEvents = 1 + kTrackApptier;

TEST(Export, ChromeTraceJsonRoundTrips) {
  Telemetry telemetry(ring_options(64, true));
  telemetry.request_arrival(0.5, 1);
  telemetry.request_admitted(0.5, 1, 3);
  telemetry.request_completed(0.9, 1, 0.4, 0.3, false);
  telemetry.vm_created(0.0, 3);
  telemetry.instance_count(0.0, 1, 0);
  telemetry.scaling_decision(60.0, 12.5, 0.105, 2, 4, 4);
  telemetry.engine_sample(60.0, 1024, 9);

  std::ostringstream out;
  write_chrome_trace(out, telemetry.trace(), "unit \"test\"");
  const Json doc = JsonParser(out.str()).parse();

  ASSERT_EQ(doc.type, Json::Type::kObject);
  ASSERT_TRUE(doc.has("traceEvents"));
  ASSERT_TRUE(doc.has("otherData"));
  EXPECT_DOUBLE_EQ(doc.at("otherData").at("recorded_events").number,
                   static_cast<double>(telemetry.trace().recorded()));
  EXPECT_DOUBLE_EQ(doc.at("otherData").at("dropped_events").number, 0.0);

  const auto& events = doc.at("traceEvents").array;
  // Metadata events (the process and every named lane) + recorded events.
  ASSERT_EQ(events.size(), kMetadataEvents + telemetry.trace().size());
  std::size_t metadata = 0;
  for (const auto& event : events) {
    ASSERT_EQ(event.type, Json::Type::kObject);
    ASSERT_TRUE(event.has("name"));
    ASSERT_TRUE(event.has("ph"));
    ASSERT_TRUE(event.has("pid"));
    const std::string ph = event.at("ph").str;
    if (ph == "M") {
      ++metadata;
      continue;
    }
    EXPECT_TRUE(ph == "i" || ph == "X" || ph == "C") << ph;
    ASSERT_TRUE(event.has("ts"));
    ASSERT_TRUE(event.has("tid"));
    ASSERT_TRUE(event.has("args"));
    if (ph == "X") {
      EXPECT_TRUE(event.has("dur"));
    }
  }
  EXPECT_EQ(metadata, kMetadataEvents);

  // Span arithmetic survives the microsecond conversion: the request span
  // starts at arrival (0.5 s) and lasts the response time (0.4 s).
  bool found_span = false;
  for (const auto& event : events) {
    if (event.at("ph").str != "X" || event.at("name").str != "request") continue;
    found_span = true;
    EXPECT_DOUBLE_EQ(event.at("ts").number, 0.5e6);
    EXPECT_DOUBLE_EQ(event.at("dur").number, 0.4e6);
    EXPECT_DOUBLE_EQ(event.at("args").at("id").number, 1.0);
  }
  EXPECT_TRUE(found_span);

  // The Algorithm 1 decision carries its inputs.
  bool found_decision = false;
  for (const auto& event : events) {
    if (event.at("name").str != "decision") continue;
    found_decision = true;
    EXPECT_DOUBLE_EQ(event.at("args").at("lambda").number, 12.5);
    EXPECT_DOUBLE_EQ(event.at("args").at("tm").number, 0.105);
    EXPECT_DOUBLE_EQ(event.at("args").at("k").number, 2.0);
    EXPECT_DOUBLE_EQ(event.at("args").at("target_m").number, 4.0);
  }
  EXPECT_TRUE(found_decision);
}

TEST(Export, MetricsCsvRoundTripsThroughReader) {
  Telemetry telemetry;
  telemetry.request_arrival(0.0, 1);
  telemetry.request_admitted(0.0, 1, 1);
  telemetry.request_completed(0.2, 1, 0.2, 0.1, false);
  telemetry.instance_count(0.0, 3, 1);

  std::ostringstream out;
  write_metrics_csv(out, telemetry.metrics().snapshot());
  std::istringstream in(out.str());
  CsvReader reader(in);
  const auto header = reader.next_row();
  ASSERT_TRUE(header.has_value());
  EXPECT_EQ(*header,
            (std::vector<std::string>{"metric", "type", "field", "value"}));

  std::map<std::string, std::string> rows;  // "metric/field" -> value
  while (const auto row = reader.next_row()) {
    ASSERT_EQ(row->size(), 4u);
    rows[(*row)[0] + "/" + (*row)[2]] = (*row)[3];
  }
  EXPECT_EQ(rows.at("requests_arrived/value"), "1");
  EXPECT_EQ(rows.at("active_instances/value"), "3");
  EXPECT_EQ(rows.at("response_time_seconds/count"), "1");
  EXPECT_EQ(std::stod(rows.at("response_time_seconds/sum")), 0.2);
  // Cumulative bucket rows: everything <= 1000 s includes our observation.
  EXPECT_EQ(rows.at("response_time_seconds/le_1000"), "1");
}

// ---------------------------------------------------------------------------
// Engine self-profile.

TEST(Telemetry, EngineSamplingRecordsCounterLane) {
  Telemetry telemetry;
  Simulation sim;
  sim.set_telemetry(&telemetry);
  for (std::uint64_t i = 0; i < 5 * Simulation::kEngineSampleStride; ++i) {
    sim.schedule_at(static_cast<SimTime>(i), [] {});
  }
  sim.run();
  std::size_t engine_samples = 0;
  for (const auto& event : telemetry.trace().events()) {
    if (std::string(event.category) == "engine") {
      EXPECT_EQ(event.phase, TracePhase::kCounter);
      ++engine_samples;
    }
  }
  EXPECT_EQ(engine_samples, 5u);  // one sample per kEngineSampleStride
}

// ---------------------------------------------------------------------------
// Whole-pipeline integration: telemetry must observe, never perturb.

TEST(Telemetry, RunMetricsIdenticalWithTelemetryOnAndOff) {
  const ScenarioConfig config = scientific_scenario(1.0);
  const RunOutput plain =
      run_scenario(config, PolicySpec::adaptive(), 4242);
  // Every observability monitor enabled: span tracing, the drift
  // observatory, and SLO burn-rate alerting must all be purely
  // observational — identical results down to the event count.
  TelemetryOptions opts;
  opts.trace_capacity = 1 << 14;
  opts.span_sample_rate = 0.25;
  opts.drift_enabled = true;
  opts.drift.qos_max_response_time = config.qos.max_response_time;
  opts.slo_enabled = true;
  opts.slo.log_alerts = false;
  const RunOutput traced =
      run_scenario(config, PolicySpec::adaptive(), 4242, opts);

  ASSERT_EQ(plain.telemetry, nullptr);
  ASSERT_NE(traced.telemetry, nullptr);

  // Only the monitors' own outputs differ (no SLO alert fires in either).
  const RunMetrics& b = traced.metrics;
  expect_same_metrics(plain.metrics, b,
                      {"slo_worst_burn_rate", "drift_windows",
                       "drift_response_mape", "drift_response_bias",
                       "spans_traced", "wall_seconds"});
  ASSERT_EQ(plain.decisions.size(), traced.decisions.size());

  // The registry agrees with the provisioner's own accounting.
  const auto snap = traced.telemetry->metrics().snapshot();
  auto counter = [&](const std::string& name) -> std::uint64_t {
    for (const auto& view : snap.counters) {
      if (view.name == name) return view.value;
    }
    return ~0ull;
  };
  EXPECT_EQ(counter("requests_admitted"), b.accepted);
  EXPECT_EQ(counter("requests_rejected"), b.rejected);
  EXPECT_EQ(counter("requests_completed"), b.completed);
  EXPECT_EQ(counter("qos_violations"), b.qos_violations);
  EXPECT_EQ(counter("scaling_decisions"), traced.decisions.size());
  EXPECT_GT(traced.telemetry->trace().recorded(), 0u);
}

TEST(Telemetry, WebScenarioTraceExportsValidChromeJson) {
  // The acceptance-criteria path: a (shortened) web run at scale <= 0.01
  // with full tracing, exported and parsed back.
  ScenarioConfig config = web_scenario(0.001);
  config.horizon = 6.0 * 3600.0;
  config.web.horizon = config.horizon;
  TelemetryOptions opts;
  opts.trace_capacity = 1 << 12;
  const RunOutput output =
      run_scenario(config, PolicySpec::adaptive(), 7, opts);
  ASSERT_NE(output.telemetry, nullptr);
  ASSERT_GT(output.telemetry->trace().size(), 0u);

  std::ostringstream out;
  write_chrome_trace(out, output.telemetry->trace());
  const Json doc = JsonParser(out.str()).parse();
  const auto& events = doc.at("traceEvents").array;
  EXPECT_EQ(events.size(), kMetadataEvents + output.telemetry->trace().size());
  for (const auto& event : events) {
    ASSERT_EQ(event.type, Json::Type::kObject);
    ASSERT_TRUE(event.has("name"));
    ASSERT_TRUE(event.has("ph"));
  }

  // The decision records in RunOutput carry the modeler inputs.
  ASSERT_FALSE(output.decisions.empty());
  EXPECT_GT(output.decisions.front().monitored_service_time, 0.0);
  EXPECT_GT(output.decisions.front().queue_bound, 0u);
}

}  // namespace
}  // namespace cloudprov
