#include "telemetry/export.h"

#include <iterator>
#include <ostream>
#include <utility>

#include "telemetry/telemetry.h"
#include "util/csv.h"
#include "util/json.h"

namespace cloudprov {
namespace {

// Every TelemetryTrack with the name its lane shows, in tid order.
constexpr std::pair<TelemetryTrack, const char*> kTrackNames[] = {
    {kTrackRequests, "requests"},     {kTrackVms, "vms"},
    {kTrackPolicy, "policy"},         {kTrackEngine, "engine"},
    {kTrackFaults, "faults"},         {kTrackSpans, "spans"},
    {kTrackDrift, "drift"},           {kTrackSlo, "slo"},
    {kTrackMarket, "market"},         {kTrackResilience, "resilience"},
    {kTrackApptier, "apptier"},
};
static_assert(std::size(kTrackNames) == kTrackApptier,
              "kTrackNames must name every TelemetryTrack");

void write_metadata_event(std::ostream& out, const char* kind,
                          std::uint32_t tid, const std::string& label,
                          bool& first) {
  if (!first) out << ",\n";
  first = false;
  out << "  {\"name\":" << json_string(kind) << ",\"ph\":\"M\",\"pid\":0";
  if (tid != 0) out << ",\"tid\":" << tid;
  out << ",\"args\":{\"name\":" << json_string(label) << "}}";
}

void write_trace_event(std::ostream& out, const TraceEvent& event,
                       bool& first) {
  if (!first) out << ",\n";
  first = false;
  out << "  {\"name\":" << json_string(event.name)
      << ",\"cat\":" << json_string(event.category) << ",\"ph\":\""
      << to_string(event.phase) << "\",\"ts\":"
      << json_number(event.time * 1e6) << ",\"pid\":0,\"tid\":"
      << event.track;
  if (event.phase == TracePhase::kComplete) {
    out << ",\"dur\":" << json_number(event.duration * 1e6);
  }
  if (event.phase == TracePhase::kInstant) {
    out << ",\"s\":\"t\"";  // thread-scoped instant
  }
  out << ",\"args\":{";
  bool first_arg = true;
  if (event.id != 0) {
    out << "\"id\":" << event.id;
    first_arg = false;
  }
  for (std::uint8_t i = 0; i < event.arg_count; ++i) {
    if (!first_arg) out << ',';
    first_arg = false;
    out << json_string(event.args[i].key) << ':'
        << json_number(event.args[i].value);
  }
  out << "}}";
}

// One derived child span of a request trace as a ph="X" slice on the span
// lane, tagged with the trace id so Perfetto's flow arrows can link them.
void write_request_span(std::ostream& out, const char* name, SimTime start,
                        SimTime duration, const SpanTracer::RequestTrace& trace,
                        bool& first) {
  if (!first) out << ",\n";
  first = false;
  out << "  {\"name\":" << json_string(name)
      << ",\"cat\":\"span\",\"ph\":\"X\",\"ts\":" << json_number(start * 1e6)
      << ",\"dur\":" << json_number(duration * 1e6)
      << ",\"pid\":0,\"tid\":" << kTrackSpans << ",\"args\":{\"trace_id\":"
      << trace.trace_id << ",\"vm\":" << trace.vm_id
      << ",\"outcome\":" << json_string(to_string(trace.outcome))
      << ",\"qos_violation\":" << (trace.qos_violation ? 1 : 0) << "}}";
}

// Flow arrow endpoint (ph="s" start / ph="f" finish) binding the admission
// decision to the service span of the same trace id.
void write_flow_event(std::ostream& out, const char phase, std::uint64_t id,
                      SimTime t, bool& first) {
  if (!first) out << ",\n";
  first = false;
  out << "  {\"name\":\"request_flow\",\"cat\":\"span\",\"ph\":\"" << phase
      << "\",\"id\":" << id << ",\"ts\":" << json_number(t * 1e6)
      << ",\"pid\":0,\"tid\":" << kTrackSpans;
  if (phase == 'f') out << ",\"bp\":\"e\"";
  out << ",\"args\":{}}";
}

}  // namespace

void write_chrome_trace(std::ostream& out, const TraceBuffer& trace,
                        const std::string& process_name,
                        const SpanTracer* spans) {
  out << "{\n\"displayTimeUnit\":\"ms\",\n\"otherData\":{"
      << "\"recorded_events\":" << trace.recorded()
      << ",\"dropped_events\":" << trace.dropped() << "},\n\"traceEvents\":[\n";
  bool first = true;
  write_metadata_event(out, "process_name", 0, process_name, first);
  for (const auto& [track, name] : kTrackNames) {
    write_metadata_event(out, "thread_name", track, name, first);
  }
  for (const TraceEvent& event : trace.events()) {
    write_trace_event(out, event, first);
  }
  if (spans != nullptr) {
    const RingBuffer<SpanTracer::RequestTrace>& finished = spans->finished();
    for (std::size_t i = 0; i < finished.size(); ++i) {
      const SpanTracer::RequestTrace& req = finished[i];
      // Admission decision: a point-like slice at arrival.
      write_request_span(out, "admission", req.arrival, 0.0, req, first);
      if (req.outcome == SpanTracer::Outcome::kRejected) continue;
      const SimTime wait_end =
          req.service_start > 0.0 ? req.service_start : req.finish;
      write_request_span(out, "queue_wait", req.arrival,
                         wait_end - req.arrival, req, first);
      if (req.service_start > 0.0) {
        write_request_span(out, "service", req.service_start,
                           req.finish - req.service_start, req, first);
        // Causal arrow: admission decision -> service start.
        write_flow_event(out, 's', req.trace_id, req.arrival, first);
        write_flow_event(out, 'f', req.trace_id, req.service_start, first);
      }
    }
  }
  out << "\n]}\n";
}

void write_metrics_csv(std::ostream& out,
                       const MetricsRegistry::Snapshot& snapshot) {
  CsvWriter csv(out);
  csv.write_header({"metric", "type", "field", "value"});
  for (const auto& counter : snapshot.counters) {
    csv.write_row({counter.name, "counter", "value",
                   CsvWriter::format(static_cast<std::int64_t>(counter.value))});
  }
  for (const auto& gauge : snapshot.gauges) {
    csv.write_row({gauge.name, "gauge", "value", CsvWriter::format(gauge.value)});
  }
  for (const auto& histogram : snapshot.histograms) {
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < histogram.upper_bounds.size(); ++i) {
      cumulative += histogram.bucket_counts[i];
      csv.write_row({histogram.name, "histogram",
                     "le_" + CsvWriter::format(histogram.upper_bounds[i]),
                     CsvWriter::format(static_cast<std::int64_t>(cumulative))});
    }
    csv.write_row({histogram.name, "histogram", "le_inf",
                   CsvWriter::format(static_cast<std::int64_t>(histogram.count))});
    csv.write_row({histogram.name, "histogram", "count",
                   CsvWriter::format(static_cast<std::int64_t>(histogram.count))});
    csv.write_row(
        {histogram.name, "histogram", "sum", CsvWriter::format(histogram.sum)});
    const double mean =
        histogram.count == 0
            ? 0.0
            : histogram.sum / static_cast<double>(histogram.count);
    csv.write_row({histogram.name, "histogram", "mean", CsvWriter::format(mean)});
  }
}

void write_prometheus_text(std::ostream& out,
                           const MetricsRegistry::Snapshot& snapshot) {
  // The registry's names are already snake_case identifiers; the exporter
  // adds the conventional namespace prefix and unit-free HELP strings.
  for (const auto& counter : snapshot.counters) {
    const std::string name = "cloudprov_" + counter.name + "_total";
    out << "# HELP " << name << " Cumulative " << counter.name
        << " event count.\n";
    out << "# TYPE " << name << " counter\n";
    out << name << ' ' << counter.value << '\n';
  }
  for (const auto& gauge : snapshot.gauges) {
    const std::string name = "cloudprov_" + gauge.name;
    out << "# HELP " << name << " Last observed " << gauge.name << ".\n";
    out << "# TYPE " << name << " gauge\n";
    out << name << ' ' << CsvWriter::format(gauge.value) << '\n';
  }
  for (const auto& histogram : snapshot.histograms) {
    const std::string name = "cloudprov_" + histogram.name;
    out << "# HELP " << name << " Distribution of " << histogram.name
        << ".\n";
    out << "# TYPE " << name << " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < histogram.upper_bounds.size(); ++i) {
      cumulative += histogram.bucket_counts[i];
      out << name << "_bucket{le=\""
          << CsvWriter::format(histogram.upper_bounds[i]) << "\"} "
          << cumulative << '\n';
    }
    out << name << "_bucket{le=\"+Inf\"} " << histogram.count << '\n';
    out << name << "_sum " << CsvWriter::format(histogram.sum) << '\n';
    out << name << "_count " << histogram.count << '\n';
  }
}

void write_span_csv(std::ostream& out, const SpanTracer& spans) {
  CsvWriter csv(out);
  // The tier column exists only in tiered runs: untiered span CSVs are
  // golden-pinned byte-for-byte (kernel_golden_test), so the historical
  // column set must stay exactly as it was when no trace carries a tier tag.
  const bool tiers = spans.has_tiers();
  std::vector<std::string> header = {"trace_id", "span",    "start",
                                     "end",      "duration", "vm_id",
                                     "outcome",  "qos_violation"};
  if (tiers) header.push_back("tier");
  csv.write_header(header);
  const auto row = [&csv, tiers](const SpanTracer::RequestTrace& trace,
                                 const char* span, SimTime start, SimTime end) {
    std::vector<std::string> cells = {
        CsvWriter::format(static_cast<std::int64_t>(trace.trace_id)),
        span, CsvWriter::format(start), CsvWriter::format(end),
        CsvWriter::format(end - start),
        CsvWriter::format(static_cast<std::int64_t>(trace.vm_id)),
        to_string(trace.outcome),
        trace.qos_violation ? "1" : "0"};
    if (tiers) {
      cells.push_back(
          CsvWriter::format(static_cast<std::int64_t>(trace.tier)));
    }
    csv.write_row(cells);
  };
  const RingBuffer<SpanTracer::RequestTrace>& finished = spans.finished();
  for (std::size_t i = 0; i < finished.size(); ++i) {
    const SpanTracer::RequestTrace& trace = finished[i];
    row(trace, "admission", trace.arrival, trace.arrival);
    if (trace.outcome == SpanTracer::Outcome::kRejected) continue;
    const SimTime wait_end =
        trace.service_start > 0.0 ? trace.service_start : trace.finish;
    row(trace, "queue_wait", trace.arrival, wait_end);
    if (trace.service_start > 0.0) {
      row(trace, "service", trace.service_start, trace.finish);
    }
  }
}

void write_drift_csv(std::ostream& out, const DriftMonitor& drift) {
  CsvWriter csv(out);
  csv.write_header(
      {"window_start", "window_end", "lambda", "tm", "queue_bound",
       "instances", "predicted_response_time", "observed_response_time",
       "response_error", "predicted_rejection", "observed_rejection",
       "rejection_error", "predicted_utilization", "observed_utilization",
       "utilization_error", "arrivals", "completed", "rejected",
       "within_bound"});
  for (const DriftMonitor::WindowRecord& window : drift.windows()) {
    csv.write_row(
        {CsvWriter::format(window.start), CsvWriter::format(window.end),
         CsvWriter::format(window.predicted.lambda),
         CsvWriter::format(window.predicted.tm),
         CsvWriter::format(
             static_cast<std::int64_t>(window.predicted.queue_bound)),
         CsvWriter::format(
             static_cast<std::int64_t>(window.predicted.instances)),
         CsvWriter::format(window.predicted.response_time),
         CsvWriter::format(window.observed_response_time),
         CsvWriter::format(window.response_error),
         CsvWriter::format(window.predicted.rejection),
         CsvWriter::format(window.observed_rejection),
         CsvWriter::format(window.rejection_error),
         CsvWriter::format(window.predicted.utilization),
         CsvWriter::format(window.observed_utilization),
         CsvWriter::format(window.utilization_error),
         CsvWriter::format(static_cast<std::int64_t>(window.arrivals)),
         CsvWriter::format(static_cast<std::int64_t>(window.completed)),
         CsvWriter::format(static_cast<std::int64_t>(window.rejected)),
         window.within_bound ? "1" : "0"});
  }
}

void write_slo_csv(std::ostream& out, const SloMonitor& slo) {
  CsvWriter csv(out);
  csv.write_header({"time", "objective", "rule", "short_window", "long_window",
                    "threshold", "burn_short", "burn_long", "alerting"});
  for (const SloMonitor::BurnSample& sample : slo.samples()) {
    const SloMonitor::BurnWindow& rule = slo.config().windows[sample.rule];
    csv.write_row({CsvWriter::format(sample.time), to_string(sample.objective),
                   CsvWriter::format(static_cast<std::int64_t>(sample.rule)),
                   CsvWriter::format(rule.short_window),
                   CsvWriter::format(rule.long_window),
                   CsvWriter::format(rule.threshold),
                   CsvWriter::format(sample.burn_short),
                   CsvWriter::format(sample.burn_long),
                   sample.alerting ? "1" : "0"});
  }
}

}  // namespace cloudprov
