#include "experiment/report.h"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "util/check.h"
#include "util/csv.h"

namespace cloudprov {

TextTable::TextTable(std::vector<std::string> header) : header_(std::move(header)) {
  ensure_arg(!header_.empty(), "TextTable: empty header");
}

void TextTable::add_row(std::vector<std::string> row) {
  ensure_arg(row.size() == header_.size(), "TextTable: row width mismatch");
  rows_.push_back(std::move(row));
}

void TextTable::print(std::ostream& out) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << std::left << std::setw(static_cast<int>(widths[c]) + 2) << row[c];
    }
    out << '\n';
  };
  print_row(header_);
  std::size_t total = 0;
  for (std::size_t w : widths) total += w + 2;
  out << std::string(total, '-') << '\n';
  for (const auto& row : rows_) print_row(row);
}

std::string fmt(double value, int precision) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(precision) << value;
  return out.str();
}

std::string fmt_ci(const ConfidenceInterval& ci, int precision) {
  return fmt(ci.mean, precision) + " +- " + fmt(ci.half_width, precision);
}

void print_policy_table(std::ostream& out,
                        const std::vector<AggregateMetrics>& results) {
  TextTable table({"policy", "min_inst", "max_inst", "rejection", "utilization",
                   "vm_hours", "avg_resp_s", "std_resp_s", "violations"});
  for (const AggregateMetrics& r : results) {
    table.add_row({r.policy, fmt(r.min_instances.mean, 1),
                   fmt(r.max_instances.mean, 1), fmt(r.rejection_rate.mean, 4),
                   fmt(r.utilization.mean, 3), fmt(r.vm_hours.mean, 1),
                   fmt(r.avg_response_time.mean, 4),
                   fmt(r.std_response_time.mean, 4),
                   fmt(r.qos_violations.mean, 1)});
  }
  table.print(out);
}

void write_policy_csv(std::ostream& out,
                      const std::vector<AggregateMetrics>& results) {
  CsvWriter csv(out);
  csv.write_header({"policy", "replications", "min_instances", "max_instances",
                    "rejection_rate", "rejection_ci", "utilization",
                    "utilization_ci", "vm_hours", "vm_hours_ci",
                    "avg_response_time", "avg_response_time_ci",
                    "std_response_time", "qos_violations"});
  for (const AggregateMetrics& r : results) {
    csv.write_row({r.policy, CsvWriter::format(static_cast<std::int64_t>(r.replications)),
                   CsvWriter::format(r.min_instances.mean),
                   CsvWriter::format(r.max_instances.mean),
                   CsvWriter::format(r.rejection_rate.mean),
                   CsvWriter::format(r.rejection_rate.half_width),
                   CsvWriter::format(r.utilization.mean),
                   CsvWriter::format(r.utilization.half_width),
                   CsvWriter::format(r.vm_hours.mean),
                   CsvWriter::format(r.vm_hours.half_width),
                   CsvWriter::format(r.avg_response_time.mean),
                   CsvWriter::format(r.avg_response_time.half_width),
                   CsvWriter::format(r.std_response_time.mean),
                   CsvWriter::format(r.qos_violations.mean)});
  }
}

void print_claim(std::ostream& out, const std::string& claim, double paper_value,
                 double measured_value, int precision) {
  out << "  [claim] " << claim << ": paper=" << fmt(paper_value, precision)
      << " measured=" << fmt(measured_value, precision) << '\n';
}

namespace {

std::string table_cell(double value) { return fmt(value, 4); }
std::string table_cell(std::uint64_t value) { return std::to_string(value); }

}  // namespace

void print_metric_table(std::ostream& out, const std::vector<RunMetrics>& runs,
                        const std::vector<MetricGroup>& groups) {
  std::vector<std::string> header{"metric"};
  for (const RunMetrics& run : runs) header.push_back(run.policy);
  // for_each_metric walks one run, so the rows fill a column at a time.
  std::vector<std::vector<std::string>> rows;
  for (const RunMetrics& run : runs) {
    std::size_t row = 0;
    for_each_metric(run, [&](const char* name, const auto& value,
                             MetricDirection, MetricGroup group) {
      if (std::ranges::find(groups, group) == groups.end()) return;
      if (row == rows.size()) rows.push_back({name});
      rows[row++].push_back(table_cell(value));
    });
  }
  TextTable table(std::move(header));
  for (std::vector<std::string>& row : rows) table.add_row(std::move(row));
  table.print(out);
}

void write_runs_csv(std::ostream& out, const std::vector<RunMetrics>& runs,
                    const std::vector<std::string>& key_columns,
                    const std::vector<std::vector<std::string>>& keys) {
  ensure_arg(keys.size() == (key_columns.empty() ? 0 : runs.size()),
             "write_runs_csv: need one row of keys per run");
  std::vector<std::string> header = key_columns;
  header.emplace_back("policy");
  for_each_metric(RunMetrics{}, [&](const char* name, const auto&,
                                    MetricDirection, MetricGroup) {
    header.emplace_back(name);
  });
  CsvWriter csv(out);
  csv.write_header(header);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    std::vector<std::string> row = keys.empty() ? std::vector<std::string>{}
                                                : keys[i];
    row.push_back(runs[i].policy);
    for_each_metric(runs[i], [&](const char*, const auto& value,
                                 MetricDirection, MetricGroup) {
      row.push_back(CsvWriter::format(value));
    });
    ensure_arg(row.size() == header.size(),
               "write_runs_csv: a row of keys is not key_columns wide");
    csv.write_row(row);
  }
}

}  // namespace cloudprov
