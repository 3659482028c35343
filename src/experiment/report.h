// Fixed-width table and CSV reporting for the benchmark harnesses.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "experiment/metrics.h"

namespace cloudprov {

/// Minimal fixed-width text table.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  void add_row(std::vector<std::string> row);
  void print(std::ostream& out) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats `value` with `precision` decimal places.
std::string fmt(double value, int precision = 2);

/// Formats a CI as "mean +- hw".
std::string fmt_ci(const ConfidenceInterval& ci, int precision = 2);

/// Prints the Figure 5 / Figure 6 style comparison: one row per policy with
/// the paper's output metrics averaged over replications.
void print_policy_table(std::ostream& out,
                        const std::vector<AggregateMetrics>& results);

/// Writes the same comparison as CSV.
void write_policy_csv(std::ostream& out,
                      const std::vector<AggregateMetrics>& results);

/// One "paper vs measured" line for EXPERIMENTS.md-style reporting.
void print_claim(std::ostream& out, const std::string& claim, double paper_value,
                 double measured_value, int precision = 2);

/// Prints the metrics of `groups` as one table in schema visit order: a row
/// per metric, a column per run headed by its policy.
void print_metric_table(std::ostream& out, const std::vector<RunMetrics>& runs,
                        const std::vector<MetricGroup>& groups);

/// Writes one CSV row per run: the `key_columns` (row i's cells are
/// keys[i]), then `policy` and every metric for_each_metric visits, in visit
/// order, each value in CsvWriter::format's round-trip form.
void write_runs_csv(std::ostream& out, const std::vector<RunMetrics>& runs,
                    const std::vector<std::string>& key_columns = {},
                    const std::vector<std::vector<std::string>>& keys = {});

}  // namespace cloudprov
