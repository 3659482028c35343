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

/// Prints the fault/self-healing comparison: one row per run with failure
/// counts by cause, lost requests, availability, MTTR, reconciler activity,
/// and the final pool size (shows permanent loss for unhealed static pools).
void print_fault_table(std::ostream& out, const std::vector<RunMetrics>& runs);

/// One "paper vs measured" line for EXPERIMENTS.md-style reporting.
void print_claim(std::ostream& out, const std::string& claim, double paper_value,
                 double measured_value, int precision = 2);

/// Prints the spot-market comparison: one row per run with billed cost by
/// purchase kind, purchase/revocation counts, requests lost to revocation
/// kills, realized spot-price statistics, and QoS outcomes.
void print_market_table(std::ostream& out, const std::vector<RunMetrics>& runs);

/// Prints the request-path resilience comparison: one row per run with
/// logical-request goodput (succeeded/failed), attempt/retry volume, budget
/// denials, client timeouts, wasted (post-abandonment) completions, breaker
/// activity, and admission sheds by kind.
void print_resilience_table(std::ostream& out,
                            const std::vector<RunMetrics>& runs);

/// Writes the same resilience comparison as CSV.
void write_resilience_csv(std::ostream& out,
                          const std::vector<RunMetrics>& runs);

/// Prints the multi-tier cache comparison: one row per run with cache
/// hit/miss counts, the lifetime hit ratio, directory churn by cause
/// (evictions, TTL expirations, slot invalidations, storm flushes), the mean
/// backend offered load lambda_miss, and the cache pool's VM-hours and
/// utilization.
void print_apptier_table(std::ostream& out,
                         const std::vector<RunMetrics>& runs);

/// Writes the same multi-tier comparison as CSV.
void write_apptier_csv(std::ostream& out, const std::vector<RunMetrics>& runs);

/// Prints the observability summary of one run: SLO burn-rate alert counts
/// and the worst observed burn rate, model-drift window count with
/// response-time MAPE/bias, and the number of sampled request spans. Prints
/// nothing if the run had no monitor enabled (all fields zero).
void print_observability_summary(std::ostream& out, const RunMetrics& run);

}  // namespace cloudprov
