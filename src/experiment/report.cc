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

namespace {

std::string fmt_u64(std::uint64_t value) {
  return std::to_string(value);
}

}  // namespace

void print_fault_table(std::ostream& out, const std::vector<RunMetrics>& runs) {
  TextTable table({"policy", "fails", "vm", "host", "boot", "timeout", "lost",
                   "avail", "mttr_s", "heals", "retries", "aborts",
                   "final_m", "rejection"});
  for (const RunMetrics& r : runs) {
    table.add_row({r.policy, fmt_u64(r.instance_failures), fmt_u64(r.vm_crashes),
                   fmt_u64(r.host_crashes), fmt_u64(r.boot_failures),
                   fmt_u64(r.boot_timeouts), fmt_u64(r.lost_requests),
                   fmt(r.availability, 4), fmt(r.mttr_mean, 1),
                   fmt_u64(r.reconciler_heals), fmt_u64(r.reconciler_retries),
                   fmt_u64(r.reconciler_aborts), fmt_u64(r.final_instances),
                   fmt(r.rejection_rate, 4)});
  }
  table.print(out);
}

void print_market_table(std::ostream& out, const std::vector<RunMetrics>& runs) {
  TextTable table({"policy", "cost", "od_cost", "spot_cost", "rsv_cost",
                   "buys_od", "buys_spot", "revoked", "kills", "lost",
                   "price_avg", "price_max", "qos_viol", "rejection"});
  for (const RunMetrics& r : runs) {
    table.add_row({r.policy, fmt(r.billed_cost, 2), fmt(r.on_demand_cost, 2),
                   fmt(r.spot_cost, 2), fmt(r.reserved_cost, 2),
                   fmt_u64(r.on_demand_purchases), fmt_u64(r.spot_purchases),
                   fmt_u64(r.spot_revocations), fmt_u64(r.revocation_kills),
                   fmt_u64(r.lost_to_revocations), fmt(r.spot_price_mean, 3),
                   fmt(r.spot_price_max, 3), fmt_u64(r.qos_violations),
                   fmt(r.rejection_rate, 4)});
  }
  table.print(out);
}

void print_claim(std::ostream& out, const std::string& claim, double paper_value,
                 double measured_value, int precision) {
  out << "  [claim] " << claim << ": paper=" << fmt(paper_value, precision)
      << " measured=" << fmt(measured_value, precision) << '\n';
}

void print_resilience_table(std::ostream& out,
                            const std::vector<RunMetrics>& runs) {
  TextTable table({"policy", "requests", "ok", "failed", "attempts", "retries",
                   "budget_deny", "timeouts", "wasted", "br_open", "br_close",
                   "fast_fail", "shed_ddl", "shed_brown"});
  for (const RunMetrics& r : runs) {
    table.add_row({r.policy, fmt_u64(r.client_requests),
                   fmt_u64(r.client_succeeded), fmt_u64(r.client_failed),
                   fmt_u64(r.client_attempts), fmt_u64(r.client_retries),
                   fmt_u64(r.retry_budget_denied), fmt_u64(r.client_timeouts),
                   fmt_u64(r.wasted_completions), fmt_u64(r.breaker_opens),
                   fmt_u64(r.breaker_closes), fmt_u64(r.breaker_fast_fails),
                   fmt_u64(r.shed_deadline), fmt_u64(r.shed_brownout)});
  }
  table.print(out);
}

void write_resilience_csv(std::ostream& out,
                          const std::vector<RunMetrics>& runs) {
  CsvWriter csv(out);
  csv.write_header({"policy", "seed", "client_requests", "client_succeeded",
                    "client_failed", "client_attempts", "client_retries",
                    "retry_budget_denied", "client_timeouts",
                    "wasted_completions", "breaker_opens", "breaker_half_opens",
                    "breaker_closes", "breaker_fast_fails", "shed_deadline",
                    "shed_brownout"});
  for (const RunMetrics& r : runs) {
    csv.write_row({r.policy, fmt_u64(r.seed), fmt_u64(r.client_requests),
                   fmt_u64(r.client_succeeded), fmt_u64(r.client_failed),
                   fmt_u64(r.client_attempts), fmt_u64(r.client_retries),
                   fmt_u64(r.retry_budget_denied), fmt_u64(r.client_timeouts),
                   fmt_u64(r.wasted_completions), fmt_u64(r.breaker_opens),
                   fmt_u64(r.breaker_half_opens), fmt_u64(r.breaker_closes),
                   fmt_u64(r.breaker_fast_fails), fmt_u64(r.shed_deadline),
                   fmt_u64(r.shed_brownout)});
  }
}

void print_apptier_table(std::ostream& out,
                         const std::vector<RunMetrics>& runs) {
  TextTable table({"policy", "hits", "misses", "hit_ratio", "fills", "evict",
                   "expire", "invalid", "flush", "lambda_miss", "cache_vmh",
                   "cache_util"});
  for (const RunMetrics& r : runs) {
    table.add_row({r.policy, fmt_u64(r.cache_hits), fmt_u64(r.cache_misses),
                   fmt(r.cache_hit_ratio, 3), fmt_u64(r.cache_fills),
                   fmt_u64(r.cache_evictions), fmt_u64(r.cache_expirations),
                   fmt_u64(r.cache_invalidations), fmt_u64(r.cache_flushes),
                   fmt(r.lambda_miss_mean, 2), fmt(r.cache_vm_hours, 1),
                   fmt(r.cache_utilization, 3)});
  }
  table.print(out);
}

void write_apptier_csv(std::ostream& out, const std::vector<RunMetrics>& runs) {
  CsvWriter csv(out);
  csv.write_header({"policy", "seed", "cache_hits", "cache_misses",
                    "cache_hit_ratio", "cache_fills", "cache_evictions",
                    "cache_expirations", "cache_invalidations", "cache_flushes",
                    "lambda_miss_mean", "cache_vm_hours", "cache_utilization",
                    "cache_avg_instances", "cache_final_instances"});
  for (const RunMetrics& r : runs) {
    csv.write_row({r.policy, fmt_u64(r.seed), fmt_u64(r.cache_hits),
                   fmt_u64(r.cache_misses),
                   CsvWriter::format(r.cache_hit_ratio),
                   fmt_u64(r.cache_fills), fmt_u64(r.cache_evictions),
                   fmt_u64(r.cache_expirations),
                   fmt_u64(r.cache_invalidations), fmt_u64(r.cache_flushes),
                   CsvWriter::format(r.lambda_miss_mean),
                   CsvWriter::format(r.cache_vm_hours),
                   CsvWriter::format(r.cache_utilization),
                   CsvWriter::format(r.cache_avg_instances),
                   fmt_u64(r.cache_final_instances)});
  }
}

void print_observability_summary(std::ostream& out, const RunMetrics& run) {
  const bool any = run.slo_response_alerts > 0 || run.slo_rejection_alerts > 0 ||
                   run.slo_worst_burn_rate > 0.0 || run.drift_windows > 0 ||
                   run.spans_traced > 0;
  if (!any) return;
  out << "observability:\n"
      << "  SLO alerts: " << run.slo_response_alerts << " response, "
      << run.slo_rejection_alerts << " rejection (worst burn "
      << fmt(run.slo_worst_burn_rate, 2) << "x budget)\n";
  if (run.drift_windows > 0) {
    out << "  model drift: " << run.drift_windows
        << " windows, response MAPE " << fmt(run.drift_response_mape, 1)
        << "%, bias " << fmt(run.drift_response_bias, 4) << " s\n";
  }
  if (run.spans_traced > 0) {
    out << "  spans: " << run.spans_traced << " requests traced\n";
  }
}

}  // namespace cloudprov
