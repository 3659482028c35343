// Command-line scenario runner: the library's experiment harness exposed as
// a single configurable binary, the way a downstream user would script it.
// An indented line continues the command above it.
//
//   ./run_scenario --workload web --policy adaptive --scale 0.05 --reps 3
//   ./run_scenario --workload scientific --policy static --instances 45
//   ./run_scenario --workload web --policy adaptive --predictor ewma
//                  --interval 30 --csv out.csv --decisions decisions.csv
//   ./run_scenario --workload web --scale 0.01 --metrics-out metrics.csv
//                  --trace-out trace.json           # Perfetto-loadable trace
//   ./run_scenario --workload web --scale 0.01 --trace-sample-rate 0.05
//                  --spans-out spans.csv --drift-out drift.csv
//                  --slo-out slo.csv               # observability monitors
//   ./run_scenario --reps 8 --parallelism 0         # one worker per core
//   ./run_scenario --workload scientific --policy static --instances 45
//                  --vm-mtbf 6 --host-mtbf 48 --reconcile 30   # self-healing
//   ./run_scenario --workload web --spot-frac 0.5 --bid 0.7 --reconcile 60
//                  --market-out market.csv        # spot-market provisioning
//   ./run_scenario --workload web --lookahead 5,3 --spot-frac 0.5 --bid 0.7
//                  --lookahead-bids 0.45,1.0      # model-predictive sizing
//   ./run_scenario --workload web --checkpoint world.ckpt --checkpoint-at 43200
//   ./run_scenario --workload web --restore world.ckpt    # same config + seed
//   ./run_scenario --workload web --timeout 0.2 --retry 3:jitter:0.05:1
//                  --retry-budget 0.1 --breaker 0.5:32:5:3
//                  --shed deadline,brownout:0.9:0.5:1   # request-path resilience
//   ./run_scenario --workload web --scale 0.01 --profile
//                  --profile-out prof --manifest-out run.json  # wall profile
//   ./run_scenario --tenants 64 --shards 4 --tenant-capacity 128
//                  --tenant-out tenants.csv --manifest-out mt.json
//                  # sharded multi-tenant scale-out (bit-identical per shard)
//   ./run_scenario --workload zipf --tiers --zipf 0.9 --keys 20000
//                  --ttl 300 --cache-vm 4        # cache + backend tiers
//   ./run_scenario --workload zipf --tiers --flush-at 43200
//                  --cache-crash-at 21600        # TTL storm + warmup transient
#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string_view>

#include "experiment/manifest.h"
#include "experiment/multi_tenant.h"
#include "experiment/report.h"
#include "experiment/runner.h"
#include "experiment/world.h"
#include "lookahead/checkpoint.h"
#include "profile/profile_export.h"
#include "profile/wall_profiler.h"
#include "telemetry/export.h"
#include "util/check.h"
#include "util/cli.h"
#include "util/csv.h"
#include "util/log.h"

using namespace cloudprov;

namespace {

PredictorKind parse_predictor(const std::string& name) {
  if (name == "profile") return PredictorKind::kProfile;
  if (name == "oracle") return PredictorKind::kOracle;
  if (name == "ewma") return PredictorKind::kEwma;
  if (name == "moving-average") return PredictorKind::kMovingAverage;
  if (name == "ar") return PredictorKind::kAr;
  if (name == "qrsm") return PredictorKind::kQrsm;
  throw std::invalid_argument("unknown predictor: " + name);
}

ScenarioConfig make_scenario(const std::string& workload, double scale) {
  if (workload == "web") return web_scenario(scale);
  if (workload == "scientific") return scientific_scenario(scale);
  if (workload == "zipf") return zipf_scenario(scale);
  throw std::invalid_argument("unknown --workload: " + workload);
}

/// --lookahead "K,H": K candidate pool sizes searched H windows ahead.
PolicySpec parse_lookahead_spec(const std::string& spec,
                                PredictorKind predictor,
                                std::vector<double> bid_levels) {
  if (const auto comma = spec.find(','); comma != std::string::npos) {
    try {
      return PolicySpec::lookahead_spec(std::stoul(spec.substr(0, comma)),
                                        std::stoul(spec.substr(comma + 1)),
                                        predictor, std::move(bid_levels));
    } catch (const std::logic_error&) {  // invalid_argument, out_of_range
    }
  }
  throw std::invalid_argument("bad --lookahead spec: " + spec +
                              " (expects \"K,H\", e.g. 5,3)");
}

void write_decisions_csv(const std::string& path,
                         const std::vector<AdaptivePolicy::DecisionRecord>& decisions) {
  std::ofstream out(path);
  CsvWriter csv(out);
  csv.write_header({"time", "expected_rate", "monitored_service_time",
                    "queue_bound", "target_instances", "achieved_instances"});
  for (const auto& d : decisions) {
    csv.write_row({CsvWriter::format(d.time), CsvWriter::format(d.expected_rate),
                   CsvWriter::format(d.monitored_service_time),
                   CsvWriter::format(static_cast<std::int64_t>(d.queue_bound)),
                   CsvWriter::format(static_cast<std::int64_t>(d.target_instances)),
                   CsvWriter::format(
                       static_cast<std::int64_t>(d.achieved_instances))});
  }
  std::cout << "decision timeline written to " << path << '\n';
}

std::vector<double> parse_double_list(const std::string& spec,
                                      const std::string& flag) {
  std::vector<double> values;
  std::stringstream in(spec);
  std::string item;
  while (std::getline(in, item, ',')) {
    try {
      values.push_back(std::stod(item));
    } catch (const std::exception&) {
      throw std::invalid_argument("bad " + flag + " entry: " + item);
    }
  }
  return values;
}

std::vector<std::string> split_colon(const std::string& spec) {
  std::vector<std::string> parts;
  std::stringstream in(spec);
  std::string item;
  while (std::getline(in, item, ':')) parts.push_back(item);
  return parts;
}

void parse_retry_spec(const std::string& spec, RetryPolicyConfig* retry) {
  const std::vector<std::string> parts = split_colon(spec);
  try {
    retry->max_attempts = std::stoul(parts.at(0));
    if (parts.size() > 1) {
      if (parts[1] == "fixed") {
        retry->backoff = RetryPolicyConfig::Backoff::kFixed;
      } else if (parts[1] == "jitter") {
        retry->backoff = RetryPolicyConfig::Backoff::kExpoJitter;
      } else {
        throw std::invalid_argument("kind must be fixed | jitter");
      }
    }
    if (parts.size() > 2) retry->base = std::stod(parts[2]);
    if (parts.size() > 3) retry->cap = std::stod(parts[3]);
  } catch (const std::logic_error&) {  // invalid_argument, out_of_range
    throw std::invalid_argument("bad --retry spec: " + spec);
  }
}

void parse_budget_spec(const std::string& spec, RetryBudgetConfig* budget) {
  const std::vector<std::string> parts = split_colon(spec);
  try {
    budget->enabled = true;
    budget->ratio = std::stod(parts.at(0));
    if (parts.size() > 1) budget->burst = std::stod(parts[1]);
  } catch (const std::logic_error&) {  // invalid_argument, out_of_range
    throw std::invalid_argument("bad --retry-budget spec: " + spec);
  }
}

void parse_breaker_spec(const std::string& spec, CircuitBreakerConfig* breaker) {
  const std::vector<std::string> parts = split_colon(spec);
  try {
    breaker->enabled = true;
    breaker->failure_threshold = std::stod(parts.at(0));
    if (parts.size() > 1) breaker->window = std::stoul(parts[1]);
    if (parts.size() > 2) breaker->open_duration = std::stod(parts[2]);
    if (parts.size() > 3) breaker->half_open_probes = std::stoul(parts[3]);
  } catch (const std::logic_error&) {  // invalid_argument, out_of_range
    throw std::invalid_argument("bad --breaker spec: " + spec);
  }
}

void parse_shed_spec(const std::string& spec, ShedConfig* shed) {
  std::stringstream in(spec);
  std::string mechanism;
  while (std::getline(in, mechanism, ',')) {
    const std::vector<std::string> parts = split_colon(mechanism);
    try {
      if (parts.at(0) == "deadline") {
        shed->deadline_enabled = true;
      } else if (parts[0] == "brownout") {
        shed->brownout_enabled = true;
        if (parts.size() > 1) shed->brownout_utilization = std::stod(parts[1]);
        if (parts.size() > 2) shed->brownout_fraction = std::stod(parts[2]);
        if (parts.size() > 3) shed->brownout_priority = std::stoi(parts[3]);
      } else {
        throw std::invalid_argument("mechanism must be deadline | brownout");
      }
    } catch (const std::logic_error&) {  // invalid_argument, out_of_range
      throw std::invalid_argument("bad --shed spec: " + spec);
    }
  }
}

/// Replication-0 runner that supports the checkpoint/restore flags: either
/// resumes a World from a checkpoint file, or runs fresh and optionally
/// drops a checkpoint mid-flight before continuing to the horizon.
RunOutput run_replication_zero(const ScenarioConfig& config,
                               const PolicySpec& policy, std::uint64_t seed,
                               const std::optional<TelemetryOptions>& telemetry,
                               const std::string& restore_path,
                               const std::string& checkpoint_path,
                               double checkpoint_at, WallProfiler* profiler) {
  if (!restore_path.empty()) {
    const WorldState state = read_checkpoint_file(restore_path);
    std::cerr << "restored " << restore_path << " at t=" << fmt(state.now, 1)
              << " s (" << state.executed_events << " events executed)\n";
    World world(config, policy, seed, state, profiler);
    world.run_to(config.horizon);
    return world.finish();
  }
  World world(config, policy, seed, telemetry, profiler);
  world.start();
  if (!checkpoint_path.empty()) {
    world.run_to(checkpoint_at);
    write_checkpoint_file(checkpoint_path, world.snapshot());
    std::cout << "checkpoint written to " << checkpoint_path << " (t="
              << fmt(world.now(), 1) << " s)\n";
  }
  world.run_to(config.horizon);
  return world.finish();
}

ArgParser make_args() {
  ArgParser args("Runs one provisioning scenario and reports the paper's metrics.");
  args.add_flag("workload", "web", "web | scientific | zipf", "<name>");
  args.add_flag("policy", "adaptive", "adaptive | static", "<name>");
  args.add_flag("instances", "50", "pool size for --policy static (paper scale)",
                "<int>");
  args.add_flag("predictor", "profile",
                "profile | oracle | ewma | moving-average | ar | qrsm", "<name>");
  args.add_flag("scale", "0.05", "workload scale factor", "<double>");
  args.add_flag("days", "0", "override horizon in days (0 = scenario default)",
                "<int>");
  args.add_flag("reps", "1", "replications", "<int>");
  args.add_flag("seed", "42", "base random seed", "<int>");
  args.add_flag("parallelism", "1",
                "replication worker threads (0 = one per hardware thread)",
                "<int>");
  args.add_flag("tenants", "0",
                "multi-tenant mode: run this many independent applications "
                "against one shared capacity pool instead of a single "
                "scenario, rejecting the flags only a single scenario reads "
                "(0 = off; see --shards/--tenant-*)",
                "<int>");
  args.add_flag("shards", "1",
                "worker threads for --tenants: each tenant runs on its own "
                "event kernel, and tenants are partitioned across this many "
                "workers, barrier-synced every analysis window; results are "
                "bit-identical for every value",
                "<int>");
  args.add_flag("tenant-capacity", "0",
                "shared instance slots arbitrated across all tenants per "
                "window (0 = 4 per tenant)",
                "<int>");
  args.add_flag("tenant-cap", "0",
                "static per-tenant instance ceiling (0 = none)", "<int>");
  args.add_flag("tenant-zipf-frac", "0",
                "fraction of tenants running the Zipf key-value workload",
                "<frac>");
  args.add_flag("tenant-tiers", "false",
                "run Zipf tenants with the cache tier in front of the "
                "backend (src/apptier); implied by --tenant-zipf-frac");
  args.add_flag("tenant-bot-frac", "0.25",
                "fraction of tenants running the BoT/scientific workload",
                "<double>");
  args.add_flag("tenant-scale", "0.002",
                "mean per-tenant workload scale (jittered per tenant)",
                "<double>");
  args.add_flag("traced-tenants", "0",
                "give tenants [0, N) full span tracing at --trace-sample-rate",
                "<int>");
  args.add_flag("tenant-out", "",
                "write the per-tenant metrics CSV here (multi-tenant mode)",
                "<path>");
  args.add_flag("interval", "0", "analysis interval override in seconds (0 = default)",
                "<double>");
  args.add_flag("tolerance", "0", "modeler rejection tolerance override (0 = default)",
                "<double>");
  args.add_flag("max-vms", "0", "MaxVMs override (0 = default)", "<int>");
  args.add_flag("tiers", "false",
                "run the application as cache + backend tiers (src/apptier): "
                "look-aside cache pool in front of the backend, per-tier "
                "Algorithm 1 under --policy adaptive; implied by the other "
                "cache flags");
  args.add_flag("zipf", "0.9",
                "Zipf popularity skew for --workload zipf (0 = uniform)",
                "<double>");
  args.add_flag("keys", "20000", "key-space size for --workload zipf",
                "<int>");
  args.add_flag("ttl", "300",
                "cache-entry time-to-live in seconds (lazy expiry at lookup)",
                "<double>");
  args.add_flag("cache-vm", "4",
                "initial cache pool size; stays fixed under --policy static, "
                "re-planned every window by the tiered provisioner otherwise",
                "<int>");
  args.add_flag("flush-at", "",
                "TTL-storm times \"t0[,t1...]\" in seconds: flush the whole "
                "cache directory so the backend eats the full arrival rate",
                "<spec>");
  args.add_flag("cache-crash-at", "",
                "seeded cache-VM crash times \"t0[,t1...]\" in seconds "
                "(slot remap invalidates resident entries: warmup transient)",
                "<spec>");
  args.add_flag("lookahead", "",
                "model-predictive provisioning \"K,H\": at each analysis "
                "window fork up to K what-if clones of the world, score each "
                "candidate pool size H windows ahead, commit the cheapest "
                "QoS-feasible one (empty = off; uses --predictor)",
                "<K,H>");
  args.add_flag("lookahead-bids", "",
                "comma-separated spot bids the lookahead search may switch "
                "to (requires --lookahead and a live spot market)",
                "<list>");
  args.add_flag("vm-mtbf", "0",
                "per-instance mean time between crash-failures in hours "
                "(0 = no VM crashes)",
                "<double>");
  args.add_flag("host-mtbf", "0",
                "per-occupied-host MTBF in hours; a host crash kills every "
                "VM on it (0 = no host crashes)",
                "<double>");
  args.add_flag("boot-fail-prob", "0",
                "probability a new VM never finishes booting", "<double>");
  args.add_flag("boot-straggler", "0",
                "probability a boot is a heavy-tailed straggler", "<double>");
  args.add_flag("outage", "",
                "IaaS allocation outage windows \"t0:t1[,t0:t1...]\" in "
                "seconds (create_vm fails inside them)",
                "<spec>");
  args.add_flag("boot-delay", "0", "VM boot delay in seconds", "<double>");
  args.add_flag("boot-timeout", "0",
                "boot watchdog: fail instances still booting after this many "
                "seconds (0 = off)",
                "<double>");
  args.add_flag("reconcile", "0",
                "self-healing reconciler check interval in seconds (0 = off)",
                "<double>");
  args.add_flag("timeout", "0",
                "client per-attempt timeout in seconds: admitted attempts not "
                "completed in time are abandoned (0 = off)",
                "<double>");
  args.add_flag("request-deadline", "0",
                "total client deadline per logical request in seconds, from "
                "first arrival; also readable by --shed deadline (0 = off)",
                "<double>");
  args.add_flag("retry", "",
                "client retry policy \"max[:kind[:base[:cap]]]\": max total "
                "attempts (0 = unbounded), kind fixed | jitter, backoff "
                "base/cap in seconds (e.g. 3:jitter:0.05:1)",
                "<spec>");
  args.add_flag("retry-budget", "",
                "token-bucket retry budget \"ratio[:burst]\": retries may not "
                "exceed ratio of fresh traffic (e.g. 0.1:10)",
                "<spec>");
  args.add_flag("breaker", "",
                "circuit breaker \"thresh[:window[:open_s[:probes]]]\": open "
                "at this failure fraction over the outcome window, stay open "
                "open_s seconds, then admit probes (e.g. 0.5:32:5:3)",
                "<spec>");
  args.add_flag("shed", "",
                "server-side load shedding, comma list of \"deadline\" and "
                "\"brownout[:util[:frac[:prio]]]\" (e.g. "
                "deadline,brownout:0.9:0.5:1)",
                "<spec>");
  args.add_flag("market", "false",
                "buy capacity from the IaaS market (src/market) instead of "
                "conjuring uniform VMs; implied by the other market flags");
  args.add_flag("spot-frac", "0",
                "cap on the spot share of the commanded pool "
                "(0 = pure on-demand)",
                "<double>");
  args.add_flag("bid", "0",
                "spot bid in currency per instance-hour (on-demand lists at "
                "1.0/h, spot at 0.35/h); 0 disables spot purchases",
                "<double>");
  args.add_flag("spot-notice", "120",
                "revocation notice window in seconds before the hard kill",
                "<double>");
  args.add_flag("reserved", "0",
                "base-load slots bought as reserved capacity (term-billed)",
                "<int>");
  args.add_flag("market-out", "",
                "write the market ledger + realized spot path of "
                "replication 0 as CSV here",
                "<path>");
  args.add_flag("csv", "", "write aggregate metrics CSV here", "<path>");
  args.add_flag("runs-out", "",
                "write every replication's metrics as CSV here: policy, then "
                "each metric the manifest lists",
                "<path>");
  args.add_flag("decisions", "", "write the adaptive decision timeline CSV here",
                "<path>");
  args.add_flag("trace-out", "",
                "write a Chrome trace-format JSON of replication 0 here "
                "(load in chrome://tracing or ui.perfetto.dev)",
                "<path>");
  args.add_flag("metrics-out", "",
                "write the telemetry metrics registry of replication 0 here",
                "<path>");
  args.add_flag("metrics-format", "csv",
                "metrics registry output format: csv | prom "
                "(Prometheus text exposition)",
                "<name>");
  args.add_flag("trace-capacity", "65536",
                "trace ring capacity in events (oldest dropped beyond this)",
                "<int>");
  args.add_flag("trace-sample-rate", "0",
                "fraction of requests given full lifecycle spans in "
                "replication 0 (deterministic per-request hash; 0 = off)",
                "<double>");
  args.add_flag("spans-out", "",
                "write the sampled request spans of replication 0 as CSV here "
                "(requires --trace-sample-rate > 0)",
                "<path>");
  args.add_flag("drift-out", "",
                "write the model-drift observatory CSV of replication 0 here "
                "(predicted vs observed per analysis window)",
                "<path>");
  args.add_flag("slo-out", "",
                "write the SLO burn-rate samples of replication 0 as CSV "
                "here (also enables burn-rate alerting)",
                "<path>");
  args.add_flag("profile", "false",
                "attribute replication 0's wall time to subsystems and print "
                "the breakdown (output-only: metrics stay bit-identical); "
                "implied by --profile-out / --manifest-out");
  args.add_flag("profile-out", "",
                "profile artifact base path: writes <base>.csv (long-form "
                "profile), <base>.trace.json (Chrome-trace counter tracks), "
                "and <base>.folded (flamegraph folded stacks)",
                "<base>");
  args.add_flag("manifest-out", "",
                "write a run provenance manifest JSON here (build info, "
                "scenario spec, seed streams, metrics, wall-time breakdown); "
                "diff two with bench/compare_runs.py",
                "<path>");
  args.add_flag("profile-interval", "0.1",
                "wall seconds between engine profile snapshots", "<double>");
  args.add_flag("checkpoint", "",
                "write a binary snapshot of replication 0's world here at "
                "--checkpoint-at, then keep running to the horizon",
                "<path>");
  args.add_flag("checkpoint-at", "0",
                "simulation time in seconds at which --checkpoint snapshots "
                "(0 = half the horizon)",
                "<double>");
  args.add_flag("restore", "",
                "resume replication 0 from a checkpoint file instead of "
                "starting at t=0; the workload, policy, and seed flags must "
                "match the run that wrote it (checkpoints carry no config)",
                "<path>");
  args.add_flag("log", "warn", "log level", "<level>");
  args.add_flag("log-file", "", "redirect log lines from stderr to this file",
                "<path>");
  return args;
}

/// The flags the multi-tenant path reads. It builds every tenant's scenario
/// itself, so any other flag would be silently ignored there.
constexpr std::string_view kMultiTenantFlags[] = {
    // the tenant population and its execution
    "tenants", "shards", "tenant-capacity", "tenant-cap", "tenant-zipf-frac",
    "tenant-tiers", "tenant-bot-frac", "tenant-scale", "traced-tenants",
    "tenant-out",
    // settings every tenant shares
    "seed", "days", "interval", "market", "spot-frac", "bid",
    "trace-sample-rate",
    // run outputs
    "profile", "profile-out", "profile-interval", "manifest-out", "log",
    "log-file"};

/// Runs the parsed command line. Bad input throws; main() maps the
/// exception to an exit status.
int run(const ArgParser& args) {
  const std::size_t tenant_count = args.get_count("tenants");
  if (tenant_count > 0) {
    for (const std::string& name : args.set_flags()) {
      if (std::ranges::find(kMultiTenantFlags, name) ==
          std::end(kMultiTenantFlags)) {
        throw std::invalid_argument("--" + name +
                                    " does not apply with --tenants");
      }
    }
  }
  Logger::instance().set_level(Logger::parse_level(args.get_string("log")));
  if (const std::string path = args.get_string("log-file"); !path.empty()) {
    if (!Logger::instance().set_sink_file(path)) {
      std::cerr << "cannot open log file " << path << '\n';
      return 1;
    }
  }

  ScenarioConfig config =
      make_scenario(args.get_string("workload"), args.get_double("scale"));
  if (const std::size_t days = args.get_count("days"); days > 0) {
    config.set_horizon(static_cast<double>(days) * 86400.0);
  }
  config.zipf.alpha = args.get_double("zipf");
  config.zipf.num_keys = args.get_count("keys");
  config.apptier.enabled = args.get_bool("tiers") || args.was_set("ttl") ||
                           args.was_set("cache-vm") ||
                           args.was_set("flush-at") ||
                           args.was_set("cache-crash-at");
  config.apptier.ttl = args.get_double("ttl");
  config.apptier.cache_vms = args.get_count("cache-vm");
  if (const std::string spec = args.get_string("flush-at"); !spec.empty()) {
    config.apptier.flush_at = parse_double_list(spec, "--flush-at");
  }
  if (const std::string spec = args.get_string("cache-crash-at");
      !spec.empty()) {
    config.apptier.cache_crash_at = parse_double_list(spec, "--cache-crash-at");
  }
  if (const double interval = args.get_double("interval"); interval > 0.0) {
    config.analyzer.analysis_interval = interval;
    config.analyzer.lead_time = interval;
  }
  if (const double tolerance = args.get_double("tolerance"); tolerance > 0.0) {
    config.modeler.rejection_tolerance = tolerance;
  }
  if (const std::size_t max_vms = args.get_count("max-vms"); max_vms > 0) {
    config.modeler.max_vms = max_vms;
  }
  config.fault.vm_mtbf = args.get_double("vm-mtbf") * 3600.0;
  config.fault.host_mtbf = args.get_double("host-mtbf") * 3600.0;
  config.fault.boot_fail_prob = args.get_double("boot-fail-prob");
  config.fault.straggler_prob = args.get_double("boot-straggler");
  if (const std::string spec = args.get_string("outage"); !spec.empty()) {
    config.fault.outages = parse_outage_windows(spec);
  }
  config.datacenter.vm_boot_delay = args.get_double("boot-delay");
  config.boot_timeout = args.get_double("boot-timeout");
  if (const double interval = args.get_double("reconcile"); interval > 0.0) {
    config.reconciler.enabled = true;
    config.reconciler.interval = interval;
  }
  if (const double timeout = args.get_double("timeout"); timeout > 0.0) {
    config.resilience.attempt_timeout = timeout;
    config.resilience.enabled = true;
  }
  if (const double deadline = args.get_double("request-deadline");
      deadline > 0.0) {
    config.resilience.request_deadline = deadline;
    config.resilience.enabled = true;
  }
  if (const std::string spec = args.get_string("retry"); !spec.empty()) {
    parse_retry_spec(spec, &config.resilience.retry);
    config.resilience.enabled = true;
  }
  if (const std::string spec = args.get_string("retry-budget"); !spec.empty()) {
    parse_budget_spec(spec, &config.resilience.budget);
    config.resilience.enabled = true;
  }
  if (const std::string spec = args.get_string("breaker"); !spec.empty()) {
    parse_breaker_spec(spec, &config.resilience.breaker);
    config.resilience.enabled = true;
  }
  if (const std::string spec = args.get_string("shed"); !spec.empty()) {
    parse_shed_spec(spec, &config.resilience.shed);
    config.resilience.enabled = true;
  }
  const std::string market_path = args.get_string("market-out");
  config.market.enabled = args.get_bool("market") || args.was_set("spot-frac") ||
                          args.was_set("bid") || args.was_set("reserved") ||
                          !market_path.empty();
  config.market.acquisition.spot_fraction = args.get_double("spot-frac");
  config.market.acquisition.bid = args.get_double("bid");
  config.market.acquisition.reserved_pool = args.get_count("reserved");
  config.market.revocation.notice = args.get_double("spot-notice");

  const std::string policy_name = args.get_string("policy");
  if (policy_name != "adaptive" && policy_name != "static") {
    throw std::invalid_argument("unknown --policy: " + policy_name);
  }
  PolicySpec policy =
      policy_name == "static"
          ? PolicySpec::fixed(args.get_count("instances"))
          : PolicySpec::adaptive(parse_predictor(args.get_string("predictor")));
  if (const std::string spec = args.get_string("lookahead"); !spec.empty()) {
    policy = parse_lookahead_spec(
        spec, parse_predictor(args.get_string("predictor")),
        parse_double_list(args.get_string("lookahead-bids"),
                          "--lookahead-bids"));
  } else if (args.was_set("lookahead-bids")) {
    throw std::invalid_argument("--lookahead-bids requires --lookahead");
  }

  const std::size_t reps = args.get_count("reps", 1);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const std::size_t parallelism = args.get_count("parallelism");

  const std::string checkpoint_path = args.get_string("checkpoint");
  const std::string restore_path = args.get_string("restore");
  double checkpoint_at = args.get_double("checkpoint-at");
  ensure_arg(checkpoint_at >= 0.0 && checkpoint_at <= config.horizon,
             "--checkpoint-at must be in [0, " + fmt(config.horizon, 0) +
                 "] (the horizon in seconds), got " +
                 args.get_string("checkpoint-at"));
  if (checkpoint_at == 0.0) checkpoint_at = config.horizon / 2.0;
  if ((!checkpoint_path.empty() || !restore_path.empty()) && reps != 1) {
    std::cerr << "--checkpoint/--restore snapshot a single world; "
                 "use --reps 1\n";
    return 1;
  }

  const std::string trace_path = args.get_string("trace-out");
  const std::string metrics_path = args.get_string("metrics-out");
  const std::string metrics_format = args.get_string("metrics-format");
  if (metrics_format != "csv" && metrics_format != "prom") {
    throw std::invalid_argument("unknown --metrics-format: " + metrics_format);
  }
  const std::string decisions_path = args.get_string("decisions");
  const std::string spans_path = args.get_string("spans-out");
  const std::string drift_path = args.get_string("drift-out");
  const std::string slo_path = args.get_string("slo-out");
  const double sample_rate = args.get_double("trace-sample-rate");
  std::optional<TelemetryOptions> telemetry_opts;
  if (!trace_path.empty() || !metrics_path.empty() || !spans_path.empty() ||
      !drift_path.empty() || !slo_path.empty() || sample_rate > 0.0) {
    TelemetryOptions opts;
    opts.trace_capacity = args.get_count("trace-capacity");
    opts.span_sample_rate = sample_rate;
    opts.span_seed = seed;
    opts.drift_enabled = !drift_path.empty();
    opts.drift.qos_max_response_time = config.qos.max_response_time;
    opts.slo_enabled = !slo_path.empty();
    telemetry_opts = opts;
  }

  const std::string profile_path = args.get_string("profile-out");
  const std::string manifest_path = args.get_string("manifest-out");
  const bool profiling = args.get_bool("profile") || !profile_path.empty() ||
                         !manifest_path.empty();
  std::optional<WallProfiler> profiler;
  if (profiling) profiler.emplace(args.get_double("profile-interval"));
  WallProfiler* prof = profiler.has_value() ? &*profiler : nullptr;

  // Multi-tenant mode is its own execution path: N applications, one shared
  // capacity pool, sharded window execution (src/experiment/multi_tenant).
  // run() rejected every flag it does not read (kMultiTenantFlags).
  if (tenant_count > 0) {
    MultiTenantConfig mt;
    mt.tenants = tenant_count;
    mt.seed = seed;
    if (const std::size_t days = args.get_count("days"); days > 0) {
      mt.horizon = static_cast<double>(days) * 86400.0;
    }
    if (const double interval = args.get_double("interval"); interval > 0.0) {
      mt.window = interval;
    }
    mt.bot_fraction = args.get_double("tenant-bot-frac");
    mt.zipf_fraction = args.get_double("tenant-zipf-frac");
    mt.zipf_tiers =
        args.get_bool("tenant-tiers") || args.was_set("tenant-zipf-frac");
    mt.tenant_scale = args.get_double("tenant-scale");
    mt.capacity = args.get_count("tenant-capacity");
    mt.per_tenant_cap = args.get_count("tenant-cap");
    mt.market_enabled = config.market.enabled;
    mt.spot_fraction = config.market.acquisition.spot_fraction;
    mt.bid = config.market.acquisition.bid;

    MultiTenantOptions options;
    options.shards = args.get_count("shards");
    options.traced_tenants = args.get_count("traced-tenants");
    options.span_sample_rate = sample_rate > 0.0 ? sample_rate : 1.0;
    options.profiler = prof;

    const MultiTenantResult result = run_multi_tenant(mt, options);
    std::cout << "multi-tenant: " << result.tenants.size() << " tenants, "
              << result.shards << " shard(s), " << result.windows
              << " windows, shared capacity " << result.capacity << "\n\n";
    print_policy_table(std::cout, {aggregate({result.aggregate})});
    if (result.aggregate.cache_hits + result.aggregate.cache_misses > 0) {
      std::cout << "\ncache tier (Zipf tenants): hit ratio "
                << fmt(result.aggregate.cache_hit_ratio, 3) << " ("
                << result.aggregate.cache_hits << " hits / "
                << result.aggregate.cache_misses << " misses), "
                << fmt(result.aggregate.cache_vm_hours, 2)
                << " cache VM-hours\n";
    }
    std::cout << "\ncontention: peak granted " << result.peak_granted << "/"
              << result.capacity << ", grant clips " << result.grant_clips
              << ", instances denied " << result.instances_denied << '\n'
              << result.simulated_events << " events in "
              << fmt(result.wall_seconds, 2) << " s ("
              << fmt(result.wall_seconds > 0.0
                         ? static_cast<double>(result.simulated_events) /
                               result.wall_seconds
                         : 0.0,
                     0)
              << " events/s across " << result.tenants.size()
              << " tenant kernels on " << result.shards << " worker(s))\n";
    if (const std::string path = args.get_string("tenant-out");
        !path.empty()) {
      std::ofstream out(path);
      write_tenant_csv(out, result);
      std::cout << "per-tenant metrics written to " << path << '\n';
    }
    if (prof != nullptr) {
      std::cout << '\n';
      write_profile_summary(std::cout, *prof, result.wall_seconds);
      if (!profile_path.empty()) {
        {
          std::ofstream out(profile_path + ".csv");
          write_profile_csv(out, *prof);
        }
        {
          std::ofstream out(profile_path + ".folded");
          write_folded_stacks(out, *prof);
        }
        std::cout << "profile written to " << profile_path
                  << ".{csv,folded}\n";
      }
    }
    if (!manifest_path.empty()) {
      std::ofstream out(manifest_path);
      write_multi_tenant_manifest(out, mt, result, prof);
      std::cout << "run manifest written to " << manifest_path << '\n';
    }
    return 0;
  }

  // Telemetry, the decision timeline, and the wall profile always describe
  // replication 0, no matter how the batch is executed.
  std::vector<RunMetrics> runs;
  std::vector<AdaptivePolicy::DecisionRecord> decisions;
  std::unique_ptr<Telemetry> telemetry;
  std::optional<MarketReport> market_report;  // replication 0's ledger
  RunMetrics instrumented;  // metrics of the telemetry-carrying run
  const std::vector<std::uint64_t> seeds = replication_seeds(reps, seed);
  // Pick the loop by the workers that would actually run: one replication
  // always takes the sequential loop, which honours --checkpoint/--restore
  // and runs replication 0 once.
  if (effective_parallelism(parallelism, reps) == 1) {
    for (std::size_t i = 0; i < reps; ++i) {
      RunOutput output =
          i == 0 && (!checkpoint_path.empty() || !restore_path.empty())
              ? run_replication_zero(config, policy, seeds[i], telemetry_opts,
                                     restore_path, checkpoint_path,
                                     checkpoint_at, prof)
              : run_scenario(config, policy, seeds[i],
                             i == 0 ? telemetry_opts
                                    : std::optional<TelemetryOptions>{},
                             i == 0 ? prof : nullptr);
      std::cerr << "rep " << i + 1 << "/" << reps << ": "
                << output.metrics.generated << " requests in "
                << fmt(output.metrics.wall_seconds, 1) << " s\n";
      if (i == 0) {
        decisions = std::move(output.decisions);
        telemetry = std::move(output.telemetry);
        market_report = std::move(output.market);
        instrumented = output.metrics;
      }
      runs.push_back(std::move(output.metrics));
    }
  } else {
    runs = run_replications(
        config, policy, reps, seed,
        [&](const RunMetrics& m) {
          std::cerr << "rep seed=" << m.seed << ": " << m.generated
                    << " requests in " << fmt(m.wall_seconds, 1) << " s\n";
        },
        parallelism);
    // Instrumentation needs a dedicated sequential pass (the collector is
    // per-replication and the workers only keep metrics; the profiler is
    // single-threaded by design).
    if (telemetry_opts.has_value() || !decisions_path.empty() ||
        !market_path.empty() || prof != nullptr) {
      RunOutput output =
          run_scenario(config, policy, seeds[0], telemetry_opts, prof);
      decisions = std::move(output.decisions);
      telemetry = std::move(output.telemetry);
      market_report = std::move(output.market);
      instrumented = std::move(output.metrics);
    }
  }
  const AggregateMetrics agg = aggregate(runs);

  std::cout << "scenario: " << to_string(config.workload) << " @ scale "
            << config.scale << ", horizon " << config.horizon / 86400.0
            << " day(s), policy " << policy.label(config.scale) << "\n\n";
  print_policy_table(std::cout, {agg});
  std::cout << "\n95% CIs: rejection " << fmt_ci(agg.rejection_rate, 4)
            << ", utilization " << fmt_ci(agg.utilization, 3) << ", VM-hours "
            << fmt_ci(agg.vm_hours, 1) << '\n';
  const bool faults = config.fault.enabled() || config.reconciler.enabled;
  std::vector<MetricGroup> layers;
  if (faults) layers.push_back(MetricGroup::kFault);
  if (config.market.enabled) layers.push_back(MetricGroup::kMarket);
  if (config.resilience.enabled) layers.push_back(MetricGroup::kResilience);
  if (config.apptier.enabled) layers.push_back(MetricGroup::kApptier);
  if (!layers.empty()) {
    std::cout << "\nenabled layers (per replication):\n";
    print_metric_table(std::cout, runs, layers);
  }
  if (faults) {
    std::cout << "availability " << fmt_ci(agg.availability, 4) << " (95% CI)\n";
  }
  if (config.market.enabled) {
    std::cout << "billed cost " << fmt_ci(agg.billed_cost, 2) << " (95% CI)\n";
  }

  if (const std::string path = args.get_string("csv"); !path.empty()) {
    std::ofstream out(path);
    write_policy_csv(out, {agg});
    std::cout << "metrics CSV written to " << path << '\n';
  }
  if (const std::string path = args.get_string("runs-out"); !path.empty()) {
    std::ofstream out(path);
    write_runs_csv(out, runs);
    std::cout << "per-replication metrics written to " << path << '\n';
  }
  if (!decisions_path.empty() && !decisions.empty()) {
    write_decisions_csv(decisions_path, decisions);
  }
  if (!market_path.empty() && market_report.has_value()) {
    std::ofstream out(market_path);
    write_market_csv(out, *market_report);
    std::cout << "market ledger written to " << market_path << " ("
              << market_report->ledger.size() << " purchases, "
              << market_report->spot_path.size() << " price points)\n";
  }
  if (telemetry != nullptr) {
    if (sample_rate > 0.0 || !drift_path.empty() || !slo_path.empty()) {
      std::cout << "\nobservability (replication 0):\n";
      print_metric_table(std::cout, {instrumented},
                         {MetricGroup::kObservability});
    }
    if (!trace_path.empty()) {
      ProfileScope profile_export(prof, ProfileCategory::kExportTrace);
      std::ofstream out(trace_path);
      write_chrome_trace(out, telemetry->trace(),
                         "cloudprov " + policy.label(config.scale),
                         telemetry->spans());
      std::cout << "trace written to " << trace_path << " ("
                << telemetry->trace().size() << " events, "
                << telemetry->trace().dropped() << " dropped)\n";
    }
    if (!metrics_path.empty()) {
      ProfileScope profile_export(prof, ProfileCategory::kExportMetrics);
      std::ofstream out(metrics_path);
      if (metrics_format == "prom") {
        write_prometheus_text(out, telemetry->metrics().snapshot());
      } else {
        write_metrics_csv(out, telemetry->metrics().snapshot());
      }
      std::cout << "telemetry metrics written to " << metrics_path << " ("
                << metrics_format << ")\n";
    }
    if (!spans_path.empty() && telemetry->spans() != nullptr) {
      ProfileScope profile_export(prof, ProfileCategory::kExportSpans);
      std::ofstream out(spans_path);
      write_span_csv(out, *telemetry->spans());
      std::cout << "request spans written to " << spans_path << " ("
                << telemetry->spans()->finished().size() << " traces, "
                << telemetry->spans()->dropped() << " dropped)\n";
    }
    if (!drift_path.empty() && telemetry->drift() != nullptr) {
      ProfileScope profile_export(prof, ProfileCategory::kExportDrift);
      std::ofstream out(drift_path);
      write_drift_csv(out, *telemetry->drift());
      std::cout << "model-drift windows written to " << drift_path << " ("
                << telemetry->drift()->windows().size() << " windows)\n";
    }
    if (!slo_path.empty() && telemetry->slo() != nullptr) {
      ProfileScope profile_export(prof, ProfileCategory::kExportSlo);
      std::ofstream out(slo_path);
      write_slo_csv(out, *telemetry->slo());
      std::cout << "SLO burn-rate samples written to " << slo_path << " ("
                << telemetry->slo()->alerts().size() << " alert edges)\n";
    }
  }

  if (prof != nullptr) {
    std::cout << '\n';
    write_profile_summary(std::cout, *prof, instrumented.wall_seconds);
    if (!profile_path.empty()) {
      ProfileScope profile_export(prof, ProfileCategory::kExportProfile);
      {
        std::ofstream out(profile_path + ".csv");
        write_profile_csv(out, *prof);
      }
      {
        std::ofstream out(profile_path + ".trace.json");
        write_profile_chrome_trace(out, *prof);
      }
      {
        std::ofstream out(profile_path + ".folded");
        write_folded_stacks(out, *prof);
      }
    }
    if (!profile_path.empty()) {
      std::cout << "profile written to " << profile_path << ".{csv,trace.json,"
                << "folded} (" << prof->snapshots().size() << " snapshots)\n";
    }
  }
  // The manifest goes last so its wall section sees every export scope.
  if (!manifest_path.empty()) {
    {
      ProfileScope profile_export(prof, ProfileCategory::kExportManifest);
      // --manifest-out implies --profile, so `instrumented` is always the
      // profiled replication's metrics (replication 0's seed either way).
      std::ofstream out(manifest_path);
      write_run_manifest(out, config, policy.label(config.scale), seed, reps,
                         instrumented, prof);
    }
    std::cout << "run manifest written to " << manifest_path << '\n';
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args = make_args();
  // A bad flag or value is a usage error (exit 2); anything else that stops
  // the run, such as an unreadable checkpoint, is a runtime error (exit 1).
  const auto usage_error = [&](const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n\n" << args.help();
    return 2;
  };
  try {
    if (!args.parse(argc, argv)) return 0;
    return run(args);
  } catch (const std::invalid_argument& error) {
    return usage_error(error);
  } catch (const std::out_of_range& error) {
    return usage_error(error);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 1;
  }
}
