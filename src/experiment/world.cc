#include "experiment/world.h"

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "core/admission.h"
#include "core/provisioning_policy.h"
#include "lookahead/checkpoint.h"
#include "predict/ar_model.h"
#include "predict/ewma.h"
#include "predict/moving_average.h"
#include "predict/oracle.h"
#include "predict/periodic_profile.h"
#include "predict/qrsm.h"
#include "profile/wall_profiler.h"
#include "util/check.h"
#include "util/log.h"
#include "workload/bot_workload.h"
#include "workload/source.h"
#include "workload/web_workload.h"
#include "workload/zipf_workload.h"

namespace cloudprov {
namespace {

/// A bounded what-if clone checks its bounds this many times per analysis
/// window (every 5 s of a 60 s window). In a one-day web search (scale
/// 0.01, K = 3, H = 3) checks at window boundaries stopped 1,738 of the
/// 2,879 losing clones; 5 s and 1 s steps both stopped all 2,879.
constexpr double kBoundChecksPerWindow = 12.0;

/// Hosts backing the cache pool's private datacenter.
constexpr std::size_t kCacheHosts = 200;
/// The cache tier's own QoS: hits should be fast.
constexpr QosTargets kCacheQos{0.050, 0.0, 0.5};
/// Tm seed for the cache pool before its first completion.
constexpr double kInitialCacheServiceEstimate = 0.011;

/// `profile` holds the scenario's periodic profile once built; the
/// predictor returned for kProfile is a copy sharing its table.
std::shared_ptr<ArrivalRatePredictor> make_predictor(
    const ScenarioConfig& config, PredictorKind kind,
    const RequestSource& source,
    std::shared_ptr<const PeriodicProfilePredictor>& profile) {
  switch (kind) {
    case PredictorKind::kProfile:
      if (config.workload == WorkloadKind::kZipf) {
        // The Zipf workload has no periodic profile — its published curve is
        // the flat base rate with flash-crowd windows, which expected_rate
        // reports exactly; the oracle over the source is that "profile".
        return std::make_shared<OraclePredictor>(source, /*margin=*/0.05);
      }
      if (profile == nullptr) {
        profile = std::make_shared<const PeriodicProfilePredictor>(
            config.workload == WorkloadKind::kWeb
                ? web_profile_predictor(config.web)
                : bot_profile_predictor(config.bot));
      }
      return std::make_shared<PeriodicProfilePredictor>(*profile);
    case PredictorKind::kOracle:
      return std::make_shared<OraclePredictor>(source, /*margin=*/0.05);
    case PredictorKind::kEwma:
      return std::make_shared<EwmaPredictor>(/*alpha=*/0.3, /*headroom=*/0.15);
    case PredictorKind::kMovingAverage:
      return std::make_shared<MovingAveragePredictor>(
          /*window=*/10, MovingAveragePredictor::Mode::kMax, /*headroom=*/0.1);
    case PredictorKind::kAr:
      return std::make_shared<ArPredictor>(/*order=*/4, /*history=*/60,
                                           /*headroom=*/0.15);
    case PredictorKind::kQrsm:
      return std::make_shared<QrsmPredictor>(/*history=*/15, /*headroom=*/0.15);
  }
  ensure(false, "make_predictor: unknown kind");
  return nullptr;
}

double scenario_service_base(const ScenarioConfig& config) {
  switch (config.workload) {
    case WorkloadKind::kWeb: return config.web.service_base;
    case WorkloadKind::kScientific: return config.bot.service_base;
    case WorkloadKind::kZipf: return config.zipf.service_base;
  }
  return config.web.service_base;
}

double scenario_service_spread(const ScenarioConfig& config) {
  switch (config.workload) {
    case WorkloadKind::kWeb: return config.web.service_spread;
    case WorkloadKind::kScientific: return config.bot.service_spread;
    case WorkloadKind::kZipf: return config.zipf.service_spread;
  }
  return config.web.service_spread;
}

/// Synthetic Poisson arrival process for what-if clones: exponential
/// interarrivals at a fixed forecast rate, service demands drawn as
/// base * U(1, 1 + spread) — the same family as the scenario sources, so a
/// clone's service-time statistics stay in-distribution.
class PoissonForecastSource final : public RequestSource {
 public:
  PoissonForecastSource(double rate, double service_base, double service_spread,
                        SimTime start_time)
      : rate_(rate),
        service_base_(service_base),
        service_spread_(service_spread),
        cursor_(start_time) {}

  std::optional<Arrival> next(Rng& rng) override {
    if (rate_ <= 0.0) return std::nullopt;
    cursor_ += rng.exponential(rate_);
    Arrival arrival;
    arrival.time = cursor_;
    arrival.service_demand =
        service_base_ * rng.uniform(1.0, 1.0 + service_spread_);
    return arrival;
  }

  double expected_rate(SimTime) const override { return rate_; }
  std::string name() const override { return "forecast-poisson"; }

 private:
  double rate_;
  double service_base_;
  double service_spread_;
  SimTime cursor_;
};

}  // namespace

std::unique_ptr<RequestSource> make_scenario_source(
    const ScenarioConfig& config) {
  if (config.workload == WorkloadKind::kWeb) {
    return std::make_unique<WebWorkload>(config.web);
  }
  if (config.workload == WorkloadKind::kZipf) {
    return std::make_unique<ZipfWorkload>(config.zipf);
  }
  return std::make_unique<BotWorkload>(config.bot);
}

void World::build_platform(bool track_quantiles) {
  sim_.set_telemetry(telemetry_.get());
  sim_.set_profiler(profiler_);
  datacenter_.emplace(sim_, config_.datacenter,
                      std::make_unique<LeastLoadedPlacement>());
  datacenter_->set_telemetry(telemetry_.get());

  ProvisionerConfig prov_config;
  prov_config.vm_spec = VmSpec{};  // 1 core, 2 GB, unit speed
  prov_config.initial_service_time_estimate =
      config_.initial_service_time_estimate;
  prov_config.boot_timeout = config_.boot_timeout;
  prov_config.track_quantiles = track_quantiles;
  std::unique_ptr<AdmissionPolicy> admission;
  if (config_.resilience.enabled && config_.resilience.shed.enabled()) {
    auto shedding = std::make_unique<SheddingAdmission>(config_.resilience.shed,
                                                        telemetry_.get());
    shedding_ = shedding.get();
    admission = std::move(shedding);
  } else {
    admission = std::make_unique<KBoundAdmission>();
  }
  provisioner_.emplace(sim_, *datacenter_, config_.qos, prov_config,
                       std::move(admission));
  provisioner_->set_telemetry(telemetry_.get());

  // The market broker is attached before any policy commands capacity so
  // even the initial pool is bought on the market.
  if (config_.market.enabled) {
    market_.emplace(sim_, *datacenter_, config_.market,
                    config_.market.price_seed_override != 0
                        ? config_.market.price_seed_override
                        : streams_.market);
    market_->set_telemetry(telemetry_.get());
    market_->attach(*provisioner_);
  }
  if (config_.fault.enabled()) {
    faults_.emplace(sim_, *datacenter_, *provisioner_, config_.fault,
                    streams_.fault);
    faults_->set_telemetry(telemetry_.get());
  }
  if (config_.reconciler.enabled) {
    reconciler_.emplace(sim_, *provisioner_, config_.reconciler);
    reconciler_->set_telemetry(telemetry_.get());
  }
  if (config_.resilience.enabled) {
    gateway_.emplace(sim_, *provisioner_, config_.resilience,
                     Rng(streams_.resilience), telemetry_.get());
  }

  if (config_.apptier.enabled) {
    ensure_arg(policy_.kind != PolicySpec::Kind::kLookahead,
               "World: the lookahead policy does not support apptier yet");
    // The cache pool lives in its own small datacenter so its cheap VMs
    // never compete with backend hosts. It is untelemetered at the VM level
    // (its VM ids would collide with the backend datacenter's); the pool's
    // size is observed through the apptier cache lane instead.
    DatacenterConfig cache_dc = config_.datacenter;
    cache_dc.host_count = kCacheHosts;
    cache_datacenter_.emplace(sim_, cache_dc,
                              std::make_unique<LeastLoadedPlacement>());

    // Cache VMs take the default 1-core shape: they are sized by directory
    // capacity, not compute.
    ProvisionerConfig cache_prov;
    cache_prov.initial_service_time_estimate = kInitialCacheServiceEstimate;
    cache_provisioner_.emplace(sim_, *cache_datacenter_, kCacheQos,
                               cache_prov, std::make_unique<KBoundAdmission>());
    cache_provisioner_->set_telemetry(telemetry_.get());
    cache_provisioner_->set_cache_instance_lane(true);

    // Built after the gateway so the tier's completion-listener chaining
    // wraps whatever the gateway installed. Misses go to request_sink().
    cache_tier_.emplace(sim_, config_.apptier, config_.qos,
                        *cache_provisioner_, *provisioner_, request_sink(),
                        Rng(streams_.apptier), telemetry_.get());
  }
}

RequestSink& World::request_sink() {
  if (gateway_.has_value()) return *gateway_;
  return *provisioner_;
}

RequestSink& World::front_door() {
  if (cache_tier_.has_value()) return *cache_tier_;
  return request_sink();
}

void World::build_policy(const WorldState* restored, const WhatIfSpec* fork) {
  const AdaptivePolicy::State* policy_state =
      restored != nullptr && restored->policy_present ? &restored->policy
                                                      : nullptr;
  if (cache_tier_.has_value() && policy_.kind != PolicySpec::Kind::kStatic) {
    // Tiered worlds replace AdaptivePolicy with the per-tier Algorithm 1;
    // its checkpoint is shape-compatible with AdaptivePolicy::State, so the
    // restore path reuses the policy state verbatim.
    tiered_ = std::make_unique<TieredProvisioner>(
        sim_, make_predictor(config_, policy_.predictor, *source_, profile_),
        config_.modeler, config_.analyzer, config_.apptier);
    tiered_->set_telemetry(telemetry_.get());
    if (policy_state != nullptr) {
      tiered_->restore_attach(*provisioner_, *cache_provisioner_, *cache_tier_,
                              *policy_state);
    }
    return;
  }
  if (policy_.kind == PolicySpec::Kind::kStatic) {
    if (policy_state == nullptr) {
      prov_policy_ = std::make_unique<StaticPolicy>(
          config_.scaled_instances(policy_.static_instances));
    }
    // Restored static worlds need no policy object at all: the pool size is
    // already part of the provisioner snapshot and never changes again.
    return;
  }

  auto owned = std::make_unique<AdaptivePolicy>(
      sim_, make_predictor(config_, policy_.predictor, *source_, profile_),
      config_.modeler, config_.analyzer);
  adaptive_ = owned.get();
  adaptive_->set_telemetry(telemetry_.get());
  if (policy_.kind == PolicySpec::Kind::kLookahead && fork == nullptr) {
    LookaheadConfig lookahead = policy_.lookahead;
    lookahead.seed = streams_.lookahead;
    adaptive_->set_lookahead(this, std::move(lookahead));
  }
  prov_policy_ = std::move(owned);
  if (policy_state != nullptr) {
    adaptive_->restore_attach(*provisioner_, *policy_state,
                              restored->lookahead_rng);
  }
}

World::World(const ScenarioConfig& config, const PolicySpec& policy,
             std::uint64_t seed,
             const std::optional<TelemetryOptions>& telemetry_opts,
             WallProfiler* profiler)
    : config_(config),
      policy_(policy),
      seed_(seed),
      streams_(derive_streams(seed)),
      wall_start_(std::chrono::steady_clock::now()),
      profiler_(profiler) {
  ProfileScope profile_build(profiler_, ProfileCategory::kWorldBuild);
  if (telemetry_opts.has_value()) {
    telemetry_ = std::make_unique<Telemetry>(*telemetry_opts);
  }
  build_platform(/*track_quantiles=*/true);
  source_ = make_scenario_source(config_);
  broker_.emplace(sim_, *source_, front_door(), Rng(streams_.workload));
  build_policy(nullptr, nullptr);
}

World::World(const ScenarioConfig& config, const PolicySpec& policy,
             std::uint64_t seed, const WorldState& state,
             WallProfiler* profiler)
    : config_(config),
      policy_(policy),
      seed_(seed),
      streams_(derive_streams(seed)),
      wall_start_(std::chrono::steady_clock::now()),
      profiler_(profiler) {
  ProfileScope profile_build(profiler_, ProfileCategory::kWorldBuild);
  restore(state, nullptr, 0);
}

World::World(const World& parent, const WorldState& base,
             const WhatIfSpec& fork)
    : config_(parent.config_),
      policy_(parent.policy_),
      seed_(parent.seed_),
      streams_(parent.streams_),
      wall_start_(std::chrono::steady_clock::now()),
      profile_(parent.profile_) {
  restore(base, &fork, parent.sim_.queue().slab_high_water());
}

void World::restore(const WorldState& state, const WhatIfSpec* fork,
                    std::size_t event_capacity) {
  sim_.queue().reserve(event_capacity);
  if (state.telemetry != nullptr) telemetry_ = state.telemetry->clone();
  build_platform(/*track_quantiles=*/fork == nullptr);
  // Component restore order is free (each re-pushes under explicit stamps);
  // only the clock restore must come last, after every re-push.
  datacenter_->restore(state.datacenter);
  provisioner_->restore(state.provisioner);
  if (market_.has_value() && state.market.has_value()) {
    market_->restore(*state.market);
  }
  if (faults_.has_value() && state.faults.has_value()) {
    faults_->restore(*state.faults);
  }
  if (reconciler_.has_value() && state.reconciler.has_value()) {
    reconciler_->restore(*state.reconciler);
  }
  if (gateway_.has_value() && state.resilience.has_value()) {
    gateway_->restore(state.resilience->gateway);
    if (shedding_ != nullptr) shedding_->restore(state.resilience->shedding);
  }
  if (cache_tier_.has_value() && state.apptier.has_value()) {
    cache_datacenter_->restore(state.apptier->cache_datacenter);
    cache_provisioner_->restore(state.apptier->cache_provisioner);
    cache_tier_->restore(*state.apptier);
  }

  Broker::Snapshot broker_snap = state.broker;
  if (fork != nullptr) {
    // What-if fork: future arrivals come from a synthetic Poisson stream at
    // the forecast rate, continuing from the in-flight arrival's timestamp,
    // on a per-window stream (common random numbers across candidates).
    source_ = std::make_unique<PoissonForecastSource>(
        fork->forecast_rate, scenario_service_base(config_),
        scenario_service_spread(config_), state.broker.pending_arrival.time);
    broker_snap.rng = Rng(fork->forecast_seed).state();
  } else {
    source_ = make_scenario_source(config_);
    source_->load_state(state.source);
  }
  broker_.emplace(sim_, *source_, front_door(), Rng(streams_.workload));
  broker_->restore(broker_snap);

  build_policy(&state, fork);
  if (tiered_ != nullptr && state.apptier.has_value()) {
    tiered_->restore_cache_decisions(state.apptier->cache_decisions);
  }

  sim_.restore_clock(state.now, state.executed_events, state.push_counter);
  started_ = true;

  // The candidate acts only after the clock is back, so any VM churn it
  // causes is stamped at the fork time like the live commit would be.
  if (fork != nullptr) {
    if (fork->bid.has_value() && market_.has_value()) {
      market_->set_bid(*fork->bid);
    }
    provisioner_->scale_to(fork->target_instances);
  }
}

World::~World() = default;

void World::start() {
  ensure(!started_, "World::start: already started (or restored)");
  started_ = true;
  if (prov_policy_ != nullptr) prov_policy_->attach(*provisioner_);
  if (tiered_ != nullptr) {
    tiered_->attach(*provisioner_, *cache_provisioner_, *cache_tier_);
  } else if (cache_provisioner_.has_value()) {
    // Static tiered world: a fixed cache pool alongside the static backend.
    cache_provisioner_->scale_to(
        std::max<std::size_t>(config_.apptier.cache_vms, 1));
  }
  if (cache_tier_.has_value()) cache_tier_->start();
  broker_->start();
  if (faults_.has_value()) faults_->start();
  if (reconciler_.has_value()) reconciler_->start();
  if (market_.has_value()) market_->start();
}

void World::run_to(SimTime t) {
  ensure(started_, "World::run_to: start() first");
  ensure_arg(t >= sim_.now(), "World::run_to: t lies before the world's clock");
  sim_.run(t);
}

SimTime World::now() const { return sim_.now(); }

std::size_t World::desired_instances() const {
  return provisioner_->desired_target();
}

void World::apply_capacity_grant(std::size_t grant) {
  provisioner_->set_capacity_cap(grant);
}

World::Counters World::counters() const {
  Counters c;
  c.generated = broker_->generated();
  c.accepted = provisioner_->accepted();
  c.rejected = provisioner_->rejected();
  c.completed = provisioner_->completed();
  c.qos_violations = provisioner_->qos_violations();
  if (cache_tier_.has_value()) {
    c.accepted += cache_provisioner_->accepted();
    c.rejected += cache_provisioner_->rejected();
    c.completed += cache_provisioner_->completed();
    c.qos_violations = cache_tier_->qos_violations();
    c.cache_hits = cache_tier_->hits();
    c.cache_misses = cache_tier_->misses();
  }
  return c;
}

WorldState World::snapshot(bool include_records) const {
  ProfileScope profile_snapshot(profiler_, ProfileCategory::kSnapshot);
  WorldState state;
  state.now = sim_.now();
  state.executed_events = sim_.executed_events();
  state.push_counter = sim_.event_push_counter();
  state.datacenter = datacenter_->snapshot();
  state.provisioner = provisioner_->checkpoint();
  state.broker = broker_->snapshot();
  source_->save_state(state.source);
  if (adaptive_ != nullptr) {
    state.policy_present = true;
    state.policy = adaptive_->checkpoint(include_records);
    state.lookahead_rng = adaptive_->forecast_rng_state();
  } else if (tiered_ != nullptr) {
    state.policy_present = true;
    state.policy = tiered_->checkpoint(include_records);
  }
  if (market_.has_value()) state.market = market_->checkpoint();
  if (faults_.has_value()) state.faults = faults_->checkpoint();
  if (reconciler_.has_value()) state.reconciler = reconciler_->checkpoint();
  if (gateway_.has_value()) {
    WorldState::ResilienceState resilience;
    resilience.gateway = gateway_->checkpoint();
    if (shedding_ != nullptr) resilience.shedding = shedding_->checkpoint();
    state.resilience = std::move(resilience);
  }
  if (cache_tier_.has_value()) {
    ApptierState apptier;
    apptier.cache_datacenter = cache_datacenter_->snapshot();
    apptier.cache_provisioner = cache_provisioner_->checkpoint();
    cache_tier_->capture(apptier);
    if (tiered_ != nullptr && include_records) {
      apptier.cache_decisions = tiered_->cache_decisions();
    }
    state.apptier = std::move(apptier);
  }
  if (include_records && telemetry_ != nullptr) {
    state.telemetry = telemetry_->clone();
  }
  clear_padding(state);
  return state;
}

RunOutput World::finish() {
  ProfileScope profile_finish(profiler_, ProfileCategory::kWorldFinish);
  if (telemetry_ != nullptr) {
    // Close the drift observatory's trailing window and take a final SLO
    // reading at the horizon (both purely observational).
    if (DriftMonitor* drift = telemetry_->drift(); drift != nullptr) {
      drift->finalize(sim_.now(), datacenter_->vm_hours(),
                      datacenter_->busy_vm_hours());
    }
    if (SloMonitor* slo = telemetry_->slo(); slo != nullptr) {
      slo->evaluate(sim_.now());
    }
  }

  RunOutput output;
  RunMetrics& m = output.metrics;
  m.policy = policy_.label(config_.scale);
  m.seed = seed_;
  const Counters counted = counters();
  m.generated = counted.generated;
  m.accepted = counted.accepted;
  m.rejected = counted.rejected;
  m.completed = counted.completed;
  m.qos_violations = counted.qos_violations;
  m.cache_hits = counted.cache_hits;
  m.cache_misses = counted.cache_misses;
  m.avg_response_time = provisioner_->response_time_stats().mean();
  m.std_response_time = provisioner_->response_time_stats().stddev();
  m.p95_response_time = provisioner_->response_p95();
  m.p99_response_time = provisioner_->response_p99();

  // Advance the time-weighted instance series to the horizon, then read it.
  TimeWeightedValue history = provisioner_->instance_history();
  history.advance(sim_.now());
  m.min_instances = history.min();
  m.max_instances = history.max();
  m.avg_instances = history.time_average();

  m.vm_hours = datacenter_->vm_hours();
  m.busy_vm_hours = datacenter_->busy_vm_hours();
  m.utilization = datacenter_->utilization();
  m.rejection_rate = provisioner_->rejection_rate();

  m.instance_failures = provisioner_->instance_failures();
  m.vm_crashes = provisioner_->failures_by_cause(FaultCause::kVmCrash);
  m.host_crashes = datacenter_->failed_hosts();
  m.boot_failures = provisioner_->failures_by_cause(FaultCause::kBootFailure);
  m.boot_timeouts = provisioner_->boot_timeouts();
  m.lost_requests = provisioner_->lost_to_failures();
  m.lost_to_vm_crashes = provisioner_->lost_by_cause(FaultCause::kVmCrash);
  m.lost_to_host_crashes = provisioner_->lost_by_cause(FaultCause::kHostCrash);
  m.availability = sim_.now() > 0.0
                       ? 1.0 - provisioner_->deficit_seconds() / sim_.now()
                       : 1.0;
  m.recoveries = provisioner_->recovery_time_stats().count();
  m.mttr_mean = provisioner_->recovery_time_stats().empty()
                    ? 0.0
                    : provisioner_->recovery_time_stats().mean();
  m.mttr_max = provisioner_->recovery_time_stats().empty()
                   ? 0.0
                   : provisioner_->recovery_time_stats().max();
  if (reconciler_.has_value()) {
    m.reconciler_heals = reconciler_->heals();
    m.reconciler_retries = reconciler_->retries();
    m.reconciler_aborts = reconciler_->aborts();
  }
  m.final_instances = provisioner_->active_instances();
  m.capacity_clips = provisioner_->capacity_clips();
  m.capacity_denied = provisioner_->capacity_denied();

  if (cache_tier_.has_value()) {
    // The tier owns the end-to-end response statistics: neither pool sees
    // every completion (counters() sums the two pools' admissions).
    m.avg_response_time = cache_tier_->response_time_stats().mean();
    m.std_response_time = cache_tier_->response_time_stats().stddev();
    m.p95_response_time = cache_tier_->response_p95();
    m.p99_response_time = cache_tier_->response_p99();
    const std::uint64_t arrivals = m.accepted + m.rejected;
    m.rejection_rate =
        arrivals > 0
            ? static_cast<double>(m.rejected) / static_cast<double>(arrivals)
            : 0.0;

    m.cache_hit_ratio = cache_tier_->hit_ratio();
    m.cache_fills = cache_tier_->fills();
    m.cache_evictions = cache_tier_->evictions();
    m.cache_expirations = cache_tier_->expirations();
    m.cache_invalidations = cache_tier_->invalidations();
    m.cache_flushes = cache_tier_->flushes();
    m.cache_vm_hours = cache_datacenter_->vm_hours();
    m.cache_utilization = cache_datacenter_->utilization();
    TimeWeightedValue cache_history = cache_provisioner_->instance_history();
    cache_history.advance(sim_.now());
    m.cache_avg_instances = cache_history.time_average();
    m.cache_final_instances = cache_provisioner_->active_instances();
    m.lambda_miss_mean = cache_tier_->lambda_miss_mean();
    m.cache_avg_response_time = cache_provisioner_->response_time_stats().mean();
    m.backend_avg_response_time = provisioner_->response_time_stats().mean();
  }

  if (gateway_.has_value()) {
    m.client_requests = gateway_->client_requests();
    m.client_succeeded = gateway_->client_succeeded();
    m.client_failed = gateway_->client_failed();
    m.client_attempts = gateway_->client_attempts();
    m.client_retries = gateway_->client_retries();
    m.retry_budget_denied = gateway_->retry_budget_denied();
    m.client_timeouts = gateway_->client_timeouts();
    m.wasted_completions = gateway_->wasted_completions();
    m.breaker_opens = gateway_->breaker_opens();
    m.breaker_half_opens = gateway_->breaker_half_opens();
    m.breaker_closes = gateway_->breaker_closes();
    m.breaker_fast_fails = gateway_->breaker_fast_fails();
  }
  if (shedding_ != nullptr) {
    shedding_->flush();
    m.shed_deadline = shedding_->shed_deadline();
    m.shed_brownout = shedding_->shed_brownout();
  }

  if (telemetry_ != nullptr) {
    if (const SloMonitor* slo = telemetry_->slo(); slo != nullptr) {
      m.slo_response_alerts = slo->response_alerts();
      m.slo_rejection_alerts = slo->rejection_alerts();
      m.slo_worst_burn_rate = slo->worst_burn_rate();
    }
    if (const DriftMonitor* drift = telemetry_->drift(); drift != nullptr) {
      m.drift_windows = drift->closed_windows();
      const DriftMonitor::ErrorStats response = drift->response_error();
      m.drift_response_mape = response.mape;
      m.drift_response_bias = response.bias;
    }
    if (const SpanTracer* spans = telemetry_->spans(); spans != nullptr) {
      m.spans_traced = spans->traced();
    }
  }

  if (market_.has_value()) {
    market_->stop();
    const MarketReport report = market_->finalize(sim_.now());
    m.billed_cost = report.total_cost;
    m.on_demand_cost = report.on_demand_cost;
    m.spot_cost = report.spot_cost;
    m.reserved_cost = report.reserved_cost;
    m.on_demand_purchases = report.on_demand_purchases;
    m.spot_purchases = report.spot_purchases;
    m.reserved_purchases = report.reserved_purchases;
    m.spot_revocations = report.revocations;
    m.revocation_kills = report.revocation_kills;
    m.lost_to_revocations =
        provisioner_->lost_by_cause(FaultCause::kSpotRevocation);
    m.spot_price_mean = report.spot_price_mean;
    m.spot_price_max = report.spot_price_max;
    output.market = report;
  }

  m.simulated_events = sim_.executed_events();
  m.wall_seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - wall_start_)
                       .count();
  if (profiler_ != nullptr) {
    // Final engine sample so short runs (and the tail since the last
    // periodic snapshot) always appear in the exported profile.
    const EventQueue& q = sim_.queue();
    profiler_->force_snapshot(sim_.now(), sim_.executed_events(), q.size(),
                              q.heap_depth(), q.heap_high_water(),
                              q.slab_high_water(), q.stale_drops(),
                              q.boxed_pushed_count());
  }
  if (adaptive_ != nullptr) output.decisions = adaptive_->decisions();
  if (tiered_ != nullptr) output.decisions = tiered_->decisions();
  if (cache_tier_.has_value()) output.apptier_series = cache_tier_->series();
  output.telemetry = std::move(telemetry_);
  return output;
}

WhatIfOutcome World::what_if(const WhatIfSpec& spec) {
  // Clones run unprofiled (their Simulation gets a null profiler), so the
  // whole fork — restore, clone run, outcome extraction — lands here as
  // lookahead.fork self time: the in-run per-fork cost signal.
  ProfileScope profile_fork(profiler_, ProfileCategory::kLookaheadFork);
  WhatIfOutcome outcome;
  if (spec.horizon <= sim_.now()) return outcome;
  // One base snapshot per frozen instant; every candidate of a search
  // window forks from it.
  if (!whatif_base_.has_value() || whatif_base_->now != sim_.now() ||
      whatif_base_->executed_events != sim_.executed_events()) {
    whatif_base_ = snapshot(/*include_records=*/false);
  }

  World clone(*this, *whatif_base_, spec);

  const std::uint64_t rejected_before = clone.provisioner_->rejected();
  const std::uint64_t violations_before = clone.provisioner_->qos_violations();
  const std::uint64_t completed_before = clone.provisioner_->completed();
  outcome.valid = true;

  // Branch and bound: run the clone in steps of a twelfth of a window and
  // stop it once it breaks a bound of the spec. The stop is exact:
  //   1. run_to in steps executes the same events in the same (time, seq)
  //      order as one run_to(horizon): each step runs the events at or
  //      before its end and sets the clock there, nothing is scheduled
  //      between steps, and a clone carries no telemetry or profiler.
  //   2. rejected() and qos_violations() are counters that never decrease,
  //      so a count over its maximum now is over it at the horizon.
  //   3. vm_hours() sums lifetime_seconds(now) over the append-only VM list
  //      in creation order and divides by 3600. Each term is nondecreasing
  //      in now and IEEE addition and division round monotonically, so a
  //      value that reached cost_to_beat still reaches it at the horizon,
  //      and the search takes only a cost strictly below it.
  // The market ledger's cost is not bounded: total_cost() advances the spot
  // price path, so a clone with a market stops on the counts alone. No check
  // runs at the horizon itself: a clone that gets there reports in full.
  const bool cost_bounded = !clone.market_.has_value();
  const SimTime step =
      config_.analyzer.analysis_interval / kBoundChecksPerWindow;
  for (SimTime t = clone.now() + step; t < spec.horizon; t += step) {
    clone.run_to(t);
    if (clone.provisioner_->rejected() - rejected_before > spec.max_rejected ||
        clone.provisioner_->qos_violations() - violations_before >
            spec.max_qos_violations ||
        (cost_bounded && clone.datacenter_->vm_hours() >= spec.cost_to_beat)) {
      outcome.dominated = true;
      return outcome;
    }
  }
  clone.run_to(spec.horizon);

  outcome.rejected = clone.provisioner_->rejected() - rejected_before;
  outcome.qos_violations =
      clone.provisioner_->qos_violations() - violations_before;
  outcome.completed = clone.provisioner_->completed() - completed_before;
  if (clone.market_.has_value()) {
    // Candidates share the pre-fork ledger prefix, so from-zero totals rank
    // them the same way deltas would.
    clone.market_->stop();
    outcome.cost = clone.market_->total_cost(clone.now());
  } else {
    outcome.cost = clone.datacenter_->vm_hours();
  }
  return outcome;
}

void World::commit_bid(double bid) {
  if (market_.has_value()) market_->set_bid(bid);
}

std::optional<double> World::current_bid() const {
  if (!market_.has_value() || !market_->spot_active()) return std::nullopt;
  return market_->config().acquisition.bid;
}

}  // namespace cloudprov
