// cloudprov_bench: end-to-end benchmark program for the simulator.
//
// Runs one named workload — whole replications through the public
// experiment API only — and prints one JSON object of raw measurements on
// stdout. benchmark/run.py turns those into the metrics that BENCHMARK.json
// declares; see benchmark/README.md for the workloads and metrics.
//
//   cloudprov_bench --workload web_day --seed 42 --seconds 10 [--trace 1]
//                   [--out DIR]
//   cloudprov_bench --smoke [--workload NAME]   # 1/10 horizon, all checks
//   cloudprov_bench --calibrate                 # calibration-loop samples
//
// A run is: one discarded warm-up replication; timed replications of the
// same seed in a closed loop for --seconds (tracing off, calibration slices
// interleaved); then a checked pass that snapshots the world at
// mid-horizon, round-trips the checkpoint codec, restores a copy and runs
// both to the horizon. With --trace 1 only three timed replications run,
// the checked pass carries a WallProfiler and spans of its own, and the
// per-layer side measurements run.
//
// Every replication is checked: its RunMetrics fingerprint must equal the
// warm-up's, and the request-conservation equations must hold. Exit status
// is 1 when any check failed.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/performance_modeler.h"
#include "experiment/multi_tenant.h"
#include "experiment/runner.h"
#include "experiment/world.h"
#include "lookahead/checkpoint.h"
#include "profile/build_info.h"
#include "profile/profile_export.h"
#include "profile/wall_profiler.h"

// --- counting global allocator ----------------------------------------------
// allocs_per_req reads this counter around the timed replications.
namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (align < sizeof(void*)) align = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, align, size ? size : 1) != 0) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
// The nothrow forms would call the forms above by default; they are
// replaced too so that a sanitizer's own allocator never frees our blocks.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return counted_aligned_alloc(size, static_cast<std::size_t>(align));
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t& tag) noexcept {
  return operator new(size, align, tag);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace cloudprov;
using Clock = std::chrono::steady_clock;

/// Results of timed loops are stored here so they cannot be folded away.
/// Atomic: the calibration loops of a threaded pacer store to it at once.
std::atomic<std::uint64_t> g_sink{0};

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double cpu_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
double process_cpu_seconds() { return cpu_seconds(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_seconds() { return cpu_seconds(CLOCK_THREAD_CPUTIME_ID); }

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// Peak resident set of this process image, KiB. VmHWM, not ru_maxrss:
/// after a vfork+exec (how run.py starts this program) ru_maxrss also
/// counts the parent's peak.
double peak_rss_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6));
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss);
}

// --- host-speed calibration -------------------------------------------------
// Host time of a single-threaded workload is its CPU time. It equals wall
// time except for time the host did not run the thread, which on a shared
// VM is the larger part of the noise. A sharded run is paid in wall time:
// its threads wait for each other at every window barrier, and that wait
// costs no CPU. So the threaded workload's host time is its wall time, and
// its calibration slices are timed in wall time too, on as many threads as
// it has shards, so they also see the threads wait for the host.
//
// The rest of the noise is the speed of the CPU time itself, which drifts by
// tens of percent within seconds as neighbours load shared caches and
// memory. A fixed discrete-event loop compiled into this program — the same
// kind of work as the simulator's kernel, but code no library change can
// touch — is timed in ~3 ms slices interleaved with the measured work, one
// slice per 20 ms of it. run.py scales host time by calib_ref_s / calib_s,
// where calib_s is the mean slice time x 100, timed as the host time is.
//
// The loop advances a binary heap of 4096 pending events with xorshift
// exponential draws, and every other event also updates a random word of a
// 4 MiB table, as requests update state outside the event queue. Measured
// on a shared 4-vCPU VM, the heap alone slows less than the simulator
// under contention (host time ~ calib^1.3-1.6) and the table alone slows
// more (~ calib^0.7-0.9); the mix tracks it (~ calib^0.9-1.1).
constexpr std::size_t kCalibEvents = 4096;
constexpr std::size_t kCalibTableWords = (std::size_t{4} << 20) / sizeof(std::uint64_t);
constexpr int kSlicePops = 20000;
constexpr int kSliceRounds = 4;  ///< barrier rounds per multi-thread slice
constexpr double kSlicePeriodS = 0.02;
constexpr double kSlicesPerCalib = 100.0;

class CalibrationLoop {
 public:
  CalibrationLoop() : table_(kCalibTableWords, 1) {
    heap_.reserve(kCalibEvents);
    for (std::uint32_t i = 0; i < kCalibEvents; ++i) push(exponential(), i);
  }

  /// `pops` events of fixed work; returns their CPU seconds on the calling
  /// thread.
  double run(int pops) {
    const double start = thread_cpu_seconds();
    double sum = 0.0;
    for (int i = 0; i < pops; ++i) {
      std::pop_heap(heap_.begin(), heap_.end(), later);
      const Event event = heap_.back();
      heap_.pop_back();
      sum += event.first;
      if (i % 2 == 1) table_[(x_ >> 7) & (kCalibTableWords - 1)] += event.second;
      push(event.first + exponential(), event.second);
    }
    g_sink.store(static_cast<std::uint64_t>(sum), std::memory_order_relaxed);
    return thread_cpu_seconds() - start;
  }

 private:
  using Event = std::pair<double, std::uint32_t>;
  static bool later(const Event& a, const Event& b) { return a.first > b.first; }

  double exponential() {
    x_ ^= x_ << 13;
    x_ ^= x_ >> 7;
    x_ ^= x_ << 17;
    return -std::log((static_cast<double>(x_ >> 11) + 0.5) * 0x1.0p-53);
  }
  void push(double time, std::uint32_t id) {
    heap_.emplace_back(time, id);
    std::push_heap(heap_.begin(), heap_.end(), later);
  }

  std::uint64_t x_ = 0x9E3779B97F4A7C15ULL;
  std::vector<Event> heap_;
  std::vector<std::uint64_t> table_;
};

/// Interleaves calibration slices with the work being timed. A pacer for a
/// threaded workload runs each slice on as many threads at once, so the
/// threads contend for shared caches as the workload's do. They meet at a
/// mutex + condvar barrier after every quarter of the slice, about as often
/// as the shards meet at theirs, so the slice also pays the wake-up latency
/// the host adds to every barrier. Its time is wall time, until the last
/// thread is done.
class Pacer {
 public:
  explicit Pacer(std::size_t threads = 1) : loops_(threads), cpu_(threads) {}

  void slice() {
    const auto start = Clock::now();
    if (loops_.size() == 1) {
      cpu_[0] = loops_[0].run(kSlicePops);
    } else {
      std::mutex mutex;
      std::condition_variable released;
      std::size_t waiting = 0;
      std::uint64_t generation = 0;
      const auto barrier = [&] {
        std::unique_lock<std::mutex> lock(mutex);
        const std::uint64_t arrived = generation;
        if (++waiting == loops_.size()) {
          waiting = 0;
          ++generation;
          released.notify_all();
        } else {
          released.wait(lock, [&] { return generation != arrived; });
        }
      };
      const auto work = [&](std::size_t i) {
        cpu_[i] = 0.0;
        for (int round = 0; round < kSliceRounds; ++round) {
          cpu_[i] += loops_[i].run(kSlicePops / kSliceRounds);
          barrier();
        }
      };
      std::vector<std::thread> workers;
      for (std::size_t i = 1; i < loops_.size(); ++i) workers.emplace_back(work, i);
      work(0);
      for (std::thread& t : workers) t.join();
    }
    const double wall = seconds_since(start);
    double sum = 0.0;
    for (double c : cpu_) sum += c;
    slice_time_ += loops_.size() == 1 ? cpu_[0] : wall;
    slice_cpu_ += sum / static_cast<double>(cpu_.size());
    spent_cpu_ += sum;
    spent_wall_ += wall;
    ++slices_;
    last_ = Clock::now();
  }
  void maybe_slice() {
    if (seconds_since(last_) >= kSlicePeriodS) slice();
  }
  /// Starts a new measurement: forgets earlier slices.
  void reset() {
    slice_time_ = slice_cpu_ = spent_cpu_ = spent_wall_ = 0.0;
    slices_ = 0;
    last_ = Clock::now();
  }

  /// Mean slice time x kSlicesPerCalib: thread CPU time on one thread,
  /// wall time on several.
  double calib_s() const { return per_calib(slice_time_); }
  /// Mean per-thread slice CPU time x kSlicesPerCalib: the calibration of
  /// serial work timed in CPU time, such as set-up. Equals calib_s() on one
  /// thread.
  double cpu_calib_s() const { return per_calib(slice_cpu_); }
  /// CPU and wall seconds spent in slices since reset(), to subtract from
  /// the timing they were interleaved with.
  double spent_cpu_s() const { return spent_cpu_; }
  double spent_wall_s() const { return spent_wall_; }
  /// Resident memory of the calibration loops, to subtract from peak RSS.
  std::size_t resident_bytes() const {
    return loops_.size() * (kCalibTableWords * sizeof(std::uint64_t) +
                            kCalibEvents * 16);
  }

 private:
  double per_calib(double total) const {
    return slices_ > 0 ? total / static_cast<double>(slices_) * kSlicesPerCalib : 0.0;
  }

  std::vector<CalibrationLoop> loops_;
  std::vector<double> cpu_;  ///< last slice's CPU seconds per thread
  double slice_time_ = 0.0;  ///< sum over slices of what calib_s() averages
  double slice_cpu_ = 0.0;   ///< sum over slices of the per-thread mean CPU
  double spent_cpu_ = 0.0;
  double spent_wall_ = 0.0;
  std::uint64_t slices_ = 0;
  Clock::time_point last_ = Clock::now();
};

// --- RunMetrics fingerprint -------------------------------------------------
// Every field except wall_seconds. The observability block (telemetry
// monitors) is separate so telemetry-off runs can be compared on the model
// fields alone.
template <typename F>
void for_each_model_field(const RunMetrics& m, F&& f) {
  f(m.seed), f(m.generated), f(m.accepted), f(m.rejected), f(m.completed);
  f(m.qos_violations), f(m.avg_response_time), f(m.std_response_time);
  f(m.p95_response_time), f(m.p99_response_time), f(m.min_instances);
  f(m.max_instances), f(m.avg_instances), f(m.vm_hours), f(m.busy_vm_hours);
  f(m.utilization), f(m.rejection_rate);
  f(m.instance_failures), f(m.vm_crashes), f(m.host_crashes);
  f(m.boot_failures), f(m.boot_timeouts), f(m.lost_requests);
  f(m.lost_to_vm_crashes), f(m.lost_to_host_crashes), f(m.availability);
  f(m.recoveries), f(m.mttr_mean), f(m.mttr_max), f(m.reconciler_heals);
  f(m.reconciler_retries), f(m.reconciler_aborts), f(m.final_instances);
  f(m.billed_cost), f(m.on_demand_cost), f(m.spot_cost), f(m.reserved_cost);
  f(m.on_demand_purchases), f(m.spot_purchases), f(m.reserved_purchases);
  f(m.spot_revocations), f(m.revocation_kills), f(m.lost_to_revocations);
  f(m.spot_price_mean), f(m.spot_price_max);
  f(m.client_requests), f(m.client_succeeded), f(m.client_failed);
  f(m.client_attempts), f(m.client_retries), f(m.retry_budget_denied);
  f(m.client_timeouts), f(m.wasted_completions), f(m.breaker_opens);
  f(m.breaker_half_opens), f(m.breaker_closes), f(m.breaker_fast_fails);
  f(m.shed_deadline), f(m.shed_brownout);
  f(m.capacity_clips), f(m.capacity_denied);
  f(m.cache_hits), f(m.cache_misses), f(m.cache_hit_ratio), f(m.cache_fills);
  f(m.cache_evictions), f(m.cache_expirations), f(m.cache_invalidations);
  f(m.cache_flushes), f(m.cache_vm_hours), f(m.cache_utilization);
  f(m.cache_avg_instances), f(m.cache_final_instances), f(m.lambda_miss_mean);
  f(m.cache_avg_response_time), f(m.backend_avg_response_time);
  f(m.simulated_events);
}

template <typename F>
void for_each_observability_field(const RunMetrics& m, F&& f) {
  f(m.slo_response_alerts), f(m.slo_rejection_alerts), f(m.slo_worst_burn_rate);
  f(m.drift_windows), f(m.drift_response_mape), f(m.drift_response_bias);
  f(m.spans_traced);
}

struct Fnv1a {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash ^= p[i];
      hash *= 0x100000001b3ULL;
    }
  }
  template <typename T>
  void operator()(const T& value) {
    bytes(&value, sizeof(value));
  }
};

std::uint64_t fingerprint(const RunMetrics& m, bool observability = true) {
  Fnv1a h;
  h.bytes(m.policy.data(), m.policy.size());
  for_each_model_field(m, h);
  if (observability) for_each_observability_field(m, h);
  return h.hash;
}

// --- workloads --------------------------------------------------------------
constexpr SimTime kDay = 86400.0;
constexpr SimTime kStep = 60.0;  ///< run_to granularity = analysis window

struct Workload {
  std::string name;
  std::uint64_t seed = 42;
  bool multi_tenant = false;
  ScenarioConfig config;
  PolicySpec policy;
  std::optional<TelemetryOptions> telemetry;
  MultiTenantConfig tenants;
  std::size_t shards = 1;
};

const char* const kWorkloads[] = {"web_day", "web_layers", "lookahead_fork",
                                  "tenants64", "zipf_tiered"};

void set_horizon(ScenarioConfig& config, SimTime horizon) {
  config.horizon = horizon;
  config.web.horizon = horizon;
  config.bot.horizon = horizon;
  config.zipf.horizon = horizon;
}

std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed, double horizon_frac) {
  Workload w;
  w.name = name;
  w.seed = seed;
  w.policy = PolicySpec::adaptive();
  const SimTime horizon = kDay * horizon_frac;
  if (name == "web_day") {
    w.config = web_scenario(0.05);
  } else if (name == "web_layers") {
    w.config = web_scenario(0.02);
    TelemetryOptions telemetry;
    telemetry.span_sample_rate = 0.1;
    telemetry.span_seed = seed;
    telemetry.drift_enabled = true;
    telemetry.drift.qos_max_response_time = w.config.qos.max_response_time;
    telemetry.slo_enabled = true;
    telemetry.slo.log_alerts = false;
    w.telemetry = telemetry;
    ResilienceConfig& res = w.config.resilience;
    res.enabled = true;
    res.attempt_timeout = 0.5;
    res.retry.max_attempts = 3;
    res.retry.backoff = RetryPolicyConfig::Backoff::kExpoJitter;
    res.budget.enabled = true;
    res.breaker.enabled = true;
    w.config.market.enabled = true;
    w.config.market.acquisition.spot_fraction = 0.5;
    w.config.market.acquisition.bid = 0.7;
    w.config.fault.vm_mtbf = 6.0 * 3600.0;
    w.config.reconciler.enabled = true;
    w.config.reconciler.interval = 60.0;
  } else if (name == "lookahead_fork") {
    w.config = web_scenario(0.01);
    w.policy = PolicySpec::lookahead_spec(3, 3);
  } else if (name == "tenants64") {
    // Equal web tenants: a mix of kinds and scales drawn from the seed
    // would change the request count, the allocations per request and the
    // shard balance from seed to seed by more than their bounds. The seed
    // still draws every tenant's streams and QoS target.
    w.multi_tenant = true;
    w.tenants.tenants = 64;
    w.tenants.seed = seed;
    w.tenants.bot_fraction = 0.0;
    w.tenants.scale_spread = 0.0;
    w.tenants.tenant_scale = 0.002;
    w.tenants.horizon = horizon;
    w.shards = std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
    return w;
  } else if (name == "zipf_tiered") {
    w.config = zipf_scenario(0.02);
    w.config.apptier.enabled = true;
  } else {
    return std::nullopt;
  }
  set_horizon(w.config, horizon);
  return w;
}

// --- spans around public calls ----------------------------------------------
// Spans around each public call of the traced pass, kept in memory and
// written as CSV at exit. Nesting is tracked so each span names its parent.
class SpanLog {
 public:
  struct Record {
    const char* name;
    int parent;
    double start_s;
    double end_s;
  };

  int open(const char* name) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    records_.push_back({name, parent, seconds_since(epoch_), 0.0});
    stack_.push_back(static_cast<int>(records_.size() - 1));
    return stack_.back();
  }
  void close(int id) {
    records_[static_cast<std::size_t>(id)].end_s = seconds_since(epoch_);
    stack_.pop_back();
  }
  std::vector<double> durations(const char* name) const {
    std::vector<double> out;
    for (const Record& r : records_) {
      if (std::strcmp(r.name, name) == 0) out.push_back(r.end_s - r.start_s);
    }
    return out;
  }
  void write_csv(std::ostream& out) const {
    out << "id,parent,name,start_us,dur_us\n";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      out << i << ',' << r.parent << ',' << r.name << ','
          << std::llround(r.start_s * 1e6) << ','
          << std::llround((r.end_s - r.start_s) * 1e6) << '\n';
    }
  }

 private:
  Clock::time_point epoch_ = Clock::now();
  std::vector<Record> records_;
  std::vector<int> stack_;
};

class Span {
 public:
  Span(SpanLog* log, const char* name)
      : log_(log), id_(log != nullptr ? log->open(name) : -1) {}
  ~Span() {
    if (log_ != nullptr) log_->close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

// --- checks -----------------------------------------------------------------
struct Checks {
  std::uint64_t attempted = 0;  ///< replications run
  std::uint64_t failed = 0;     ///< replications with at least one failed check
  std::vector<std::string> failures;

  /// Counts one replication; `problems` lists its failed checks.
  void replication(const std::string& label,
                   const std::vector<std::string>& problems) {
    ++attempted;
    if (problems.empty()) return;
    ++failed;
    for (const std::string& p : problems) failures.push_back(label + ": " + p);
  }
};

/// The request-conservation equations checkable from RunMetrics.
void check_conservation(const RunMetrics& m, bool resilience, bool apptier,
                        const std::string& who,
                        std::vector<std::string>& problems) {
  const auto fail = [&](const std::string& what) {
    problems.push_back(who + " " + what);
  };
  const std::uint64_t offered =
      resilience ? m.client_attempts - m.breaker_fast_fails : m.generated;
  if (m.accepted + m.rejected != offered) {
    fail("accepted + rejected != " +
         std::string(resilience ? "client_attempts - breaker_fast_fails"
                                : "generated"));
  }
  // Client requests still in flight at the horizon have neither succeeded
  // nor failed, and RunMetrics does not count them.
  if (resilience && m.client_requests != m.generated) {
    fail("client_requests != generated");
  }
  if (resilience && m.client_succeeded + m.client_failed > m.client_requests) {
    fail("client_succeeded + client_failed > client_requests");
  }
  if (m.completed + m.lost_requests > m.accepted) {
    fail("completed + lost_requests > accepted");
  }
  if (apptier && m.cache_hits + m.cache_misses != m.generated) {
    fail("cache_hits + cache_misses != generated");
  }
}

// --- one replication --------------------------------------------------------
/// What a replication produced, reduced to what the checks compare.
struct Rep {
  std::vector<RunMetrics> metrics;  ///< one per world (tenants in id order)
  RunMetrics headline;              ///< the world, or the tenant aggregate
  std::vector<AdaptivePolicy::DecisionRecord> decisions;
  std::uint64_t pushes = 0;   ///< event-queue pushes of the live world
  std::uint64_t windows = 0;  ///< multi-tenant barrier commits
  std::uint64_t grant_clips = 0;
  double setup_cpu_s = 0.0;  ///< World ctor + start()
  // Mid-horizon probe work inside the replication, not part of its cost.
  double excluded_wall_s = 0.0;
  double excluded_cpu_s = 0.0;

  std::uint64_t fingerprint(bool observability = true) const {
    Fnv1a h;
    for (const RunMetrics& m : metrics) h(::fingerprint(m, observability));
    return h.hash;
  }
};

/// Mid-horizon public calls of the checked pass.
struct Probe {
  double snapshot_s = 0.0;
  double encode_s = 0.0;
  double decode_s = 0.0;
  double restore_s = 0.0;
  std::size_t checkpoint_bytes = 0;
  std::size_t directory_entries = 0;
  bool codec_stable = false;
  std::uint64_t restored_fingerprint = 0;
};

struct Instruments {
  Pacer* pacer = nullptr;
  WallProfiler* profiler = nullptr;
  SpanLog* spans = nullptr;
  Probe* probe = nullptr;
};

void probe_world(const Workload& w, const World& world, const Instruments& in,
                 std::unique_ptr<World>& restored) {
  Probe& p = *in.probe;
  WorldState state;
  {
    Span span(in.spans, "world.snapshot");
    const auto t0 = Clock::now();
    state = world.snapshot();
    p.snapshot_s = seconds_since(t0);
  }
  if (state.apptier.has_value()) {
    p.directory_entries = state.apptier->directory.size();
  }
  std::string encoded;
  {
    Span span(in.spans, "checkpoint.encode");
    const auto t0 = Clock::now();
    std::ostringstream out;
    write_checkpoint(out, state);
    encoded = std::move(out).str();
    p.encode_s = seconds_since(t0);
  }
  p.checkpoint_bytes = encoded.size();
  {
    Span span(in.spans, "checkpoint.decode");
    const auto t0 = Clock::now();
    std::istringstream in_stream(encoded);
    const WorldState decoded = read_checkpoint(in_stream);
    p.decode_s = seconds_since(t0);
    std::ostringstream again;
    write_checkpoint(again, decoded);
    p.codec_stable = std::move(again).str() == encoded;
  }
  Span span(in.spans, "world.restore");
  const auto t0 = Clock::now();
  restored = std::make_unique<World>(w.config, w.policy, w.seed, state);
  p.restore_s = seconds_since(t0);
}

Rep run_world(const Workload& w, const std::optional<TelemetryOptions>& telemetry,
              const Instruments& in) {
  Rep rep;
  const SimTime horizon = w.config.horizon;
  const double start = process_cpu_seconds();
  std::unique_ptr<World> world;
  {
    Span span(in.spans, "world.ctor");
    world = std::make_unique<World>(w.config, w.policy, w.seed, telemetry,
                                    in.profiler);
  }
  {
    Span span(in.spans, "world.start");
    world->start();
  }
  rep.setup_cpu_s = process_cpu_seconds() - start;

  const SimTime mid = std::floor(horizon / 2.0 / kStep) * kStep;
  std::unique_ptr<World> restored;
  for (SimTime t = kStep;; t += kStep) {
    t = std::min(t, horizon);
    {
      Span span(in.spans, "world.run_to");
      world->run_to(t);
    }
    if (in.pacer != nullptr) in.pacer->maybe_slice();
    if (in.probe != nullptr && t == mid) {
      const auto wall0 = Clock::now();
      const double cpu0 = process_cpu_seconds();
      probe_world(w, *world, in, restored);
      rep.excluded_wall_s += seconds_since(wall0);
      rep.excluded_cpu_s += process_cpu_seconds() - cpu0;
    }
    if (t >= horizon) break;
  }
  RunOutput output;
  {
    Span span(in.spans, "world.finish");
    output = world->finish();
  }
  rep.pushes = world->sim().event_push_counter();
  rep.decisions = std::move(output.decisions);
  rep.headline = output.metrics;
  rep.metrics.push_back(std::move(output.metrics));
  if (restored != nullptr) {
    const auto wall0 = Clock::now();
    const double cpu0 = process_cpu_seconds();
    restored->run_to(horizon);
    in.probe->restored_fingerprint = fingerprint(restored->finish().metrics);
    restored.reset();
    rep.excluded_wall_s += seconds_since(wall0);
    rep.excluded_cpu_s += process_cpu_seconds() - cpu0;
  }
  return rep;
}

Rep run_tenants(const Workload& w, SimTime horizon, const Instruments& in) {
  MultiTenantConfig config = w.tenants;
  config.horizon = horizon;
  MultiTenantOptions options;
  options.shards = w.shards;
  options.profiler = in.profiler;
  Rep rep;
  MultiTenantResult result;
  {
    Span span(in.spans, "run_multi_tenant");
    result = run_multi_tenant(config, options);
  }
  for (TenantResult& tenant : result.tenants) {
    rep.metrics.push_back(std::move(tenant.metrics));
  }
  rep.headline = result.aggregate;
  rep.headline.simulated_events = result.simulated_events;
  rep.windows = result.windows;
  rep.grant_clips = result.grant_clips;
  return rep;
}

/// Slices the multi-tenant run brackets itself with on each side (it is one
/// public call, so no slice can fall inside it). 16 rather than 8 cut the
/// spread of a replication's normalised time from 7.8% to 6.0%.
constexpr int kBracketSlices = 16;

/// One replication timed against interleaved calibration slices. Slices
/// and probe work inside it are subtracted from both times.
struct Timed {
  double calib_s = 0.0;      ///< Pacer::calib_s() over the replication's slices
  double cpu_calib_s = 0.0;  ///< Pacer::cpu_calib_s(), for set-up samples
  double host_s = 0.0;   ///< cpu_s, or wall_s for the sharded workload
  double cpu_s = 0.0;    ///< process CPU seconds, summed over threads
  double wall_s = 0.0;
  std::uint64_t allocs = 0;
  Rep rep;
};

Timed timed_rep(const Workload& w, Pacer& pacer, Instruments in = {}) {
  Timed t;
  pacer.reset();
  in.pacer = &pacer;
  for (int i = 0; i < (w.multi_tenant ? kBracketSlices : 1); ++i) pacer.slice();
  const double slices_cpu = pacer.spent_cpu_s();
  const double slices_wall = pacer.spent_wall_s();
  const std::uint64_t allocs0 = g_allocations.load(std::memory_order_relaxed);
  const double cpu0 = process_cpu_seconds();
  const auto start = Clock::now();
  t.rep = w.multi_tenant ? run_tenants(w, w.tenants.horizon, in)
                         : run_world(w, w.telemetry, in);
  t.wall_s = seconds_since(start) - (pacer.spent_wall_s() - slices_wall) -
             t.rep.excluded_wall_s;
  t.cpu_s = process_cpu_seconds() - cpu0 - (pacer.spent_cpu_s() - slices_cpu) -
            t.rep.excluded_cpu_s;
  t.allocs = g_allocations.load(std::memory_order_relaxed) - allocs0;
  t.host_s = w.multi_tenant ? t.wall_s : t.cpu_s;
  for (int i = 0; i < (w.multi_tenant ? kBracketSlices : 1); ++i) pacer.slice();
  t.calib_s = pacer.calib_s();
  t.cpu_calib_s = pacer.cpu_calib_s();
  return t;
}

Rep run_rep(const Workload& w) {
  return w.multi_tenant ? run_tenants(w, w.tenants.horizon, {})
                        : run_world(w, w.telemetry, {});
}

/// Set-up CPU seconds alone: World ctor + start(), or run_multi_tenant at
/// horizon 0. Set-up is serial even on the sharded workload, so it is timed
/// in CPU time there too, against Pacer::cpu_calib_s(): in wall time against
/// the threads' barrier slices, its run medians ranged from 5.9 to 8.2 ms.
double setup_sample(const Workload& w) {
  const double start = process_cpu_seconds();
  if (w.multi_tenant) {
    run_tenants(w, 0.0, {});
    return process_cpu_seconds() - start;
  }
  World world(w.config, w.policy, w.seed, w.telemetry);
  world.start();
  return process_cpu_seconds() - start;
}

std::vector<std::string> check_rep(const Workload& w, const Rep& rep,
                                   std::uint64_t reference,
                                   bool observability = true) {
  std::vector<std::string> problems;
  if (rep.fingerprint(observability) != reference) {
    problems.push_back("RunMetrics fingerprint differs from the warm-up's");
  }
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const bool tenant = w.multi_tenant;
    check_conservation(rep.metrics[i],
                       !tenant && w.config.resilience.enabled,
                       !tenant && w.config.apptier.enabled,
                       tenant ? "tenant " + std::to_string(i) : "world",
                       problems);
  }
  return problems;
}

// --- per-layer side measurements (--trace 1) --------------------------------
using DecisionRun =
    std::pair<ScenarioConfig, std::vector<AdaptivePolicy::DecisionRecord>>;

struct ModelerReplay {
  double us_per_call = 0.0;
  double iters_per_call = 0.0;
};

/// Replays recorded Algorithm 1 inputs through PerformanceModeler, in passes
/// until 0.1 s has been timed.
ModelerReplay replay_modeler(const std::vector<DecisionRun>& runs) {
  std::size_t calls_per_pass = 0;
  for (const DecisionRun& run : runs) calls_per_pass += run.second.size();
  if (calls_per_pass == 0) return {};
  std::size_t passes = 0;
  std::size_t iterations = 0;
  std::size_t sink = 0;
  double elapsed = 0.0;
  while (elapsed < 0.1) {
    const auto start = Clock::now();
    for (const auto& [config, decisions] : runs) {
      const PerformanceModeler modeler(config.qos, config.modeler);
      std::size_t current = 1;
      for (const AdaptivePolicy::DecisionRecord& d : decisions) {
        const ModelerDecision decision = modeler.required_instances(
            current, d.expected_rate, d.monitored_service_time,
            std::max<std::size_t>(d.queue_bound, 1));
        sink += decision.instances;
        if (passes == 0) iterations += decision.iterations;
        current = std::max<std::size_t>(d.achieved_instances, 1);
      }
    }
    elapsed += seconds_since(start);
    ++passes;
  }
  g_sink.store(sink, std::memory_order_relaxed);
  const auto calls = static_cast<double>(calls_per_pass);
  return {elapsed / (calls * static_cast<double>(passes)) * 1e6,
          static_cast<double>(iterations) / calls};
}

/// Host nanoseconds per arrival of the scenarios' sources alone.
double workload_gen_ns(
    const std::vector<std::pair<ScenarioConfig, std::uint64_t>>& sources) {
  std::uint64_t arrivals = 0;
  const auto start = Clock::now();
  for (const auto& [config, seed] : sources) {
    std::unique_ptr<RequestSource> source = make_scenario_source(config);
    Rng rng(derive_streams(seed).workload);
    while (source->next(rng).has_value()) ++arrivals;
  }
  return ratio(seconds_since(start) * 1e9, static_cast<double>(arrivals));
}

// --- JSON output ------------------------------------------------------------
class Json {
 public:
  void key(const std::string& k) {
    sep();
    out_ << '"' << k << "\":";
    fresh_ = true;
  }
  void number(double v) {
    sep();
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    out_ << buf;
  }
  void integer(std::uint64_t v) {
    sep();
    out_ << v;
  }
  void string(const std::string& s) {
    sep();
    out_ << '"';
    for (char c : s) {
      if (c == '"' || c == '\\') out_ << '\\';
      out_ << (static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
    }
    out_ << '"';
  }
  void open(char c) {
    sep();
    out_ << c;
    fresh_ = true;
  }
  void close(char c) {
    out_ << c;
    fresh_ = false;
  }
  std::string str() const { return out_.str(); }

 private:
  void sep() {
    if (!fresh_) out_ << ',';
    fresh_ = false;
  }
  std::ostringstream out_;
  bool fresh_ = true;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  bool calibrate = false;
  std::string out;
};

/// Runs one workload end to end and prints its JSON record. Returns false
/// when any check failed.
bool run_workload(const Options& opt, const std::string& name) {
  std::optional<Workload> made =
      make_workload(name, opt.seed, opt.smoke ? 0.1 : 1.0);
  if (!made.has_value()) {
    std::fprintf(stderr, "unknown workload: %s\n", name.c_str());
    return false;
  }
  const Workload& w = *made;
  Checks checks;
  Pacer pacer(w.multi_tenant ? w.shards : 1);

  // 1. Warm-up: discarded, but its fingerprint is the reference.
  const Rep warm = run_rep(w);
  const std::uint64_t reference = warm.fingerprint();
  checks.replication("warm-up", check_rep(w, warm, reference));

  // 2. Timed replications in a closed loop, each followed by set-up samples
  // normalised with the replication's calibration. A traced run needs them
  // only as the untraced baseline of the tracing overhead, so it runs a
  // fixed few instead of filling --seconds.
  std::vector<Timed> timed;
  std::vector<std::pair<double, double>> setups;  // (calib_s, setup_s)
  const std::size_t min_reps = opt.smoke ? 1 : 3;
  const double loop_seconds = opt.trace ? 0.0 : opt.seconds;
  const auto loop_start = Clock::now();
  while (timed.size() < min_reps || seconds_since(loop_start) < loop_seconds) {
    Timed t = timed_rep(w, pacer);
    checks.replication("timed rep " + std::to_string(timed.size()),
                       check_rep(w, t.rep, reference));
    if (!w.multi_tenant) setups.emplace_back(t.cpu_calib_s, t.rep.setup_cpu_s);
    for (int i = 0; i < 3; ++i) setups.emplace_back(t.cpu_calib_s, setup_sample(w));
    t.rep = Rep{};
    timed.push_back(std::move(t));
  }
  // The calibration tables stay resident all run; they are not the
  // simulator's memory.
  const double peak_rss_kb =
      peak_rss_kib() - static_cast<double>(pacer.resident_bytes()) / 1024.0;

  // 3. Checked pass: traced when asked, with the mid-horizon snapshot,
  // codec round trip and restore.
  WallProfiler profiler;
  SpanLog spans;
  Probe probe;
  Instruments in;
  if (opt.trace) {
    in.profiler = &profiler;
    in.spans = &spans;
  }
  if (!w.multi_tenant) in.probe = &probe;
  const Timed traced = timed_rep(w, pacer, in);
  checks.replication(opt.trace ? "traced pass" : "checked pass",
                     check_rep(w, traced.rep, reference));
  if (!w.multi_tenant) {
    std::vector<std::string> problems;
    if (probe.restored_fingerprint != fingerprint(warm.metrics[0])) {
      problems.push_back(
          "mid-horizon snapshot, restored and run to the horizon, differs "
          "from the uninterrupted run");
    }
    if (!probe.codec_stable) {
      problems.push_back("checkpoint decode/encode round trip is not byte-stable");
    }
    checks.replication("restored run", problems);
  }

  Json j;
  j.open('{');
  j.key("workload"), j.string(name);
  j.key("seed"), j.integer(opt.seed);
  j.key("build"), j.open('{');
  j.key("compiler"), j.string(std::string(kBuildCompilerId) + " " +
                               kBuildCompilerVersion);
  j.key("build_type"), j.string(kBuildType);
  j.key("cxx_flags"), j.string(kBuildCxxFlags);
  j.key("hardware_threads"), j.integer(std::thread::hardware_concurrency());
  j.close('}');
  j.key("reps"), j.open('[');
  for (const Timed& t : timed) {
    j.open('{');
    j.key("calib_s"), j.number(t.calib_s);
    j.key("host_s"), j.number(t.host_s);
    j.key("wall_s"), j.number(t.wall_s);
    j.key("cpu_s"), j.number(t.cpu_s);
    j.key("allocs"), j.integer(t.allocs);
    j.key("requests"), j.integer(warm.headline.generated);
    j.close('}');
  }
  j.close(']');
  j.key("setups"), j.open('[');
  for (const auto& [calib, setup] : setups) {
    j.open('[');
    j.number(calib);
    j.number(setup);
    j.close(']');
  }
  j.close(']');
  j.key("peak_rss_kb"), j.number(peak_rss_kb);

  if (opt.trace) {
    // 4. Per-layer side measurements.
    const Rep& rep = traced.rep;
    const RunMetrics& m = rep.headline;
    const auto stat = [&](ProfileCategory c) {
      return profiler.totals()[static_cast<std::size_t>(c)];
    };
    const double requests = static_cast<double>(m.generated);
    const double events = static_cast<double>(m.simulated_events);
    const double engine_self = stat(ProfileCategory::kEngineRun).self_seconds;
    const double barrier = stat(ProfileCategory::kShardBarrier).self_seconds;
    const double shard_run = stat(ProfileCategory::kShardRun).total_seconds;
    const std::vector<double> steps = spans.durations("world.run_to");
    const double windows = w.multi_tenant
                               ? static_cast<double>(rep.windows)
                               : static_cast<double>(rep.decisions.size());
    const WallProfiler::CategoryStat fork = stat(ProfileCategory::kLookaheadFork);
    const WallProfiler::CategoryStat decision = stat(ProfileCategory::kPolicyDecision);

    std::vector<DecisionRun> decision_runs;
    std::vector<std::pair<ScenarioConfig, std::uint64_t>> sources;
    if (w.multi_tenant) {
      // Tenant results carry no decision log: rerun the first tenants
      // standalone (uncapped) to record representative Algorithm 1 inputs.
      const std::vector<TenantSpec> specs = multi_tenant_specs(w.tenants);
      for (std::size_t i = 0; i < std::min<std::size_t>(8, specs.size()); ++i) {
        RunOutput out =
            run_scenario(specs[i].scenario, PolicySpec::adaptive(), specs[i].seed);
        decision_runs.emplace_back(specs[i].scenario, std::move(out.decisions));
        sources.emplace_back(specs[i].scenario, specs[i].seed);
      }
    } else {
      decision_runs.emplace_back(w.config, rep.decisions);
      sources.emplace_back(w.config, w.seed);
    }
    const ModelerReplay modeler = replay_modeler(decision_runs);
    const double gen_ns = workload_gen_ns(sources);

    // Telemetry marginal: alternate runs with the workload's telemetry on
    // and off; telemetry is output-only, so the model fields must agree.
    double telemetry_marginal_ns = 0.0;
    if (w.telemetry.has_value()) {
      std::vector<double> on, off;
      const std::uint64_t model_reference = warm.fingerprint(false);
      Workload bare = w;
      bare.telemetry.reset();
      for (int i = 0; i < 3; ++i) {
        for (const Workload* variant : {&w, const_cast<const Workload*>(&bare)}) {
          Timed t = timed_rep(*variant, pacer);
          const bool enabled = variant == &w;
          (enabled ? on : off).push_back(t.host_s / t.calib_s);
          checks.replication(
              enabled ? "telemetry-on rep" : "telemetry-off rep",
              check_rep(w, t.rep, enabled ? reference : model_reference,
                        /*observability=*/enabled));
        }
      }
      // Back to host seconds at the traced pass's calibration.
      telemetry_marginal_ns =
          (median(on) - median(off)) * traced.calib_s / requests * 1e9;
    }

    std::vector<double> untraced;
    for (const Timed& t : timed) untraced.push_back(t.host_s / t.calib_s);
    const double untraced_norm = median(untraced);
    // Shares are of the pass's wall time, or for the sharded workload of
    // the shard workers' summed time.
    const double share_base =
        w.multi_tenant ? barrier + shard_run : traced.wall_s;

    j.key("layers"), j.open('{');
    const auto layer = [&](const char* key, double value) {
      j.key(key), j.number(value);
    };
    layer("sim.events_per_req", ratio(events, requests));
    layer("sim.pushes_per_req", ratio(static_cast<double>(rep.pushes), requests));
    layer("sim.ns_per_event", ratio(engine_self * 1e9, events));
    layer("sim.engine_self_s", engine_self);
    layer("sim.engine_share", ratio(engine_self, share_base));
    layer("sim.barrier_frac", ratio(barrier, barrier + shard_run));
    layer("experiment.build_ms", stat(ProfileCategory::kWorldBuild).total_seconds * 1e3);
    layer("experiment.finish_ms", stat(ProfileCategory::kWorldFinish).total_seconds * 1e3);
    layer("experiment.step_ms_p50", quantile(steps, 0.50) * 1e3);
    layer("experiment.step_ms_p99", quantile(steps, 0.99) * 1e3);
    layer("experiment.arbiter_us",
          ratio(stat(ProfileCategory::kArbiter).total_seconds * 1e6, windows));
    layer("experiment.grant_clips", static_cast<double>(rep.grant_clips));
    layer("experiment.trace_overhead_frac",
          ratio(traced.host_s / traced.calib_s - untraced_norm, untraced_norm));
    layer("core.decision_us", ratio(decision.self_seconds * 1e6,
                                    static_cast<double>(decision.count)));
    layer("core.modeler_us_per_call", modeler.us_per_call);
    layer("core.modeler_iters_per_call", modeler.iters_per_call);
    layer("workload.gen_ns_per_req", gen_ns);
    layer("lookahead.fork_ms",
          ratio(fork.total_seconds * 1e3, static_cast<double>(fork.count)));
    layer("lookahead.forks_per_window", ratio(static_cast<double>(fork.count), windows));
    layer("lookahead.fork_share", ratio(fork.total_seconds, share_base));
    layer("lookahead.snapshot_ms", probe.snapshot_s * 1e3);
    layer("lookahead.restore_ms", probe.restore_s * 1e3);
    layer("lookahead.checkpoint_kb", static_cast<double>(probe.checkpoint_bytes) / 1024.0);
    layer("lookahead.encode_ms", probe.encode_s * 1e3);
    layer("lookahead.decode_ms", probe.decode_s * 1e3);
    layer("telemetry.marginal_ns_per_req", telemetry_marginal_ns);
    layer("telemetry.spans_traced", static_cast<double>(m.spans_traced));
    layer("resilience.attempts_per_req",
          ratio(static_cast<double>(m.client_attempts),
                static_cast<double>(m.client_requests)));
    layer("resilience.goodput_frac",
          ratio(static_cast<double>(m.client_succeeded),
                static_cast<double>(m.client_attempts)));
    layer("resilience.hook_ms", stat(ProfileCategory::kResilienceHook).total_seconds * 1e3);
    layer("market.purchases",
          static_cast<double>(m.on_demand_purchases + m.spot_purchases +
                              m.reserved_purchases));
    layer("market.revocations", static_cast<double>(m.spot_revocations));
    layer("market.hook_ms", stat(ProfileCategory::kMarketHook).total_seconds * 1e3);
    layer("fault.instance_failures", static_cast<double>(m.instance_failures));
    layer("fault.hook_ms", (stat(ProfileCategory::kFaultHook).total_seconds +
                            stat(ProfileCategory::kReconcilerHook).total_seconds) *
                               1e3);
    layer("apptier.hit_ratio", m.cache_hit_ratio);
    layer("apptier.fills_per_req", ratio(static_cast<double>(m.cache_fills), requests));
    layer("apptier.evictions_per_req",
          ratio(static_cast<double>(m.cache_evictions), requests));
    layer("apptier.directory_entries", static_cast<double>(probe.directory_entries));
    layer("cloud.avg_instances", m.avg_instances);
    layer("model.vm_hours", m.vm_hours + m.cache_vm_hours);
    layer("model.rejection_rate", m.rejection_rate);
    layer("model.resp_mean_s", m.avg_response_time);
    j.close('}');

    if (!opt.out.empty()) {
      std::ofstream span_csv(opt.out + "/" + name + ".spans.csv");
      spans.write_csv(span_csv);
      std::ofstream folded(opt.out + "/" + name + ".folded");
      write_folded_stacks(folded, profiler);
      if (!span_csv || !folded) {
        checks.failures.push_back("cannot write trace files under " + opt.out);
        ++checks.failed;
      }
    }
  }

  j.key("attempted"), j.integer(checks.attempted);
  j.key("failed"), j.integer(checks.failed);
  j.key("failures"), j.open('[');
  for (const std::string& f : checks.failures) j.string(f);
  j.close(']');
  j.close('}');
  std::printf("%s\n", j.str().c_str());
  std::fflush(stdout);
  for (const std::string& f : checks.failures) {
    std::fprintf(stderr, "%s: check failed: %s\n", name.c_str(), f.c_str());
  }
  return checks.failed == 0;
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value());
    } else if (arg == "--trace") {
      opt.trace = std::stoi(value()) != 0;
    } else if (arg == "--out") {
      opt.out = value();
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--calibrate") {
      opt.calibrate = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    if (!parse(argc, argv, opt)) return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad arguments: %s\n", e.what());
    return 2;
  }
  if (opt.calibrate) {
    // Each sample is kSlicesPerCalib back-to-back slices: the calib_s scale.
    CalibrationLoop loop;
    Json j;
    j.open('{');
    j.key("calib_s"), j.open('[');
    for (int i = 0; i < 15; ++i) {
      double total = 0.0;
      for (int s = 0; s < static_cast<int>(kSlicesPerCalib); ++s) {
        total += loop.run(kSlicePops);
      }
      j.number(total);
    }
    j.close(']');
    j.close('}');
    std::printf("%s\n", j.str().c_str());
    return 0;
  }
  if (opt.smoke) {
    opt.seconds = 0.0;
    opt.trace = true;
  }
  std::vector<std::string> names;
  if (!opt.workload.empty()) {
    names.push_back(opt.workload);
  } else if (opt.smoke) {
    names.assign(std::begin(kWorkloads), std::end(kWorkloads));
  } else {
    std::fprintf(stderr, "--workload is required (or --smoke / --calibrate)\n");
    return 2;
  }
  bool ok = true;
  try {
    for (const std::string& name : names) ok = run_workload(opt, name) && ok;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark aborted: %s\n", e.what());
    return 1;
  }
  return ok ? 0 : 1;
}
