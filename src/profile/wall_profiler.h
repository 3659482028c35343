// Wall-clock self-profiling observatory.
//
// The simulator's sim-time observability (src/telemetry) says nothing about
// where *wall* time goes — and the roadmap's next unlocks (sharded
// scale-out, 10^8-request trace runs) live or die on that signal. This
// module attributes wall time to subsystems with the same discipline the
// telemetry layer uses for sim-time events:
//
//  - Instrumented code holds a `WallProfiler*` that is null when profiling
//    is disabled, so the disabled cost is one well-predicted branch per
//    scope site (ProfileScope compiles to a pointer test).
//  - Scopes nest on an explicit stack: a parent's *self* time excludes its
//    children, so summing self times over all categories never double
//    counts and the folded-stack export is a real flame graph.
//  - steady_clock is calibrated at construction (minimum observable
//    back-to-back now() delta); that per-scope measurement cost is
//    subtracted from every scope so fine-grained sites do not inflate.
//  - The profiler is OUTPUT-ONLY: it never schedules events, draws RNG, or
//    touches any simulation observable, so every golden (metrics, span-CSV
//    hashes) is bit-identical with profiling on or off — proven by
//    kernel_golden_test.cc.
//
// Periodic ProfileSnapshots are wall-timer driven: the engine run loop polls
// maybe_snapshot() every kSnapshotStride events (one predicted branch per
// event), and a row is recorded only when `snapshot_interval` wall seconds
// have passed. Each row captures event-kernel internals surfaced by
// EventQueue (4-ary heap depth + high water, slab occupancy high water,
// stale-cancel drops, boxed-action count) plus throughput (events/s) and the
// sim-time-per-wall-second speedup.
//
// Single-threaded by design, like Telemetry: attach one profiler to one
// replication (a parallel replication batch profiles its replication 0,
// which the calling thread runs, exactly as it does the telemetry
// collector).
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace cloudprov {

/// Subsystems wall time is attributed to. Names (to_string) are dotted so
/// folded-stack paths read naturally in flamegraph tooling.
enum class ProfileCategory : std::uint8_t {
  kEngineRun,       ///< event-kernel pop/dispatch loop (Simulation::run)
  kWorldBuild,      ///< world construction + component wiring
  kWorldFinish,     ///< metrics extraction at the horizon
  kPolicyDecision,  ///< Algorithm 1 window evaluation (adaptive/lookahead)
  kLookaheadFork,   ///< one what-if candidate: snapshot restore + clone run
  kSnapshot,        ///< WorldState capture (what-if base, checkpointing)
  kMarketHook,      ///< spot-price ticks, revocation notices, hard kills
  kFaultHook,       ///< fault-injector arrivals (crashes, degradations)
  kReconcilerHook,  ///< self-healing reconciler passes
  kResilienceHook,  ///< retry gateway cold paths (timeouts, retry fires)
  kExportTrace,     ///< Chrome-trace JSON export
  kExportMetrics,   ///< metrics registry CSV/Prometheus export
  kExportSpans,     ///< span CSV export
  kExportDrift,     ///< drift CSV export
  kExportSlo,       ///< SLO CSV export
  kExportProfile,   ///< profile artifact export (this module's own output)
  kExportManifest,  ///< run-manifest JSON export
  kShardRun,        ///< one shard advancing its kernel through a window
  kShardBarrier,    ///< worker parked at the window-boundary barrier
  kArbiter,         ///< serial commit: capacity arbitration across tenants
  kCount
};

const char* to_string(ProfileCategory category);

constexpr std::size_t kProfileCategoryCount =
    static_cast<std::size_t>(ProfileCategory::kCount);

/// One wall-timer-driven sample of engine internals. `events_per_second`
/// and `speedup` (sim seconds advanced per wall second) are rates over the
/// interval since the previous snapshot.
struct ProfileSnapshot {
  double wall_seconds = 0.0;  ///< since profiler construction
  double sim_time = 0.0;
  std::uint64_t executed_events = 0;
  double events_per_second = 0.0;
  double speedup = 0.0;
  std::size_t live_events = 0;      ///< pending non-cancelled events
  std::size_t heap_depth = 0;       ///< heap entries incl. stale records
  std::size_t heap_high_water = 0;  ///< max heap entries ever
  std::size_t slab_high_water = 0;  ///< slab slots ever allocated
  std::uint64_t stale_drops = 0;    ///< cancelled entries discarded so far
  std::uint64_t boxed_pushed = 0;   ///< events that heap-allocated a closure
};

class WallProfiler {
 public:
  using Clock = std::chrono::steady_clock;

  /// Engine-loop polling stride: maybe_snapshot() is consulted every this
  /// many executed events. Power of two so the check is a mask, not a
  /// division.
  static constexpr std::uint64_t kSnapshotStride = 4096;
  /// Folded-stack paths deeper than this collapse into their parent frame
  /// (never happens with the current instrumentation, which nests <= 4).
  static constexpr std::size_t kMaxDepth = 8;

  explicit WallProfiler(double snapshot_interval_seconds = 0.1);
  WallProfiler(const WallProfiler&) = delete;
  WallProfiler& operator=(const WallProfiler&) = delete;

  /// Opens / closes an attribution scope. Prefer ProfileScope; end() must
  /// name the category begin() pushed (enforced).
  void begin(ProfileCategory category);
  void end(ProfileCategory category);

  /// Records a ProfileSnapshot when `snapshot_interval` wall seconds have
  /// passed since the last one; otherwise one clock read and out. Called
  /// from the engine run loop every kSnapshotStride events.
  void maybe_snapshot(double sim_time, std::uint64_t executed_events,
                      std::size_t live_events, std::size_t heap_depth,
                      std::size_t heap_high_water, std::size_t slab_high_water,
                      std::uint64_t stale_drops, std::uint64_t boxed_pushed);
  /// Unconditional snapshot (end-of-run flush), so short runs still export
  /// at least one row.
  void force_snapshot(double sim_time, std::uint64_t executed_events,
                      std::size_t live_events, std::size_t heap_depth,
                      std::size_t heap_high_water, std::size_t slab_high_water,
                      std::uint64_t stale_drops, std::uint64_t boxed_pushed);

  struct CategoryStat {
    double self_seconds = 0.0;   ///< excludes nested scopes
    double total_seconds = 0.0;  ///< includes nested scopes
    std::uint64_t count = 0;
  };

  /// One folded-stack row: the scope path from the root and its exclusive
  /// time — exactly one output line in flamegraph "folded" format.
  struct PathStat {
    std::vector<ProfileCategory> path;
    double self_seconds = 0.0;
    std::uint64_t count = 0;
  };

  const std::array<CategoryStat, kProfileCategoryCount>& totals() const {
    return totals_;
  }
  /// Folded-stack rows, sorted by path for deterministic output.
  std::vector<PathStat> folded() const;
  const std::vector<ProfileSnapshot>& snapshots() const { return snapshots_; }

  /// Moves every *closed* scope's attribution (category totals and folded
  /// paths) into `target`, zeroing this profiler's copies. The multi-tenant
  /// runner gives each shard worker a private profiler (the class is
  /// single-threaded by design) and drains them into the run-level profiler
  /// inside the serial barrier section, where no worker is running — the
  /// same per-worker-then-merge pattern the telemetry registry documents.
  /// Open frames (e.g. the worker's own barrier scope) simply land in a
  /// later drain once they close. Engine snapshots are NOT moved: they are
  /// per-kernel series, meaningful only against their own kernel.
  void drain_into(WallProfiler& target);

  /// Wall seconds since construction.
  double wall_seconds() const;
  /// Sum of self times over every category: total attributed wall time.
  /// Never double counts (self excludes children by construction).
  double covered_seconds() const;
  /// Calibrated cost of one back-to-back steady_clock::now() pair,
  /// subtracted from every scope.
  double clock_overhead_seconds() const { return calibration_; }
  double snapshot_interval() const { return snapshot_interval_; }

 private:
  struct Frame {
    ProfileCategory category;
    Clock::time_point start;
    double child_seconds;
    std::uint64_t path_key;  ///< 8 bits per level, root in the high byte
  };

  void record_snapshot(Clock::time_point now, double sim_time,
                       std::uint64_t executed_events, std::size_t live_events,
                       std::size_t heap_depth, std::size_t heap_high_water,
                       std::size_t slab_high_water, std::uint64_t stale_drops,
                       std::uint64_t boxed_pushed);

  Clock::time_point epoch_;
  double calibration_ = 0.0;
  double snapshot_interval_;

  std::vector<Frame> stack_;
  std::array<CategoryStat, kProfileCategoryCount> totals_{};
  /// path_key -> (self seconds, count). Keys pack <= kMaxDepth category
  /// indices (1-based, so 0 means "no frame") into a uint64.
  std::unordered_map<std::uint64_t, std::pair<double, std::uint64_t>> paths_;

  Clock::time_point last_snapshot_wall_;
  double last_snapshot_sim_ = 0.0;
  std::uint64_t last_snapshot_events_ = 0;
  std::vector<ProfileSnapshot> snapshots_;
};

/// RAII attribution scope; a null profiler makes both edges a pointer test,
/// so instrumented sites cost nothing when profiling is off.
class ProfileScope {
 public:
  ProfileScope(WallProfiler* profiler, ProfileCategory category)
      : profiler_(profiler), category_(category) {
    if (profiler_ != nullptr) profiler_->begin(category_);
  }
  ~ProfileScope() {
    if (profiler_ != nullptr) profiler_->end(category_);
  }
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  WallProfiler* profiler_;
  ProfileCategory category_;
};

}  // namespace cloudprov
