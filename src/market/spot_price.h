// Stochastic spot-price path: mean-reverting diffusion with regime spikes.
//
// Discretized Ornstein–Uhlenbeck process on a fixed update grid, modulated
// by a hidden calm/spike Markov chain (the same hidden-state construction as
// the MMPP workload source in workload/mmpp_source.h, applied to price
// instead of arrival rate): during a spike regime the reversion target is
// multiplied, producing the sudden demand-driven price cliffs that make
// spot capacity revocable in practice.
//
// Determinism: the path is a pure function of (config, seed) — one Rng
// stream owned by the process, draws in fixed per-step order — and is
// extended lazily by advance_to(), so the realized path is independent of
// when or how often it is queried. The broker derives the seed from the
// replication's market stream (drawn after the workload/placement/fault
// streams, following the fault-seed pattern), so enabling the market never
// perturbs existing streams and the same seed yields a byte-identical path.
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.h"
#include "util/units.h"

namespace cloudprov {

/// One step of the piecewise-constant price path: `price` holds on
/// [time, time + 60 s).
struct PricePoint {
  SimTime time = 0.0;
  double price = 0.0;
};

struct SpotPriceConfig {
  /// Price at t = 0, currency units per instance-hour.
  double initial = 0.35;
  /// Long-run reversion target of the calm regime.
  double mean = 0.35;
  /// OU reversion speed theta, per hour: fraction of the gap to the target
  /// closed per hour of drift.
  double reversion_per_hour = 0.5;
  /// Diffusion sigma, currency per sqrt(hour).
  double volatility = 0.12;
  /// Hard clamps (market floor / emergency cap).
  double floor = 0.05;
  double ceiling = 5.0;

  // --- regime-switching spike overlay (0 spike_rate disables) -------------
  /// Calm -> spike transitions per hour. A spike lasts an exponential
  /// 900 s on average and quadruples the reversion target.
  double spike_rate_per_hour = 0.05;

  void validate() const;
};

class SpotPriceProcess {
 public:
  SpotPriceProcess(SpotPriceConfig config, std::uint64_t seed);

  /// Extends the path so it covers simulated time `t`.
  void advance_to(SimTime t);

  /// Price holding at time `t`. Requires advance_to(t) semantics for exact
  /// lookups; times past the generated path clamp to its last segment
  /// (billing quanta may round a lifetime past the horizon).
  double price_at(SimTime t) const;

  /// Price of the newest generated segment.
  double current() const { return path_.back().price; }

  /// Integral of the price over [begin, end] in currency * seconds / hour
  /// (divide by 3600 for currency): exact per-second spot billing.
  double integrate(SimTime begin, SimTime end) const;

  /// Time-weighted mean over [0, end].
  double mean_price(SimTime end) const;
  /// Maximum segment price over [0, end].
  double max_price(SimTime end) const;

  const std::vector<PricePoint>& path() const { return path_; }
  bool in_spike() const { return spike_; }

  // --- checkpoint support (src/lookahead) ---------------------------------
  /// Full mutable state; (config, seed) stay with the owning process, so a
  /// restored process continues the exact same realized path.
  struct State {
    Rng::State rng;
    std::vector<PricePoint> path;
    bool spike = false;
    SimTime spike_until = 0.0;
  };
  State state() const { return State{rng_.state(), path_, spike_, spike_until_}; }
  void set_state(const State& state) {
    rng_.set_state(state.rng);
    path_ = state.path;
    spike_ = state.spike;
    spike_until_ = state.spike_until;
  }

 private:
  void step();

  SpotPriceConfig config_;
  Rng rng_;
  std::vector<PricePoint> path_;
  bool spike_ = false;
  SimTime spike_until_ = 0.0;
};

}  // namespace cloudprov
