// Key-value workload with Zipf(alpha) key popularity (src/apptier cache
// tier's traffic model).
//
// Requests address a finite key space 1..num_keys whose popularity follows a
// Zipf law: the probability of rank r is r^-alpha / H(num_keys, alpha). The
// hot head of the distribution is what a cache tier absorbs; alpha ~ 0.9-1.0
// matches measured memcached/web-object traces. Arrivals are Poisson at a
// flat base rate, re-sampled with Gaussian noise every rate_interval like the
// web workload, with two deterministic seeded disturbance classes:
//
//  * flash crowds: [begin, end) windows multiplying the arrival rate;
//  * hot-key shifts: at each hot_shift_at time the popularity ranking
//    rotates by hot_shift_stride keys, so yesterday's cold keys become the
//    new hot head (cache-warmup transient without any pool change).
//
// Both are pure functions of the clock, so the generator's mutable state
// stays the same 3 doubles as the web workload and snapshot/restore reuses
// the identical encoding.
//
// Ranks are sampled by inversion of the precomputed popularity CDF through a
// guide table (Chen & Asau's cutpoint method): with G = 2^k buckets,
// guide[j] is the first rank whose CDF reaches j/G, so a uniform u only
// needs a binary search within [guide[floor(u*G)], guide[floor(u*G) + 1]] —
// a few cache-resident steps instead of a full search of the CDF, with the
// identical result for every u.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/distributions.h"
#include "workload/source.h"

namespace cloudprov {

struct ZipfWorkloadConfig {
  /// Size of the key space; keys are 1-based (0 is the keyless sentinel).
  /// At most 2^32 - 1: the sampler's guide table holds 32-bit rank indices.
  std::uint64_t num_keys = 20000;
  /// Zipf skew; 0 degenerates to uniform popularity.
  double alpha = 0.9;
  /// Flat expected arrival rate (requests/second) before scale, noise, and
  /// flash-crowd multipliers.
  double base_rate = 1000.0;

  /// Rate re-sampling cadence and relative noise, matching the web workload.
  SimTime rate_interval = 60.0;
  double rate_noise_fraction = 0.05;

  /// Backend service demand of a cache miss: base x U(1, 1 + spread).
  /// (Cache hits are served with the cache tier's own, much smaller demand.)
  double service_base = 0.100;
  double service_spread = 0.10;

  SimTime horizon = 86400.0;  ///< one day by default
  double scale = 1.0;

  /// Flash crowd: arrival rate multiplied by `multiplier` over [begin, end).
  struct FlashCrowd {
    SimTime begin = 0.0;
    SimTime end = 0.0;
    double multiplier = 1.0;
  };
  std::vector<FlashCrowd> flash;

  /// Hot-key shift times: at each, the rank->key mapping rotates by
  /// hot_shift_stride (default num_keys / 3 when 0).
  std::vector<SimTime> hot_shift_at;
  std::uint64_t hot_shift_stride = 0;
};

class ZipfWorkload final : public RequestSource {
 public:
  explicit ZipfWorkload(ZipfWorkloadConfig config = {});

  std::optional<Arrival> next(Rng& rng) override;

  /// scale * base_rate * flash multiplier at t; the noise-free ground truth.
  double expected_rate(SimTime t) const override;

  std::string name() const override { return "ZipfWorkload(key-value)"; }

  const ZipfWorkloadConfig& config() const { return config_; }

  /// Key a popularity rank (1-based) maps to at time t, after any hot-key
  /// shifts; exposed for tests.
  std::uint64_t key_for_rank(std::uint64_t rank, SimTime t) const;

  /// Popularity rank (1-based) that a uniform variate u in [0, 1) inverts
  /// to: the first rank r with P[rank <= r] >= u. Exposed for tests.
  std::uint64_t sample_rank(double u) const;
  /// Cumulative popularity by rank: cdf()[r-1] = P[rank <= r].
  const std::vector<double>& cdf() const { return cdf_; }

  void save_state(std::vector<double>& out) const override;
  void load_state(const std::vector<double>& in) override;

 private:
  void begin_interval(SimTime t, Rng& rng);

  ZipfWorkloadConfig config_;
  ScaledUniformDistribution service_demand_;
  /// Cumulative Zipf probabilities by rank (cdf_[r-1] = P[rank <= r]).
  std::vector<double> cdf_;
  /// guide_[j] = first index i with cdf_[i] >= j / (guide_.size() - 1).
  std::vector<std::uint32_t> guide_;
  double guide_scale_ = 1.0;  ///< bucket count G, a power of two
  std::uint64_t shift_stride_ = 0;
  SimTime cursor_ = 0.0;
  SimTime interval_end_ = 0.0;
  double interval_rate_ = -1.0;  // <0 means "not started"
};

}  // namespace cloudprov
