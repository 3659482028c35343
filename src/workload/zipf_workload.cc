#include "workload/zipf_workload.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "util/check.h"

namespace cloudprov {

ZipfWorkload::ZipfWorkload(ZipfWorkloadConfig config)
    : config_(config),
      service_demand_(config.service_base, config.service_spread) {
  ensure_arg(config_.num_keys >= 1, "ZipfWorkload: need at least one key");
  ensure_arg(config_.num_keys <= std::numeric_limits<std::uint32_t>::max(),
             "ZipfWorkload: num_keys must be < 2^32 (32-bit rank index)");
  ensure_arg(config_.alpha >= 0.0, "ZipfWorkload: alpha must be >= 0");
  ensure_arg(config_.base_rate >= 0.0, "ZipfWorkload: base_rate must be >= 0");
  ensure_arg(config_.rate_interval > 0.0,
             "ZipfWorkload: rate_interval must be > 0");
  ensure_arg(config_.rate_noise_fraction >= 0.0,
             "ZipfWorkload: noise fraction must be >= 0");
  ensure_arg(config_.horizon > 0.0, "ZipfWorkload: horizon must be > 0");
  ensure_arg(config_.scale > 0.0, "ZipfWorkload: scale must be > 0");
  for (const auto& flash : config_.flash) {
    ensure_arg(flash.end >= flash.begin && flash.multiplier >= 0.0,
               "ZipfWorkload: malformed flash-crowd window");
  }
  shift_stride_ = config_.hot_shift_stride != 0 ? config_.hot_shift_stride
                                                : config_.num_keys / 3;

  // Precompute the popularity CDF once: P[rank <= r] ~ H(r) / H(num_keys).
  cdf_.resize(config_.num_keys);
  double harmonic = 0.0;
  for (std::uint64_t r = 1; r <= config_.num_keys; ++r) {
    harmonic += std::pow(static_cast<double>(r), -config_.alpha);
    cdf_[r - 1] = harmonic;
  }
  for (double& c : cdf_) c /= harmonic;
  cdf_.back() = 1.0;  // guard against rounding

  // Guide table, G ~ num_keys / 8 buckets (a power of two, so j / G and
  // u * G are exact), filled in one pass over the CDF. cdf_.back() == 1
  // bounds the scan.
  const std::uint64_t buckets = std::bit_ceil(
      std::max<std::uint64_t>(1, config_.num_keys / 8));
  guide_scale_ = static_cast<double>(buckets);
  guide_.resize(buckets + 1);
  std::uint32_t rank = 0;
  for (std::uint64_t j = 0; j <= buckets; ++j) {
    const double threshold = static_cast<double>(j) / guide_scale_;
    while (cdf_[rank] < threshold) ++rank;
    guide_[j] = rank;
  }
}

double ZipfWorkload::expected_rate(SimTime t) const {
  if (t < 0.0 || t >= config_.horizon) return 0.0;
  double rate = config_.base_rate * config_.scale;
  for (const auto& flash : config_.flash) {
    if (t >= flash.begin && t < flash.end) rate *= flash.multiplier;
  }
  return rate;
}

std::uint64_t ZipfWorkload::key_for_rank(std::uint64_t rank, SimTime t) const {
  std::uint64_t shifts = 0;
  for (SimTime at : config_.hot_shift_at) {
    if (t >= at) ++shifts;
  }
  const std::uint64_t offset = (shifts * shift_stride_) % config_.num_keys;
  return (rank - 1 + offset) % config_.num_keys + 1;
}

std::uint64_t ZipfWorkload::sample_rank(double u) const {
  // u in [0, 1): bucket j satisfies j/G <= u < (j+1)/G, so the first rank
  // with cdf >= u lies in [guide_[j], guide_[j+1]] — and is guide_[j+1]
  // exactly when the search below runs off the end of its range.
  const auto j = static_cast<std::size_t>(u * guide_scale_);
  const auto first = cdf_.begin() + guide_[j];
  const auto last = cdf_.begin() + guide_[j + 1];
  return static_cast<std::uint64_t>(std::lower_bound(first, last, u) -
                                    cdf_.begin()) +
         1;
}

void ZipfWorkload::begin_interval(SimTime t, Rng& rng) {
  const double base = expected_rate(t);
  const double noisy =
      base * (1.0 + config_.rate_noise_fraction * rng.normal(0.0, 1.0));
  interval_rate_ = std::max(0.0, noisy);
  const double intervals_done = std::floor(t / config_.rate_interval);
  interval_end_ = (intervals_done + 1.0) * config_.rate_interval;
}

void ZipfWorkload::save_state(std::vector<double>& out) const {
  out.push_back(cursor_);
  out.push_back(interval_end_);
  out.push_back(interval_rate_);
}

void ZipfWorkload::load_state(const std::vector<double>& in) {
  ensure_arg(in.size() == 3, "ZipfWorkload::load_state: bad encoding");
  cursor_ = in[0];
  interval_end_ = in[1];
  interval_rate_ = in[2];
}

std::optional<Arrival> ZipfWorkload::next(Rng& rng) {
  if (interval_rate_ < 0.0) begin_interval(cursor_, rng);
  for (;;) {
    if (cursor_ >= config_.horizon) return std::nullopt;
    if (interval_rate_ <= 0.0) {
      cursor_ = interval_end_;
      begin_interval(cursor_, rng);
      continue;
    }
    const SimTime candidate = cursor_ + rng.exponential(interval_rate_);
    if (candidate >= interval_end_) {
      // Memoryless restart at the rate boundary, exactly like WebWorkload.
      cursor_ = interval_end_;
      begin_interval(cursor_, rng);
      continue;
    }
    cursor_ = candidate;
    if (cursor_ >= config_.horizon) return std::nullopt;
    // Fixed draw order after the arrival time: service demand, then key.
    Arrival arrival{cursor_, service_demand_.sample(rng)};
    arrival.key = key_for_rank(sample_rank(rng.uniform()), cursor_);
    return arrival;
  }
}

}  // namespace cloudprov
