#include "market/spot_price.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace cloudprov {
namespace {

/// Grid spacing in seconds: one OU step (and one regime check) per tick.
constexpr SimTime kUpdateInterval = 60.0;
/// Mean spike-regime duration, seconds (exponential).
constexpr SimTime kSpikeMeanDuration = 900.0;
/// Reversion target multiplier while the spike regime holds.
constexpr double kSpikeMultiplier = 4.0;

}  // namespace

void SpotPriceConfig::validate() const {
  ensure_arg(initial > 0.0, "SpotPriceConfig: initial price must be > 0");
  ensure_arg(mean > 0.0, "SpotPriceConfig: mean must be > 0");
  ensure_arg(reversion_per_hour >= 0.0, "SpotPriceConfig: negative reversion");
  ensure_arg(volatility >= 0.0, "SpotPriceConfig: negative volatility");
  ensure_arg(floor >= 0.0, "SpotPriceConfig: negative floor");
  ensure_arg(ceiling >= floor, "SpotPriceConfig: ceiling below floor");
  ensure_arg(spike_rate_per_hour >= 0.0, "SpotPriceConfig: negative spike rate");
}

SpotPriceProcess::SpotPriceProcess(SpotPriceConfig config, std::uint64_t seed)
    : config_(config), rng_(seed) {
  config_.validate();
  path_.push_back({0.0, std::clamp(config_.initial, config_.floor,
                                   config_.ceiling)});
}

void SpotPriceProcess::step() {
  const SimTime t = path_.back().time + kUpdateInterval;
  const double dt_hours = kUpdateInterval / duration::kHour;

  // Regime update first, then the OU shock — a fixed draw order makes the
  // path a pure function of the seed.
  if (spike_ && t >= spike_until_) spike_ = false;
  if (!spike_ && config_.spike_rate_per_hour > 0.0 &&
      rng_.bernoulli(std::min(1.0, config_.spike_rate_per_hour * dt_hours))) {
    spike_ = true;
    spike_until_ = t + rng_.exponential(1.0 / kSpikeMeanDuration);
  }
  const double target =
      config_.mean * (spike_ ? kSpikeMultiplier : 1.0);

  double price = path_.back().price;
  price += config_.reversion_per_hour * (target - price) * dt_hours;
  price += config_.volatility * std::sqrt(dt_hours) * rng_.normal(0.0, 1.0);
  price = std::clamp(price, config_.floor, config_.ceiling);
  path_.push_back({t, price});
}

void SpotPriceProcess::advance_to(SimTime t) {
  ensure_arg(t >= 0.0, "SpotPriceProcess: negative time");
  while (path_.back().time < t) step();
}

double SpotPriceProcess::price_at(SimTime t) const {
  ensure_arg(t >= 0.0, "SpotPriceProcess: negative time");
  // Last segment whose start <= t (the path is piecewise constant).
  const auto it = std::upper_bound(
      path_.begin(), path_.end(), t,
      [](SimTime value, const PricePoint& p) { return value < p.time; });
  return it == path_.begin() ? path_.front().price : std::prev(it)->price;
}

double SpotPriceProcess::integrate(SimTime begin, SimTime end) const {
  ensure_arg(begin >= 0.0 && end >= begin,
             "SpotPriceProcess::integrate: inverted window");
  double total = 0.0;
  for (std::size_t i = 0; i < path_.size(); ++i) {
    const SimTime seg_begin = path_[i].time;
    const SimTime seg_end = i + 1 < path_.size()
                                ? path_[i + 1].time
                                : std::max(end, seg_begin);
    const SimTime lo = std::max(begin, seg_begin);
    const SimTime hi = std::min(end, seg_end);
    if (hi > lo) total += path_[i].price * (hi - lo);
    if (seg_end >= end) break;
  }
  return total;
}

double SpotPriceProcess::mean_price(SimTime end) const {
  if (end <= 0.0) return path_.front().price;
  return integrate(0.0, end) / end;
}

double SpotPriceProcess::max_price(SimTime end) const {
  double max = path_.front().price;
  for (const PricePoint& p : path_) {
    if (p.time > end) break;
    max = std::max(max, p.price);
  }
  return max;
}

}  // namespace cloudprov
