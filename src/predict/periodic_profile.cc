#include "predict/periodic_profile.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace cloudprov {

PeriodicProfilePredictor::PeriodicProfilePredictor(std::vector<ProfileEntry> entries,
                                                   int period_days,
                                                   std::string label)
    : period_days_(period_days), label_(std::move(label)) {
  ensure_arg(!entries.empty(), "PeriodicProfilePredictor: need at least one entry");
  ensure_arg(period_days_ >= 1, "PeriodicProfilePredictor: period must be >= 1 day");
  for (const ProfileEntry& e : entries) {
    ensure_arg(e.day >= -1 && e.day < period_days_,
               "PeriodicProfilePredictor: entry day out of range");
    ensure_arg(e.time_of_day >= 0.0 && e.time_of_day < duration::kDay,
               "PeriodicProfilePredictor: time_of_day out of range");
    ensure_arg(e.rate >= 0.0, "PeriodicProfilePredictor: negative rate");
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const ProfileEntry& a, const ProfileEntry& b) {
                     return a.time_of_day < b.time_of_day;
                   });
  entries_ =
      std::make_shared<const std::vector<ProfileEntry>>(std::move(entries));
}

double PeriodicProfilePredictor::predict(SimTime t) const {
  if (t < 0.0) t = 0.0;
  const int day = static_cast<int>(day_index(t) % period_days_);
  const SimTime tod = seconds_into_day(t);

  // Find the latest entry applicable to (day, tod); if none has fired yet
  // today, wrap to the last entry of the previous day in the cycle.
  auto applicable = [&](int d, SimTime before_tod) -> const ProfileEntry* {
    const ProfileEntry* best = nullptr;
    for (const ProfileEntry& e : *entries_) {
      if (e.day != -1 && e.day != d) continue;
      if (e.time_of_day <= before_tod) best = &e;  // entries sorted by tod
    }
    return best;
  };

  if (const ProfileEntry* entry = applicable(day, tod)) return entry->rate;
  for (int back = 1; back <= period_days_; ++back) {
    const int d = ((day - back) % period_days_ + period_days_) % period_days_;
    if (const ProfileEntry* entry = applicable(d, duration::kDay)) {
      return entry->rate;
    }
  }
  return entries_->front().rate;
}

PeriodicProfilePredictor web_six_period_profile(const WebWorkloadConfig& config) {
  // The paper's six periods (Section V-B1). Each period's prediction is the
  // maximum of Equation 2 over the period, scanned at one-minute granularity.
  static constexpr double kBoundaries[] = {2.0 * 3600.0,  7.0 * 3600.0,
                                           11.5 * 3600.0, 12.5 * 3600.0,
                                           16.0 * 3600.0, 20.0 * 3600.0};
  const WebWorkload model(config);
  std::vector<ProfileEntry> entries;
  const int days = 7;
  for (int day = 0; day < days; ++day) {
    for (std::size_t p = 0; p < std::size(kBoundaries); ++p) {
      const SimTime start = kBoundaries[p];
      const SimTime end = kBoundaries[(p + 1) % std::size(kBoundaries)];
      double peak = 0.0;
      // Scan the period (wrapping across midnight for the 20:00-02:00 one).
      const SimTime span = end > start ? end - start : duration::kDay - start + end;
      for (SimTime offset = 0.0; offset <= span; offset += duration::kMinute) {
        const SimTime tod = std::fmod(start + offset, duration::kDay);
        const int sample_day =
            (start + offset >= duration::kDay) ? (day + 1) % days : day;
        const SimTime t = static_cast<double>(sample_day) * duration::kDay + tod;
        peak = std::max(peak, model.expected_rate(std::fmod(
                                  t, static_cast<double>(days) * duration::kDay)));
      }
      entries.push_back(ProfileEntry{day, start, peak});
    }
  }
  return PeriodicProfilePredictor(std::move(entries), days, "web-six-period");
}

PeriodicProfilePredictor web_profile_predictor(const WebWorkloadConfig& config,
                                               SimTime window) {
  ensure_arg(window > 0.0 && window <= duration::kDay,
             "web_profile_predictor: window must be in (0, 1 day]");
  const WebWorkload model(config);
  const int days = 7;
  std::vector<ProfileEntry> entries;
  for (int day = 0; day < days; ++day) {
    for (SimTime start = 0.0; start < duration::kDay; start += window) {
      double peak = 0.0;
      const SimTime end = std::min(start + window, duration::kDay);
      for (SimTime t = start; t <= end; t += duration::kMinute) {
        const SimTime abs_t = static_cast<double>(day) * duration::kDay +
                              std::min(t, duration::kDay - 1.0);
        peak = std::max(peak, model.expected_rate(abs_t));
      }
      entries.push_back(ProfileEntry{day, start, peak});
    }
  }
  return PeriodicProfilePredictor(std::move(entries), days, "web-eq2-profile");
}

PeriodicProfilePredictor bot_profile_predictor(const BotWorkloadConfig& config,
                                               double peak_factor,
                                               double offpeak_factor) {
  const BotWorkload model(config);
  // Section V-B2: the tasks-per-job estimate is the size-class mode (1.309)
  // "increased by 20%" (peak_factor) in both phases.
  const double tasks_per_job = model.size_mode() * peak_factor;
  // Peak: inflated tasks-per-job over the interarrival-time mode.
  const double peak_rate =
      tasks_per_job / (model.interarrival_mode() / config.scale);
  // Off-peak: mode of the per-window job count times 2.6 (offpeak_factor,
  // absorbing the Weibull count variability), expanded to tasks and spread
  // over the window. Reproduces the paper's reported minimum of 13 VMs.
  const double offpeak_rate = model.offpeak_count_mode() * config.scale *
                              offpeak_factor * tasks_per_job /
                              config.offpeak_window;
  std::vector<ProfileEntry> entries{
      ProfileEntry{-1, 0.0, offpeak_rate},
      ProfileEntry{-1, config.peak_start, peak_rate},
      ProfileEntry{-1, config.peak_end, offpeak_rate},
  };
  return PeriodicProfilePredictor(std::move(entries), 1, "bot-peak-offpeak");
}

}  // namespace cloudprov
