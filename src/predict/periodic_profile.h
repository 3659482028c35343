// Time-based profile predictor — the predictor the paper actually evaluates.
//
// "Workload analyzer predicts requests arrival rate for the web workload by
// dividing each day into six periods" (Section V-B1); the scientific
// workload uses a two-phase (peak / off-peak) profile with explicit
// over-estimation factors (Section V-B2). Both are instances of a periodic
// weekly profile: a list of (day-of-week, time-of-day, rate) entries, where
// the rate holds from the entry's start until the next entry.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "predict/predictor.h"
#include "workload/bot_workload.h"
#include "workload/web_workload.h"

namespace cloudprov {

struct ProfileEntry {
  /// Day offset from simulation start this entry applies to; -1 = every day.
  int day = -1;
  /// Seconds into the day at which this rate takes effect.
  SimTime time_of_day = 0.0;
  /// Predicted arrival rate from this boundary on.
  double rate = 0.0;
};

/// Copies share one read-only entry table, so a copy costs no rebuild: a
/// live world builds its profile once and its what-if clones copy it.
class PeriodicProfilePredictor final : public ArrivalRatePredictor {
 public:
  /// `period_days` is the cycle length (7 for the weekly web profile, 1 for
  /// the daily scientific profile).
  PeriodicProfilePredictor(std::vector<ProfileEntry> entries, int period_days,
                           std::string label = "periodic-profile");

  /// Profiles are precomputed from the workload model; observations are
  /// accepted (so the analyzer can treat all predictors uniformly) but
  /// ignored.
  void observe(SimTime, SimTime, double) override {}

  double predict(SimTime t) const override;
  std::string name() const override { return label_; }

  const std::vector<ProfileEntry>& entries() const { return *entries_; }

 private:
  /// Sorted by time_of_day; shared with every copy.
  std::shared_ptr<const std::vector<ProfileEntry>> entries_;
  int period_days_;
  std::string label_;
};

/// Builds the literal six-period web profile of Section V-B1 (period
/// boundaries at 2:00, 7:00, 11:30, 12:30, 16:00 and 20:00), each period
/// predicted at the maximum of Equation 2 over the period — a conservative
/// upper envelope.
///
/// Note: this envelope never predicts below ~650 req/s (the 20:00 rate), so
/// a pool sized from it cannot shrink towards the paper's reported minimum
/// of 55 instances; the paper's own numbers imply its analyzer tracked the
/// Equation-2 trough. web_profile_predictor() below is that tracker.
PeriodicProfilePredictor web_six_period_profile(const WebWorkloadConfig& config);

/// Fine-grained web profile: one entry per `window` seconds per weekday,
/// predicting the maximum of Equation 2 over the upcoming window —
/// conservative within a window but tracking the full diurnal curve,
/// reproducing the paper's reported 55..153 instance range. This is the
/// predictor the experiment scenarios use.
PeriodicProfilePredictor web_profile_predictor(const WebWorkloadConfig& config,
                                               SimTime window = 1800.0);

/// Builds the paper's scientific profile: during peak the mode-based task
/// rate (size mode / interarrival mode) inflated by `peak_factor` (paper:
/// 1.2); off-peak the mode of the 30-minute job count times `offpeak_factor`
/// (paper: 2.6) spread over the window.
PeriodicProfilePredictor bot_profile_predictor(const BotWorkloadConfig& config,
                                               double peak_factor = 1.2,
                                               double offpeak_factor = 2.6);

}  // namespace cloudprov
