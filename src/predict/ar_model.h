// Autoregressive AR(p) predictor — the "ARMAX" direction of the paper's
// future work (Section VII), without exogenous inputs.
//
// Fits x_t = c + sum_i a_i * x_{t-i} by ordinary least squares over a sliding
// history of observed window rates and predicts one window ahead. The normal
// equations are solved with Gaussian elimination with partial pivoting
// (p is small — typically 2-8 — so no factorization library is needed).
#pragma once

#include <deque>
#include <string>
#include <vector>

#include "predict/predictor.h"
#include "util/linalg.h"

namespace cloudprov {

class ArPredictor final : public ArrivalRatePredictor {
 public:
  /// order: p. history: number of observations retained for fitting
  /// (must be > 2 * order for a meaningful fit; until then the predictor
  /// falls back to the latest observation). headroom: safety inflation.
  ArPredictor(std::size_t order, std::size_t history, double headroom = 0.1);

  void observe(SimTime window_start, SimTime window_end,
               double observed_rate) override;
  double predict(SimTime t) const override;
  std::string name() const override;

  void save_state(std::vector<double>& out) const override;
  void load_state(const std::vector<double>& in) override;

 private:
  void refit();

  std::size_t order_;
  std::size_t history_limit_;
  double headroom_;
  std::deque<double> history_;
  std::vector<double> coefficients_;
};

}  // namespace cloudprov
