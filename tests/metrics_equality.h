// Bitwise RunMetrics equality for the determinism and bit-identity tests.
#pragma once

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <string_view>

#include "experiment/metrics.h"

namespace cloudprov {

/// Fails the test once per metric that differs between `a` and `b`
/// (metric_differences), except the fields named in `allowed_to_differ`.
/// Every call names its exclusions; wall_seconds measures the host, so it is
/// always among them.
inline void expect_same_metrics(
    const RunMetrics& a, const RunMetrics& b,
    std::initializer_list<std::string_view> allowed_to_differ) {
  for (const std::string& difference :
       metric_differences(a, b, allowed_to_differ)) {
    ADD_FAILURE() << difference;
  }
}

}  // namespace cloudprov
