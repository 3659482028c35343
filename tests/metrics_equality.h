// Bitwise RunMetrics equality for the determinism and bit-identity tests.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "experiment/metrics.h"

namespace cloudprov {

template <typename T>
std::uint64_t metric_bits(const T& value) {
  static_assert(sizeof(T) == sizeof(std::uint64_t));
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// Compares `policy` and every field for_each_metric visits, doubles as bit
/// patterns, except the fields named in `allowed_to_differ`. Every call
/// names its exclusions; wall_seconds measures the host, so it is always
/// among them.
inline void expect_same_metrics(
    const RunMetrics& a, const RunMetrics& b,
    std::initializer_list<std::string_view> allowed_to_differ) {
  const auto allowed = [&](std::string_view name) {
    return std::find(allowed_to_differ.begin(), allowed_to_differ.end(),
                     name) != allowed_to_differ.end();
  };
  std::size_t excluded = 0;
  if (allowed("policy")) {
    ++excluded;
  } else {
    EXPECT_EQ(a.policy, b.policy) << "policy";
  }
  // for_each_metric walks one object: record b's fields, then walk a.
  struct Field {
    std::uint64_t bits;
    std::string text;
  };
  std::vector<Field> expected;
  for_each_metric(b, [&](const char*, const auto& value, MetricDirection) {
    expected.push_back({metric_bits(value), testing::PrintToString(value)});
  });
  std::size_t i = 0;
  for_each_metric(a, [&](const char* name, const auto& value,
                         MetricDirection) {
    const Field& other = expected[i++];
    if (allowed(name)) {
      ++excluded;
      return;
    }
    EXPECT_EQ(metric_bits(value), other.bits)
        << name << ": " << testing::PrintToString(value) << " vs "
        << other.text;
  });
  EXPECT_EQ(excluded, allowed_to_differ.size())
      << "allowed_to_differ names a field RunMetrics does not have";
}

}  // namespace cloudprov
