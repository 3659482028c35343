// JSON value formatting shared by the trace, profile and manifest exporters.
#pragma once

#include <string>

namespace cloudprov {

/// Plain JSON number with round-trip precision (17 significant digits).
/// JSON has no inf/nan, so non-finite values become 0.
std::string json_number(double value);

/// Quoted JSON string with quotes, backslashes and control characters
/// escaped.
std::string json_string(const std::string& text);

}  // namespace cloudprov
