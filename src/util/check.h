// Lightweight precondition checking for configuration-time errors.
//
// Hot simulation paths use assertions only in debug builds; API-boundary
// validation uses ensure()/ensure_arg() which throw and therefore survive
// release builds. The passing path must stay allocation-free: several checks
// sit on the per-event serve path (scheduling, VM submit/complete), so the
// message is a const char* and the exception string is only built inside the
// cold [[noreturn]] helpers. std::string overloads remain for call sites
// that compose their message (CLI parsing and similar cold paths).
//
// An ensure() failure is a bug, so its message leads with the source file
// and line. An ensure_arg() failure reports bad input to the caller (often a
// CLI user), so its message is the caller-facing text alone.
#pragma once

#include <source_location>
#include <stdexcept>
#include <string>

namespace cloudprov {

namespace detail {

[[noreturn]] inline void throw_ensure(const char* message,
                                      const std::source_location& loc) {
  throw std::logic_error(std::string(loc.file_name()) + ":" +
                         std::to_string(loc.line()) + ": " + message);
}

[[noreturn]] inline void throw_ensure_arg(const char* message) {
  throw std::invalid_argument(message);
}

}  // namespace detail

/// Throws std::logic_error when an internal invariant is violated.
inline void ensure(bool condition, const char* message,
                   std::source_location loc = std::source_location::current()) {
  if (!condition) [[unlikely]] detail::throw_ensure(message, loc);
}
inline void ensure(bool condition, const std::string& message,
                   std::source_location loc = std::source_location::current()) {
  if (!condition) [[unlikely]] detail::throw_ensure(message.c_str(), loc);
}

/// Throws std::invalid_argument for caller-supplied bad values.
inline void ensure_arg(bool condition, const char* message) {
  if (!condition) [[unlikely]] detail::throw_ensure_arg(message);
}
inline void ensure_arg(bool condition, const std::string& message) {
  if (!condition) [[unlikely]] detail::throw_ensure_arg(message.c_str());
}

}  // namespace cloudprov
