// Minimal leveled logger.
//
// The simulator is deterministic and single-threaded per replication, but
// replications may run on worker threads, so sink access is serialized.
// Logging is stream-based and lazily formatted: a disabled level costs one
// branch.
//
//   CLOUDPROV_LOG(Info) << "scaled to " << m << " instances";
//
// The sink defaults to stderr and can be redirected to any std::ostream or
// a file. An optional sim-time provider prefixes lines with [t=...] so log
// output correlates with telemetry trace events; each thread has its own,
// so replications running side by side never stamp each other's lines.
#pragma once

#include <fstream>
#include <functional>
#include <mutex>
#include <sstream>
#include <string>

namespace cloudprov {

enum class LogLevel { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

/// Global log configuration and sink.
class Logger {
 public:
  static Logger& instance();

  void set_level(LogLevel level) { level_ = level; }
  LogLevel level() const { return level_; }
  bool enabled(LogLevel level) const { return level >= level_; }

  /// Redirects output to `sink` (not owned; must outlive the redirection).
  /// Pass nullptr to restore stderr. Closes any set_sink_file() file.
  void set_sink(std::ostream* sink);

  /// Opens `path` (truncating) and sinks log lines there. Returns false and
  /// leaves the sink unchanged when the file cannot be opened.
  bool set_sink_file(const std::string& path);

  /// Installs the calling thread's sim-time source; when set, every line
  /// that thread writes is prefixed with [t=<seconds>]. Pass nullptr to
  /// remove.
  void set_time_provider(std::function<double()> provider);

  /// Writes one formatted line to the current sink (thread-safe).
  void write(LogLevel level, const std::string& message);

  /// Parses "trace", "debug", "info", "warn", "error", "off".
  static LogLevel parse_level(const std::string& name);

 private:
  Logger() = default;
  LogLevel level_ = LogLevel::kWarn;
  std::mutex mutex_;
  std::ostream* sink_ = nullptr;  ///< null = stderr
  std::ofstream file_;
};

namespace detail {

/// Accumulates one log line and flushes it on destruction.
class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;
  ~LogLine() { Logger::instance().write(level_, stream_.str()); }

  template <typename T>
  LogLine& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace detail
}  // namespace cloudprov

#define CLOUDPROV_LOG(severity)                                              \
  if (!::cloudprov::Logger::instance().enabled(                              \
          ::cloudprov::LogLevel::k##severity)) {                             \
  } else                                                                     \
    ::cloudprov::detail::LogLine(::cloudprov::LogLevel::k##severity)
