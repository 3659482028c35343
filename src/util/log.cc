#include "util/log.h"

#include <iostream>

#include "util/check.h"

namespace cloudprov {
namespace {

/// The calling thread's sim-time source; empty = no [t=...] prefix.
thread_local std::function<double()> t_time_provider;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

}  // namespace

Logger& Logger::instance() {
  static Logger logger;
  return logger;
}

void Logger::set_sink(std::ostream* sink) {
  std::scoped_lock lock(mutex_);
  if (file_.is_open()) file_.close();
  sink_ = sink;
}

bool Logger::set_sink_file(const std::string& path) {
  std::scoped_lock lock(mutex_);
  std::ofstream file(path, std::ios::trunc);
  if (!file.is_open()) return false;
  if (file_.is_open()) file_.close();
  file_ = std::move(file);
  sink_ = &file_;
  return true;
}

void Logger::set_time_provider(std::function<double()> provider) {
  t_time_provider = std::move(provider);
}

void Logger::write(LogLevel level, const std::string& message) {
  if (!enabled(level)) return;
  std::scoped_lock lock(mutex_);
  std::ostream& out = sink_ != nullptr ? *sink_ : std::cerr;
  out << '[' << level_name(level) << "] ";
  if (t_time_provider) out << "[t=" << t_time_provider() << "] ";
  out << message << '\n';
}

LogLevel Logger::parse_level(const std::string& name) {
  if (name == "trace") return LogLevel::kTrace;
  if (name == "debug") return LogLevel::kDebug;
  if (name == "info") return LogLevel::kInfo;
  if (name == "warn") return LogLevel::kWarn;
  if (name == "error") return LogLevel::kError;
  if (name == "off") return LogLevel::kOff;
  ensure_arg(false, "unknown log level: " + name);
  return LogLevel::kWarn;
}

}  // namespace cloudprov
