// Tiny command-line flag parser used by the benchmark harnesses and examples.
//
// Supports `--name value`, `--name=value`, and boolean `--flag` /
// `--no-flag`. Flags must be registered (with help text and defaults) before
// parse(); unknown flags are an error so typos in experiment sweeps fail
// loudly instead of silently running the default configuration.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace cloudprov {

class ArgParser {
 public:
  explicit ArgParser(std::string program_description);

  /// Registers a flag. `type_hint` is shown in --help (e.g. "<double>").
  void add_flag(const std::string& name, const std::string& default_value,
                const std::string& help, const std::string& type_hint = "");

  /// Parses argv. Returns false (after printing help) when --help was given.
  /// Throws std::invalid_argument on unknown flags or missing values.
  bool parse(int argc, const char* const* argv);

  std::string get_string(const std::string& name) const;
  double get_double(const std::string& name) const;
  std::int64_t get_int(const std::string& name) const;
  bool get_bool(const std::string& name) const;
  bool was_set(const std::string& name) const;
  /// Names of the flags given on the command line, in name order.
  std::vector<std::string> set_flags() const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  std::string help() const;

 private:
  struct Flag {
    std::string default_value;
    std::optional<std::string> value;
    std::string help;
    std::string type_hint;
  };

  const Flag& find(const std::string& name) const;

  std::string description_;
  std::string program_name_;
  std::map<std::string, Flag> flags_;
  std::vector<std::string> positional_;
};

}  // namespace cloudprov
