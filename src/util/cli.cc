#include "util/cli.h"

#include <cstdlib>
#include <iostream>
#include <sstream>

#include "util/check.h"

namespace cloudprov {

ArgParser::ArgParser(std::string program_description)
    : description_(std::move(program_description)) {
  add_flag("help", "false", "Show this help message", "");
}

void ArgParser::add_flag(const std::string& name, const std::string& default_value,
                         const std::string& help, const std::string& type_hint) {
  ensure_arg(!name.empty() && name[0] != '-', "flag name must not start with '-'");
  ensure_arg(!flags_.contains(name), "duplicate flag: --" + name);
  flags_[name] = Flag{default_value, std::nullopt, help, type_hint};
}

bool ArgParser::parse(int argc, const char* const* argv) {
  if (argc > 0) program_name_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      positional_.push_back(std::move(token));
      continue;
    }
    token.erase(0, 2);
    std::string value;
    bool has_value = false;
    if (const auto eq = token.find('='); eq != std::string::npos) {
      value = token.substr(eq + 1);
      token.erase(eq);
      has_value = true;
    }
    // `--no-<flag>` negates only a registered <flag>; anything else unknown
    // is reported under the name the user typed.
    bool negated = false;
    if (!flags_.contains(token) && token.rfind("no-", 0) == 0 &&
        flags_.contains(token.substr(3))) {
      negated = true;
      token.erase(0, 3);
    }
    auto it = flags_.find(token);
    ensure_arg(it != flags_.end(), "unknown flag: --" + token);
    Flag& flag = it->second;
    if (negated) {
      ensure_arg(!has_value, "--no-" + token + " does not take a value");
      flag.value = "false";
      continue;
    }
    const bool is_bool = flag.default_value == "true" || flag.default_value == "false";
    if (!has_value) {
      if (is_bool) {
        // Peek: allow `--flag true|false`, otherwise treat as bare boolean.
        if (i + 1 < argc) {
          const std::string next = argv[i + 1];
          if (next == "true" || next == "false") {
            value = next;
            ++i;
            has_value = true;
          }
        }
        if (!has_value) value = "true";
      } else {
        ensure_arg(i + 1 < argc, "flag --" + token + " requires a value");
        value = argv[++i];
      }
    }
    flag.value = value;
  }
  if (get_bool("help")) {
    std::cout << help();
    return false;
  }
  return true;
}

const ArgParser::Flag& ArgParser::find(const std::string& name) const {
  const auto it = flags_.find(name);
  ensure(it != flags_.end(), "flag was never registered: --" + name);
  return it->second;
}

std::string ArgParser::get_string(const std::string& name) const {
  const Flag& flag = find(name);
  return flag.value.value_or(flag.default_value);
}

double ArgParser::get_double(const std::string& name) const {
  const std::string text = get_string(name);
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  ensure_arg(end != text.c_str() && *end == '\0',
             "flag --" + name + " expects a number, got '" + text + "'");
  return value;
}

std::int64_t ArgParser::get_int(const std::string& name) const {
  const std::string text = get_string(name);
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  ensure_arg(end != text.c_str() && *end == '\0',
             "flag --" + name + " expects an integer, got '" + text + "'");
  return value;
}

std::size_t ArgParser::get_count(const std::string& name,
                                 std::size_t min) const {
  const std::int64_t value = get_int(name);
  ensure_arg(value >= 0 && static_cast<std::uint64_t>(value) >= min,
             "--" + name + " must be >= " + std::to_string(min) + ", got " +
                 std::to_string(value));
  return static_cast<std::size_t>(value);
}

bool ArgParser::get_bool(const std::string& name) const {
  const std::string text = get_string(name);
  if (text == "true" || text == "1") return true;
  if (text == "false" || text == "0") return false;
  ensure_arg(false, "flag --" + name + " expects true/false, got '" + text + "'");
  return false;
}

bool ArgParser::was_set(const std::string& name) const {
  return find(name).value.has_value();
}

std::vector<std::string> ArgParser::set_flags() const {
  std::vector<std::string> names;
  for (const auto& [name, flag] : flags_) {
    if (flag.value.has_value()) names.push_back(name);
  }
  return names;
}

std::string ArgParser::help() const {
  std::ostringstream out;
  out << description_ << "\n\nUsage: " << program_name_ << " [flags]\n\nFlags:\n";
  for (const auto& [name, flag] : flags_) {
    out << "  --" << name;
    if (!flag.type_hint.empty()) out << ' ' << flag.type_hint;
    out << "\n        " << flag.help;
    if (name != "help") out << " (default: " << flag.default_value << ")";
    out << '\n';
  }
  return out.str();
}

}  // namespace cloudprov
