#include "util/csv.h"

#include <charconv>
#include <istream>
#include <ostream>

#include "util/check.h"

namespace cloudprov {

CsvWriter::CsvWriter(std::ostream& out, char separator)
    : out_(out), separator_(separator) {}

void CsvWriter::write_header(const std::vector<std::string>& columns) {
  write_row(columns);
}

void CsvWriter::write_row(const std::vector<std::string>& fields) {
  bool first = true;
  for (const auto& field : fields) {
    if (!first) out_ << separator_;
    out_ << escape(field);
    first = false;
  }
  out_ << '\n';
}

std::string CsvWriter::escape(const std::string& field) const {
  const bool needs_quote =
      field.find_first_of(std::string{separator_, '"', '\n', '\r'}) !=
      std::string::npos;
  if (!needs_quote) return field;
  std::string quoted = "\"";
  for (char c : field) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

std::string CsvWriter::format(double value) {
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof buf, value);
  ensure(result.ec == std::errc{}, "double formatting failed");
  return std::string(buf, result.ptr);
}

std::string CsvWriter::format(std::int64_t value) {
  return std::to_string(value);
}

std::string CsvWriter::format(std::uint64_t value) {
  return std::to_string(value);
}

CsvReader::CsvReader(std::istream& in, char separator)
    : in_(in), separator_(separator) {}

std::optional<std::vector<std::string>> CsvReader::next_row() {
  std::string line;
  if (!std::getline(in_, line)) return std::nullopt;
  if (!line.empty() && line.back() == '\r') line.pop_back();

  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current += c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == separator_) {
      fields.push_back(std::move(current));
      current.clear();
    } else {
      current += c;
    }
  }
  fields.push_back(std::move(current));
  return fields;
}

}  // namespace cloudprov
