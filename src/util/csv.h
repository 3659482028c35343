// CSV writing/reading for experiment output and trace record/replay.
//
// RFC-4180-style quoting: fields containing separators, quotes, or newlines
// are quoted and embedded quotes doubled. The reader accepts the same format.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

namespace cloudprov {

/// Streams rows to an std::ostream owned by the caller.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out, char separator = ',');

  void write_header(const std::vector<std::string>& columns);
  void write_row(const std::vector<std::string>& fields);

  /// Convenience: formats doubles with enough digits to round-trip.
  static std::string format(double value);
  static std::string format(std::int64_t value);
  static std::string format(std::uint64_t value);

 private:
  std::string escape(const std::string& field) const;

  std::ostream& out_;
  char separator_;
};

/// Pull-based reader; returns one row of fields at a time.
class CsvReader {
 public:
  explicit CsvReader(std::istream& in, char separator = ',');

  /// Reads the next row, or nullopt at end of input. Handles quoted fields
  /// spanning separators; quoted embedded newlines are not supported (the
  /// library never writes them).
  std::optional<std::vector<std::string>> next_row();

 private:
  std::istream& in_;
  char separator_;
};

}  // namespace cloudprov
