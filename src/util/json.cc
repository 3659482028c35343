#include "util/json.h"

#include <cmath>
#include <cstdio>
#include <sstream>

namespace cloudprov {

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  std::ostringstream out;
  out.precision(17);
  out << value;
  return out.str();
}

std::string json_string(const std::string& text) {
  std::string escaped = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': escaped += "\\\""; break;
      case '\\': escaped += "\\\\"; break;
      case '\n': escaped += "\\n"; break;
      case '\t': escaped += "\\t"; break;
      case '\r': escaped += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(c));
          escaped += buffer;
        } else {
          escaped += c;
        }
    }
  }
  escaped += '"';
  return escaped;
}

}  // namespace cloudprov
