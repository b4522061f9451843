// The one JSON string escaper behind every hand-built JSON emitter (engine
// reports, the wire stats, the CLI's --json output, verifier reports).
#pragma once

#include <cstdio>
#include <string>

namespace mcf {

/// Escapes `s` for use inside a JSON string literal: quotes, backslashes,
/// \n and \t get their short escapes, other control characters \u00XX.
[[nodiscard]] inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace mcf
