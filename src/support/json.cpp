#include "support/json.hpp"

#include <cmath>
#include <cstdio>

#include "support/logging.hpp"

namespace mcf {

void JsonWriter::separate() {
  if (need_comma_ && !after_key_) out_ += ',';
  after_key_ = false;
}

JsonWriter& JsonWriter::open(char opener, char closer) {
  separate();
  out_ += opener;
  closers_ += closer;
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::end() {
  MCF_CHECK(!closers_.empty() && !after_key_) << "unbalanced JSON: " << out_;
  out_ += closers_.back();
  closers_.pop_back();
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  MCF_CHECK(!closers_.empty() && closers_.back() == '}' && !after_key_)
      << "JSON key '" << name << "' outside an object: " << out_;
  value(name);
  out_ += ':';
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  separate();
  out_ += '"';
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += c;
    } else if (c == '\n') {
      out_ += "\\n";
    } else if (c == '\t') {
      out_ += "\\t";
    } else if (u < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(u));
      out_ += buf;
    } else {
      out_ += c;
    }
  }
  out_ += '"';
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(bool b) { return raw(b ? "true" : "false"); }

JsonWriter& JsonWriter::value(double d) {
  if (!std::isfinite(d)) return raw("null");
  char buf[32];
  const int n = std::snprintf(buf, sizeof(buf), "%.6g", d);
  return raw(std::string_view(buf, static_cast<std::size_t>(n)));
}

JsonWriter& JsonWriter::raw(std::string_view json) {
  separate();
  out_ += json;
  need_comma_ = true;
  return *this;
}

std::string JsonWriter::str() const {
  MCF_CHECK(closers_.empty() && !after_key_) << "unfinished JSON: " << out_;
  return out_;
}

}  // namespace mcf
