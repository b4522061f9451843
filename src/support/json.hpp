// The one JSON writer behind every JSON document the program prints:
// EngineStats, GraphFusionReport, the wire reports, the verifier reports
// and the CLI's --json output.  It decides the format in one place:
// strings are escaped, integers print without a decimal point, doubles
// at six significant digits (printf's %.6g; a non-finite double is
// null), and commas go between the members of each object and array.
//
//   JsonWriter w;
//   w.object().field("name", "gen1").field("time_us", 5.25);
//   w.key("best_tiles").integers(tiles).end();
//   std::string doc = w.str();   // {"name":"gen1","time_us":5.25,...}
#pragma once

#include <charconv>
#include <concepts>
#include <cstddef>
#include <string>
#include <string_view>

namespace mcf {

class JsonWriter {
 public:
  JsonWriter& object() { return open('{', '}'); }
  JsonWriter& array() { return open('[', ']'); }
  JsonWriter& end();  ///< closes the innermost open object or array
  /// Names the next value of the open object.
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(bool b);
  JsonWriter& value(double d);
  template <std::integral T>
  JsonWriter& value(T v) {
    char buf[24];
    const auto r = std::to_chars(buf, buf + sizeof(buf), v);
    return raw(std::string_view(buf, static_cast<std::size_t>(r.ptr - buf)));
  }
  /// A complete JSON value another writer built (a nested to_json()).
  JsonWriter& raw(std::string_view json);

  template <class T>
  JsonWriter& field(std::string_view name, const T& v) {
    return key(name).value(v);
  }
  /// An array of the integers in `items` (tile sizes, index lists).
  template <class Range>
  JsonWriter& integers(const Range& items) {
    array();
    for (const auto v : items) value(v);
    return end();
  }

  /// The document; every object and array must be closed.
  [[nodiscard]] std::string str() const;

 private:
  JsonWriter& open(char opener, char closer);
  /// Writes the comma a value needs after its previous sibling.
  void separate();

  std::string out_;
  std::string closers_;  ///< '}' or ']' per open container, innermost last
  bool need_comma_ = false;
  bool after_key_ = false;
};

}  // namespace mcf
