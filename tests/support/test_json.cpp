#include "support/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace mcf {
namespace {

std::string string_value(const std::string& s) {
  return JsonWriter().value(s).str();
}

TEST(JsonWriter, EscapesQuotesBackslashesAndControlChars) {
  EXPECT_EQ(string_value("plain text"), "\"plain text\"");
  EXPECT_EQ(string_value("say \"hi\""), "\"say \\\"hi\\\"\"");
  EXPECT_EQ(string_value("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(string_value("line\nnext\ttab"), "\"line\\nnext\\ttab\"");
  EXPECT_EQ(string_value(std::string("x\x01y")), "\"x\\u0001y\"");
  EXPECT_EQ(string_value(std::string("\x1f")), "\"\\u001f\"");
  // Keys go through the same escaper.
  EXPECT_EQ(JsonWriter().object().field("a\"b", 1).end().str(),
            "{\"a\\\"b\":1}");
}

TEST(JsonWriter, DoublesKeepSixSignificantDigits) {
  // A microsecond time in seconds: %f would print 0.000005.
  EXPECT_EQ(JsonWriter().value(5e-6).str(), "5e-06");
  EXPECT_EQ(JsonWriter().value(5.123456789e-6).str(), "5.12346e-06");
  EXPECT_EQ(JsonWriter().value(123.456789).str(), "123.457");
  EXPECT_EQ(JsonWriter().value(0.0).str(), "0");
  EXPECT_EQ(JsonWriter().value(2.5).str(), "2.5");
  // JSON has no inf or nan.
  EXPECT_EQ(JsonWriter().value(std::numeric_limits<double>::infinity()).str(),
            "null");
  EXPECT_EQ(JsonWriter().value(std::nan("")).str(), "null");
}

TEST(JsonWriter, IntegersPrintWithoutADecimalPoint) {
  EXPECT_EQ(JsonWriter().value(42).str(), "42");
  EXPECT_EQ(JsonWriter().value(-7).str(), "-7");
  EXPECT_EQ(JsonWriter().value(std::size_t{1} << 40).str(), "1099511627776");
  EXPECT_EQ(JsonWriter().value(std::numeric_limits<std::uint64_t>::max()).str(),
            "18446744073709551615");
  EXPECT_EQ(JsonWriter().value(std::numeric_limits<std::int64_t>::min()).str(),
            "-9223372036854775808");
  EXPECT_EQ(JsonWriter().value(true).str(), "true");
  EXPECT_EQ(JsonWriter().value(false).str(), "false");
}

TEST(JsonWriter, NestedContainersGetTheirCommasRight) {
  JsonWriter w;
  w.object().field("a", 1).key("empty").object().end();
  w.key("list").array();
  w.object().field("x", 1).end();
  w.object().end();
  w.value("s");
  w.end();
  w.key("tiles").integers(std::vector<std::int64_t>{64, 32});
  w.key("none").integers(std::vector<int>{});
  w.key("doc").raw(JsonWriter().object().field("k", false).end().str());
  w.field("last", "z").end();
  EXPECT_EQ(w.str(),
            "{\"a\":1,\"empty\":{},\"list\":[{\"x\":1},{},\"s\"],"
            "\"tiles\":[64,32],\"none\":[],\"doc\":{\"k\":false},"
            "\"last\":\"z\"}");
}

}  // namespace
}  // namespace mcf
