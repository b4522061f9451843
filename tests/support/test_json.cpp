#include "support/json.hpp"

#include <gtest/gtest.h>

namespace mcf {
namespace {

TEST(JsonEscape, EscapesQuotesBackslashesAndControlChars) {
  EXPECT_EQ(json_escape("plain text"), "plain text");
  EXPECT_EQ(json_escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("line\nnext\ttab"), "line\\nnext\\ttab");
  EXPECT_EQ(json_escape(std::string("x\x01y")), "x\\u0001y");
  EXPECT_EQ(json_escape(std::string("\x1f")), "\\u001f");
}

}  // namespace
}  // namespace mcf
