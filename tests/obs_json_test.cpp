// Tests for the obs JSON parser and escaper: grammar coverage, escape
// handling (incl. surrogate pairs), strictness on malformed input, the
// nesting-depth bound, and the escape -> parse round-trip the trace
// exporter relies on.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "obs/json.h"
#include "util/error.h"

namespace acsel::obs {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(JsonValue::parse("null").is_null());
  EXPECT_TRUE(JsonValue::parse("true").as_bool());
  EXPECT_FALSE(JsonValue::parse("false").as_bool());
  EXPECT_DOUBLE_EQ(JsonValue::parse("0").as_number(), 0.0);
  EXPECT_DOUBLE_EQ(JsonValue::parse("-12.5").as_number(), -12.5);
  EXPECT_DOUBLE_EQ(JsonValue::parse("2.5e3").as_number(), 2500.0);
  EXPECT_DOUBLE_EQ(JsonValue::parse("1E-2").as_number(), 0.01);
  EXPECT_EQ(JsonValue::parse("\"hi\"").as_string(), "hi");
}

TEST(Json, ParsesNestedStructures) {
  const JsonValue doc = JsonValue::parse(
      R"({"a": [1, 2, {"b": "c"}], "d": {"e": null}, "f": true})");
  EXPECT_EQ(doc.type(), JsonValue::Type::Object);
  const JsonValue& a = doc.at("a");
  ASSERT_EQ(a.items().size(), 3u);
  EXPECT_DOUBLE_EQ(a.items()[0].as_number(), 1.0);
  EXPECT_EQ(a.items()[2].at("b").as_string(), "c");
  EXPECT_TRUE(doc.at("d").at("e").is_null());
  EXPECT_TRUE(doc.at("f").as_bool());
}

TEST(Json, MembersPreserveDocumentOrder) {
  const JsonValue doc = JsonValue::parse(R"({"z": 1, "a": 2, "m": 3})");
  ASSERT_EQ(doc.members().size(), 3u);
  EXPECT_EQ(doc.members()[0].first, "z");
  EXPECT_EQ(doc.members()[1].first, "a");
  EXPECT_EQ(doc.members()[2].first, "m");
}

TEST(Json, FindReturnsNullptrWhenAbsent) {
  const JsonValue doc = JsonValue::parse(R"({"a": 1})");
  EXPECT_NE(doc.find("a"), nullptr);
  EXPECT_EQ(doc.find("b"), nullptr);
  EXPECT_THROW(doc.at("b"), Error);
}

TEST(Json, StringEscapes) {
  EXPECT_EQ(JsonValue::parse(R"("a\"b\\c\/d\n\t")").as_string(),
            "a\"b\\c/d\n\t");
  // \u0041 = 'A'; surrogate pair D83D DE00 = U+1F600 (4-byte UTF-8).
  EXPECT_EQ(JsonValue::parse(R"("\u0041")").as_string(), "A");
  EXPECT_EQ(JsonValue::parse(R"("\ud83d\ude00")").as_string(),
            "\xf0\x9f\x98\x80");
}

TEST(Json, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,", "\"unterminated", "{\"a\" 1}", "01", "1.",
        "tru", "nul", "+1", "\"\\q\"", "\"\\ud800\"", "[1] trailing",
        "{\"a\": 1,}", "--1", "\"\x01\""}) {
    EXPECT_THROW(JsonValue::parse(bad), Error) << "input: " << bad;
  }
}

// Nesting is bounded: kMaxDepth levels parse, one more is refused, and a
// long run of openers fails with a typed error instead of exhausting the
// stack.
TEST(Json, NestingDepthIsBounded) {
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_EQ(JsonValue::parse(nested(JsonValue::kMaxDepth)).type(),
            JsonValue::Type::Array);
  EXPECT_THROW(JsonValue::parse(nested(JsonValue::kMaxDepth + 1)), Error);

  constexpr std::size_t kRun = 1'000'000;
  EXPECT_THROW(JsonValue::parse(std::string(kRun, '[')), Error);
  std::string objects;
  objects.reserve(5 * kRun);
  for (std::size_t i = 0; i < kRun; ++i) {
    objects += "{\"a\":";
  }
  EXPECT_THROW(JsonValue::parse(objects), Error);
}

TEST(Json, AccessorsThrowOnTypeMismatch) {
  const JsonValue num = JsonValue::parse("1");
  EXPECT_THROW(num.as_bool(), Error);
  EXPECT_THROW(num.as_string(), Error);
  EXPECT_THROW(num.items(), Error);
  EXPECT_THROW(num.members(), Error);
  EXPECT_THROW(num.at("k"), Error);
}

TEST(Json, EscapeRoundTripsThroughParser) {
  const std::string nasty = "a\"b\\c\nd\te\rf\x01g";
  // Built with appends: GCC 12's -Wrestrict false-positives on
  // `const char* + std::string&&` chains (PR 105651).
  std::string doc = "\"";
  doc += json_escape(nasty);
  doc += "\"";
  EXPECT_EQ(JsonValue::parse(doc).as_string(), nasty);
}

}  // namespace
}  // namespace acsel::obs
