// JSON document model: writer/parser round trips, insertion order, string
// escaping, non-finite handling, and strict-parser rejections.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "obs/json.hpp"

namespace treecode {
namespace {

TEST(Json, BuildAndDumpObject) {
  obs::Json j = obs::Json::object();
  j["b"] = 2;
  j["a"] = 1;
  j["s"] = "text";
  j["flag"] = true;
  j["nothing"] = obs::Json();
  // Insertion order is preserved (reports stay diffable).
  EXPECT_EQ(j.dump(), R"({"b":2,"a":1,"s":"text","flag":true,"nothing":null})");
}

TEST(Json, NestedAutoVivification) {
  obs::Json j = obs::Json::object();
  j["outer"]["inner"] = 3.5;
  EXPECT_DOUBLE_EQ(j.at("outer").at("inner").as_double(), 3.5);
}

TEST(Json, IntegersPrintWithoutExponent) {
  obs::Json j = obs::Json::object();
  j["big"] = std::uint64_t{123456789012};
  j["neg"] = -42;
  EXPECT_EQ(j.dump(), R"({"big":123456789012,"neg":-42})");
}

TEST(Json, NonFiniteSerializesAsNull) {
  obs::Json j = obs::Json::array();
  j.push_back(std::numeric_limits<double>::infinity());
  j.push_back(std::numeric_limits<double>::quiet_NaN());
  j.push_back(1.5);
  EXPECT_EQ(j.dump(), "[null,null,1.5]");
}

TEST(Json, StringEscaping) {
  obs::Json j = obs::Json::object();
  j["k"] = std::string("quote \" backslash \\ newline \n tab \t");
  const std::string out = j.dump();
  EXPECT_NE(out.find(R"(\")"), std::string::npos);
  EXPECT_NE(out.find(R"(\\)"), std::string::npos);
  EXPECT_NE(out.find(R"(\n)"), std::string::npos);
  // Round trip through the parser restores the original bytes.
  const obs::Json back = obs::Json::parse(out);
  EXPECT_EQ(back.at("k").as_string(), "quote \" backslash \\ newline \n tab \t");
}

TEST(Json, ParseRoundTrip) {
  const std::string text =
      R"({"tool":"bench","values":[1,2.5,-3e2],"ok":true,"none":null,"nested":{"k":"v"}})";
  const obs::Json j = obs::Json::parse(text);
  EXPECT_EQ(j.at("tool").as_string(), "bench");
  EXPECT_EQ(j.at("values").size(), 3u);
  EXPECT_DOUBLE_EQ(j.at("values").at(2).as_double(), -300.0);
  EXPECT_TRUE(j.at("ok").as_bool());
  EXPECT_TRUE(j.at("none").is_null());
  EXPECT_EQ(j.at("nested").at("k").as_string(), "v");
  // dump -> parse -> dump is a fixed point.
  EXPECT_EQ(obs::Json::parse(j.dump()).dump(), j.dump());
}

TEST(Json, ParseUnicodeEscapes) {
  const obs::Json j = obs::Json::parse("[\"A\\u00e9\"]");  // "é" as a \u escape
  EXPECT_EQ(j.at(std::size_t{0}).as_string(), "A\xc3\xa9");  // UTF-8 bytes of é
}

TEST(Json, PrettyPrintIndents) {
  obs::Json j = obs::Json::object();
  j["a"] = 1;
  EXPECT_EQ(j.dump(2), "{\n  \"a\": 1\n}");
}

TEST(Json, StrictParserRejectsMalformedInput) {
  EXPECT_THROW(obs::Json::parse(""), std::runtime_error);
  EXPECT_THROW(obs::Json::parse("{"), std::runtime_error);
  EXPECT_THROW(obs::Json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(obs::Json::parse("{'a':1}"), std::runtime_error);
  EXPECT_THROW(obs::Json::parse("[1] trailing"), std::runtime_error);
  EXPECT_THROW(obs::Json::parse("nul"), std::runtime_error);
}

TEST(Json, AccessorsThrowOnTypeMismatch) {
  const obs::Json j = obs::Json::parse("[1,2]");
  EXPECT_THROW((void)j.at("key"), std::out_of_range);
  EXPECT_THROW((void)j.at(std::size_t{5}), std::out_of_range);
  EXPECT_THROW((void)j.as_string(), std::runtime_error);
}

TEST(Json, NonFiniteRoundTripsAsNullDeterministically) {
  // Reports and trace exports can legitimately contain NaN/Inf (an empty
  // histogram's mean, an infinite tightness ratio); they must serialize as
  // null the same way every time, and the result must re-parse.
  obs::Json j = obs::Json::object();
  j["nan"] = std::numeric_limits<double>::quiet_NaN();
  j["inf"] = std::numeric_limits<double>::infinity();
  j["ninf"] = -std::numeric_limits<double>::infinity();
  j["ok"] = 2.0;
  const std::string once = j.dump();
  EXPECT_EQ(once, j.dump());
  EXPECT_EQ(once, R"({"nan":null,"inf":null,"ninf":null,"ok":2})");
  const obs::Json back = obs::Json::parse(once);
  EXPECT_TRUE(back.at("nan").is_null());
  EXPECT_TRUE(back.at("inf").is_null());
  EXPECT_DOUBLE_EQ(back.at("ok").as_double(), 2.0);
}

TEST(Json, DeeplyNestedWithinLimitParses) {
  // Real reports nest a few levels; 100 is far beyond anything the bench
  // tools emit and must still parse on the recursive-descent parser.
  const int depth = 100;
  std::string text;
  for (int i = 0; i < depth; ++i) text += "[";
  text += "1";
  for (int i = 0; i < depth; ++i) text += "]";
  obs::Json j = obs::Json::parse(text);
  for (int i = 0; i < depth; ++i) j = j.at(std::size_t{0});
  EXPECT_DOUBLE_EQ(j.as_double(), 1.0);
}

TEST(Json, PathologicallyNestedInputIsRejectedNotStackOverflow) {
  // A hostile or corrupted file with thousands of open brackets must fail
  // with a parse error, not exhaust the stack in the recursive parser.
  std::string arrays(2000, '[');
  EXPECT_THROW(obs::Json::parse(arrays), std::runtime_error);
  std::string objects;
  for (int i = 0; i < 2000; ++i) objects += "{\"k\":";
  EXPECT_THROW(obs::Json::parse(objects), std::runtime_error);
  try {
    obs::Json::parse(arrays);
    FAIL() << "expected parse failure";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("nesting too deep"), std::string::npos);
  }
}

}  // namespace
}  // namespace treecode
