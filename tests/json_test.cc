// JsonEscape / JsonWriter / ValidateJson tests. The writer-to-validator
// round trip here is the same check the benches in bench/ run at emission
// time: they write BENCH_*.json through bench_common's WriteJsonFile, which
// validates the full document with ValidateJson before any byte reaches
// disk, so an escaping bug fails the bench instead of producing an
// unparseable file.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "common/json.h"

namespace prix {
namespace {

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(JsonEscape("C:\\path\\file"), "C:\\\\path\\\\file");
  EXPECT_EQ(JsonEscape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(JsonEscape(std::string("\x01\x1f", 2)), "\\u0001\\u001f");
  EXPECT_EQ(JsonEscape("\b\f"), "\\b\\f");
  // UTF-8 passes through byte-for-byte.
  EXPECT_EQ(JsonEscape("prüfer—π"), "prüfer—π");
}

TEST(JsonWriterTest, NestedStructureValidates) {
  JsonWriter w;
  w.BeginObject();
  w.Key("name").String("bench");
  w.Key("empty_obj").BeginObject().EndObject();
  w.Key("empty_arr").BeginArray().EndArray();
  w.Key("rows").BeginArray();
  for (int i = 0; i < 3; ++i) {
    w.BeginObject();
    w.Key("i").Int(-i);
    w.Key("u").UInt(uint64_t{1} << 40);
    w.Key("d").Double(0.125);
    w.Key("b").Bool(i % 2 == 0);
    w.Key("n").Null();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  std::string doc = w.Take();
  EXPECT_TRUE(ValidateJson(doc).ok()) << doc;
  EXPECT_NE(doc.find("\"empty_obj\":{}"), std::string::npos);
  EXPECT_NE(doc.find("\"u\":1099511627776"), std::string::npos);
}

TEST(JsonWriterTest, HostileStringsStillProduceValidJson) {
  // The exact bug class satellite 3 guards: values with quotes, slashes,
  // and control bytes (XPath literals, file paths, error messages).
  const std::string hostile[] = {
      "//a[./b=\"x \\ y\"]",
      "line1\nline2\r\n",
      std::string("nul\x00byte", 8),
      "quote\" backslash\\ tab\t",
      "'single' and \"double\"",
  };
  for (const std::string& s : hostile) {
    JsonWriter w;
    w.BeginObject();
    w.Key(s).String(s);
    w.Key("arr").BeginArray().String(s).EndArray();
    w.EndObject();
    std::string doc = w.Take();
    EXPECT_TRUE(ValidateJson(doc).ok())
        << "for input: " << JsonEscape(s) << "\n  doc: " << doc;
  }
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.BeginObject();
  w.Key("nan").Double(std::nan(""));
  w.Key("inf").Double(std::numeric_limits<double>::infinity());
  w.Key("ninf").Double(-std::numeric_limits<double>::infinity());
  w.Key("ok").Double(1.5);
  w.EndObject();
  std::string doc = w.Take();
  EXPECT_TRUE(ValidateJson(doc).ok()) << doc;
  EXPECT_NE(doc.find("\"nan\":null"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"inf\":null"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"ok\":1.5"), std::string::npos) << doc;
}

TEST(JsonWriterTest, RawValueSplicesVerbatim) {
  JsonWriter inner;
  inner.BeginObject().Key("x").Int(1).EndObject();
  JsonWriter w;
  w.BeginObject();
  w.Key("a").RawValue(inner.str());
  w.Key("b").BeginArray().RawValue("{\"y\":2}").RawValue("3").EndArray();
  w.EndObject();
  std::string doc = w.Take();
  EXPECT_TRUE(ValidateJson(doc).ok()) << doc;
  EXPECT_EQ(doc, "{\"a\":{\"x\":1},\"b\":[{\"y\":2},3]}");
}

TEST(ValidateJsonTest, AcceptsRfc8259Documents) {
  for (const char* ok : {
           "{}",
           "[]",
           "true",
           "null",
           "-0.5e+10",
           "\"\\u00e9\\\"\\\\\\n\"",
           "  {\"a\": [1, 2.5, {\"b\": null}], \"c\": false}  ",
       }) {
    EXPECT_TRUE(ValidateJson(ok).ok()) << ok;
  }
}

TEST(ValidateJsonTest, RejectsWithByteOffset) {
  struct Case {
    const char* text;
    const char* offset_token;  // expected " at offset N" fragment
  };
  const Case cases[] = {
      {"", " at offset 0"},
      {"{\"a\":1} trailing", " at offset 8"},
      {"{\"a\" 1}", " at offset 5"},   // missing colon
      {"[1 2]", " at offset 3"},        // missing comma
      {"{\"a\":}", " at offset 5"},    // missing value
      {"\"unterminated", " at offset "},
      {"\"bad \\q escape\"", " at offset "},
      {"nul", " at offset "},           // truncated literal
      {"01", " at offset "},            // leading zero
      {"[1,]", " at offset 3"},         // trailing comma
  };
  for (const Case& c : cases) {
    Status st = ValidateJson(c.text);
    ASSERT_FALSE(st.ok()) << c.text;
    EXPECT_NE(st.ToString().find(c.offset_token), std::string::npos)
        << "input: " << c.text << "\n  status: " << st.ToString();
  }
}

TEST(ValidateJsonTest, DepthLimitStopsRunawayNesting) {
  std::string deep(300, '[');
  deep.append(300, ']');
  EXPECT_FALSE(ValidateJson(deep).ok());
  std::string fine(50, '[');
  fine.append("1");
  fine.append(50, ']');
  EXPECT_TRUE(ValidateJson(fine).ok());
}

}  // namespace
}  // namespace prix
