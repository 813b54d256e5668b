/**
 * @file
 * util/json string handling: every escape, the error cases and their
 * byte offsets, and long strings whose unescaped runs are appended in
 * bulk.
 */

#include <gtest/gtest.h>

#include <string>

#include "util/error.hh"
#include "util/json.hh"

using namespace gcm;

namespace
{

/** The string value of the JSON document `doc`. */
std::string
stringOf(const std::string &doc)
{
    const json::Value v = json::parseJson(doc);
    EXPECT_TRUE(v.isString());
    return v.str;
}

/** The GcmError message parseJson raises for `doc` ("" if none). */
std::string
rejection(const std::string &doc)
{
    try {
        (void)json::parseJson(doc);
    } catch (const GcmError &e) {
        return e.what();
    }
    return "";
}

} // namespace

TEST(Json, DecodesEveryEscape)
{
    EXPECT_EQ(stringOf(R"("\"\\\/\b\f\n\r\t")"),
              std::string("\"\\/\b\f\n\r\t"));
    EXPECT_EQ(stringOf(R"("caf\u00e9")"), std::string("caf\xe9"));
    EXPECT_EQ(stringOf(R"("\u0041\u00ff\u0000!")"),
              std::string("A\xff\0!", 4));
}

TEST(Json, EscapeErrorsKeepTheirOffsets)
{
    EXPECT_EQ(rejection(R"("\u0100")"),
              "json: \\u escape beyond latin-1 unsupported at offset 7");
    EXPECT_EQ(rejection(R"("\u00g0")"),
              "json: bad \\u escape digit at offset 3");
    EXPECT_EQ(rejection(R"("\u00)"), "json: truncated \\u escape at offset 3");
    EXPECT_EQ(rejection(R"("\x")"), "json: unknown escape at offset 3");
    EXPECT_EQ(rejection("\"abc\\"), "json: unterminated escape at offset 5");
}

TEST(Json, UnterminatedStringFails)
{
    EXPECT_EQ(rejection("\"abc"), "json: unterminated string at offset 4");
    EXPECT_EQ(rejection("{\"k\": \"v"),
              "json: unterminated string at offset 8");
}

TEST(Json, RawControlCharactersPassThrough)
{
    // The parser does not reject raw control bytes inside strings.
    EXPECT_EQ(stringOf(std::string("\"a\x01\tb\nc\"")),
              std::string("a\x01\tb\nc"));
}

TEST(Json, LongStringsMixRunsAndEscapes)
{
    std::string doc = "\"";
    std::string want;
    for (int line = 0; line < 200; ++line) {
        const std::string text =
            "node " + std::to_string(line) + " Conv2d k=3 shape=1,8,8,3";
        doc += text + "\\n";
        want += text + "\n";
    }
    doc += "\\\"end\\\"\"";
    want += "\"end\"";
    EXPECT_EQ(stringOf(doc), want);
}
