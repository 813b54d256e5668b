/**
 * @file
 * util/json string handling: every escape, the error cases and their
 * byte offsets, and long strings whose unescaped runs are appended in
 * bulk; and json::Writer's two layouts, escapes and number format.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
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

TEST(Json, DuplicateKeysAreFoundAmongManyKeys)
{
    // Past an object's first keys duplicates are looked up in a sorted
    // index, which is per object: siblings may reuse each other's keys.
    const auto object = [](int keys) {
        std::string doc = "{";
        for (int k = 0; k < keys; ++k)
            doc += (k ? ", \"k" : "\"k") + std::to_string(k) + "\": {}";
        return doc;
    };
    const std::string many = object(100);
    EXPECT_EQ(json::parseJson("[" + many + "}, " + many + "}]").array.size(),
              2u);
    for (const int dup : {3, 15, 16, 40, 99}) {
        const std::string doc =
            many + ", \"k" + std::to_string(dup) + "\": 1}";
        EXPECT_EQ(rejection(doc),
                  "json: duplicate key 'k" + std::to_string(dup)
                      + "' at offset "
                      + std::to_string(many.size() + 5
                                       + std::to_string(dup).size()))
            << dup;
    }
}

TEST(Json, UnterminatedStringFails)
{
    EXPECT_EQ(rejection("\"abc"), "json: unterminated string at offset 4");
    EXPECT_EQ(rejection("{\"k\": \"v"),
              "json: unterminated string at offset 8");
}

namespace
{

/** parseJson's message for the one-element array [token]. */
std::string
numberRejection(const std::string &token)
{
    return rejection("[" + token + "]");
}

/** The message a token that is no RFC 8259 number gets. */
std::string
malformed(const std::string &token)
{
    return "json: malformed number '" + token + "' at offset "
        + std::to_string(1 + token.size());
}

/** The message a grammatical number beyond double range gets. */
std::string
nonFinite(const std::string &token)
{
    return "json: non-finite number '" + token + "' at offset "
        + std::to_string(1 + token.size());
}

} // namespace

TEST(Json, OverflowingNumberIsNonFinite)
{
    EXPECT_EQ(numberRejection("1e999"), nonFinite("1e999"));
    EXPECT_EQ(numberRejection("-1e999"), nonFinite("-1e999"));
    EXPECT_EQ(numberRejection("2e308"), nonFinite("2e308"));
}

TEST(Json, UnderflowingNumberParsesToTheNearestDouble)
{
    EXPECT_EQ(json::parseJson("1e-400").number, 0.0);
    EXPECT_EQ(json::parseJson("-1e-400").number, -0.0);
    EXPECT_TRUE(std::signbit(json::parseJson("-1e-400").number));
    // Subnormal: strtod's value, which is not zero.
    const double tiny = json::parseJson("4e-320").number;
    EXPECT_EQ(tiny, std::strtod("4e-320", nullptr));
    EXPECT_GT(tiny, 0.0);
}

TEST(Json, NegativeUnderflowIsNegativeZero)
{
    for (const char *doc : {"-1e-400", "[-1e-400]", "{\"a\": -1e-400}",
                            "-2e-324", "-0"}) {
        json::Value v = json::parseJson(doc);
        if (v.isArray())
            v = v.array.at(0);
        else if (v.isObject())
            v = v.at("a");
        EXPECT_EQ(v.number, 0.0) << doc;
        EXPECT_TRUE(std::signbit(v.number)) << doc;
    }
    EXPECT_FALSE(std::signbit(json::parseJson("1e-400").number));
}

TEST(Json, NumberWithLeadingPlusIsRejected)
{
    EXPECT_EQ(numberRejection("+3.1"), malformed("+3.1"));
}

TEST(Json, NumberWithoutIntegerPartIsRejected)
{
    EXPECT_EQ(numberRejection(".5"), malformed(".5"));
}

TEST(Json, NumberEndingInDotIsRejected)
{
    EXPECT_EQ(numberRejection("3."), malformed("3."));
}

TEST(Json, NumberWithLeadingZeroIsRejected)
{
    EXPECT_EQ(numberRejection("03"), malformed("03"));
    EXPECT_EQ(numberRejection("-01.5"), malformed("-01.5"));
}

TEST(Json, NumberWithDotBeforeExponentIsRejected)
{
    EXPECT_EQ(numberRejection("1.e1"), malformed("1.e1"));
}

TEST(Json, BareMinusIsRejected)
{
    EXPECT_EQ(numberRejection("-"), malformed("-"));
}

TEST(Json, NumberWithEmptyExponentIsRejected)
{
    EXPECT_EQ(numberRejection("1e+"), malformed("1e+"));
    EXPECT_EQ(numberRejection("1e"), malformed("1e"));
}

TEST(Json, RandomNumberTokensParseExactlyWhenTheGrammarMatches)
{
    // Tokens over the bytes a number run may hold: parseJson takes one
    // exactly when it matches the RFC 8259 production (and does not
    // overflow), and then reads the value strtod reads.
    // The production as an automaton over byte classes
    // 0, 1-9, -, +, ., e/E; states 2, 3, 5 and 8 accept.
    constexpr int kNext[9][6] = {
        {2, 3, 1, -1, -1, -1},   // start
        {2, 3, -1, -1, -1, -1},  // after '-'
        {-1, -1, -1, -1, 4, 6},  // leading 0
        {3, 3, -1, -1, 4, 6},    // integer digits
        {5, 5, -1, -1, -1, -1},  // after '.'
        {5, 5, -1, -1, -1, 6},   // fraction digits
        {8, 8, 7, 7, -1, -1},    // after e
        {8, 8, -1, -1, -1, -1},  // after the exponent sign
        {8, 8, -1, -1, -1, -1},  // exponent digits
    };
    const auto matchesGrammar = [&](const std::string &token) {
        int state = 0;
        for (const char c : token) {
            int cls = 5; // e or E
            if (c == '0')
                cls = 0;
            else if (c >= '1' && c <= '9')
                cls = 1;
            else if (c == '-')
                cls = 2;
            else if (c == '+')
                cls = 3;
            else if (c == '.')
                cls = 4;
            state = kNext[state][cls];
            if (state < 0)
                return false;
        }
        return state == 2 || state == 3 || state == 5 || state == 8;
    };
    const char alphabet[] = "0123456789-+.eE";
    std::uint64_t lcg = 0x9e3779b97f4a7c15ull;
    const auto next = [&] {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<std::size_t>(lcg >> 33);
    };
    std::size_t accepted = 0;
    for (int i = 0; i < 20000; ++i) {
        std::string token;
        const std::size_t len = 1 + next() % 6;
        for (std::size_t k = 0; k < len; ++k) {
            // Digits drawn twice as often as the other bytes.
            const std::size_t r = next() % 25;
            token += r < 20 ? alphabet[r % 10] : alphabet[10 + r - 20];
        }
        const bool matches = matchesGrammar(token);
        const std::string error = numberRejection(token);
        if (!matches) {
            EXPECT_EQ(error, malformed(token));
            continue;
        }
        // Out of double range (errno ERANGE): overflow is refused as
        // non-finite, underflow reads strtod's 0 or subnormal.
        const double expected = std::strtod(token.c_str(), nullptr);
        if (std::isinf(expected)) {
            EXPECT_EQ(error, nonFinite(token));
            continue;
        }
        ASSERT_EQ(error, "") << token;
        EXPECT_EQ(json::parseJson(token).number, expected) << token;
        ++accepted;
    }
    EXPECT_GT(accepted, 1000u);

    // The hard cases of a correctly rounded conversion: 17 and more
    // significant digits, exponents at the edges of double range,
    // subnormals, signed underflow and overflow. Each grammatical
    // token reads strtod's bits, the sign of zero included.
    const auto digitRun = [&](std::size_t n) {
        std::string run(1, "123456789"[next() % 9]);
        while (run.size() < n)
            run += alphabet[next() % 10];
        return run;
    };
    std::size_t zeros = 0, subnormals = 0, overflows = 0;
    for (int i = 0; i < 20000; ++i) {
        std::string token = next() % 2 ? "-" : "";
        const std::size_t digits = next() % 4 ? 17 : 18 + next() % 23;
        const std::string run = digitRun(digits);
        if (next() % 2)
            token += run;
        else
            token += run.substr(0, 1) + "." + run.substr(1);
        const long exponent = 290 + static_cast<long>(next() % 41);
        const bool small = next() % 2;
        token += (next() % 2 ? "e" : "E")
            + std::string(small ? "-" : next() % 2 ? "+" : "")
            + std::to_string(exponent);
        const double expected = std::strtod(token.c_str(), nullptr);
        if (std::isinf(expected)) {
            EXPECT_EQ(numberRejection(token), nonFinite(token));
            ++overflows;
            continue;
        }
        const double got = json::parseJson(token).number;
        ASSERT_EQ(std::memcmp(&got, &expected, sizeof(got)), 0)
            << token << ": " << got << " vs " << expected;
        zeros += expected == 0.0;
        subnormals += std::fpclassify(expected) == FP_SUBNORMAL;
    }
    EXPECT_GT(zeros, 100u);
    EXPECT_GT(subnormals, 100u);
    EXPECT_GT(overflows, 100u);
}

TEST(Json, RawControlCharactersAreRejected)
{
    // JSON requires control bytes inside a string to be escaped; a
    // raw one is an error at its own offset.
    EXPECT_EQ(rejection(std::string("\"a\x01" "b\"")),
              "json: raw control byte in string at offset 2");
    EXPECT_EQ(rejection(std::string("\"ab\tc\"")),
              "json: raw control byte in string at offset 3");
    EXPECT_EQ(rejection(std::string("{\"k\": \"x\ny\"}")),
              "json: raw control byte in string at offset 8");
    EXPECT_EQ(rejection(std::string("\"\0\"", 3)),
              "json: raw control byte in string at offset 1");
    // Escaped, the same bytes decode; DEL and bytes >= 0x80 are not
    // control characters.
    EXPECT_EQ(stringOf(R"("a\u0001\tb\nc")"), std::string("a\x01\tb\nc"));
    EXPECT_EQ(stringOf("\"\x7f\xff\""), std::string("\x7f\xff"));
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

// ------------------------------------------------------------- writer

TEST(Json, WriterInlineLayoutUsesTheProtocolSeparators)
{
    std::string out;
    json::Writer w(out);
    w.beginObject()
        .field("id", "r1")
        .field("ok", true)
        .field("n", 3)
        .key("xs")
        .beginArray()
        .value(1)
        .value(false)
        .null()
        .endArray()
        .key("o")
        .beginObject()
        .field("k", "v")
        .endObject()
        .endObject();
    EXPECT_EQ(out, R"({"id": "r1", "ok": true, "n": 3, "xs": [1, false, )"
                   R"(null], "o": {"k": "v"}})");
}

TEST(Json, WriterBlockLayoutIndentsPerEnclosingBlock)
{
    std::string out;
    json::Writer w(out);
    w.beginObject(json::Layout::Block).field("a", 1).key("rows");
    w.beginArray(json::Layout::Block);
    w.beginObject().field("x", 1).endObject();
    w.beginObject(json::Layout::Block).field("y", 2).endObject();
    w.endArray();
    w.key("inline").beginObject().key("kids").beginArray(json::Layout::Block);
    w.value("deep").endArray().endObject();
    w.endObject();
    EXPECT_EQ(out, "{\n"
                   "  \"a\": 1,\n"
                   "  \"rows\": [\n"
                   "    {\"x\": 1},\n"
                   "    {\n"
                   "      \"y\": 2\n"
                   "    }\n"
                   "  ],\n"
                   // An inline container adds no indentation level.
                   "  \"inline\": {\"kids\": [\n"
                   "    \"deep\"\n"
                   "  ]}\n"
                   "}");
}

TEST(Json, WriterEmptyContainersAreBracketPairs)
{
    std::string out;
    json::Writer w(out);
    w.beginObject(json::Layout::Block)
        .key("a")
        .beginObject(json::Layout::Block)
        .endObject()
        .key("b")
        .beginArray(json::Layout::Block)
        .endArray()
        .key("c")
        .beginObject()
        .endObject()
        .key("d")
        .beginArray()
        .endArray()
        .endObject();
    EXPECT_EQ(out, "{\n  \"a\": {},\n  \"b\": [],\n  \"c\": {},\n"
                   "  \"d\": []\n}");
    std::string top;
    json::Writer(top).beginArray(json::Layout::Block).endArray();
    EXPECT_EQ(top, "[]");
}

TEST(Json, WriterEscapesKeysAndStrings)
{
    std::string out;
    json::Writer w(out);
    w.beginObject()
        .field("q\"k", "a\\b\nc\td\re\x01\x1f\x7f\xe9")
        .endObject();
    EXPECT_EQ(out, R"({"q\"k": "a\\b\nc\td\re\u0001\u001f)"
                   "\x7f\xe9\"}");
    // Every byte the writer emits parses back to itself.
    std::string all;
    for (int c = 1; c < 256; ++c)
        all.push_back(static_cast<char>(c));
    all.push_back('\0');
    std::string doc;
    json::Writer(doc).value(all);
    EXPECT_EQ(json::parseJson(doc).str, all);
}

TEST(Json, WriterIntegersAreExact)
{
    std::string out;
    json::Writer w(out);
    w.beginArray()
        .value(std::uint64_t{18446744073709551615u})
        .value(std::int64_t{-9223372036854775807 - 1})
        .value(std::size_t{0})
        .value(std::uint32_t{7})
        .value(-3)
        .endArray();
    EXPECT_EQ(out,
              "[18446744073709551615, -9223372036854775808, 0, 7, -3]");
}

TEST(Json, WriterDoublesArePrintedPercent17g)
{
    std::string out;
    json::Writer w(out);
    w.beginArray().value(0.1).value(40.0).value(-2.5e-300).value(1e21);
    w.value(0.35).value(-0.0).endArray();
    EXPECT_EQ(out, "[0.10000000000000001, 40, -2.5e-300, "
                   "1e+21, 0.34999999999999998, -0]");
    EXPECT_EQ(json::formatNumber(1.0 / 3.0), "0.33333333333333331");
    // %.17g round-trips through the parser bit for bit.
    for (const double v : {0.1, 1.0 / 3.0, 2.5e-300, 6.02214076e23}) {
        EXPECT_EQ(json::parseJson(json::formatNumber(v)).number, v);
    }
}

TEST(Json, WriterNumbersMatchPrintfOnRandomDoubles)
{
    // The writer formats with std::to_chars; every finite double must
    // come out as printf's "%.17g" would print it.
    std::uint64_t bits = 0x9e3779b97f4a7c15u;
    for (int i = 0; i < 200000; ++i) {
        bits ^= bits << 13;
        bits ^= bits >> 7;
        bits ^= bits << 17;
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof(v));
        if (i % 2 == 1)
            v = static_cast<double>(bits % 1000000007u) / 1024.0;
        if (!std::isfinite(v))
            continue;
        char want[32];
        std::snprintf(want, sizeof(want), "%.17g", v);
        ASSERT_EQ(json::formatNumber(v), want) << "bits " << bits;
    }
}

TEST(Json, WriterNonFiniteNumbersAreNull)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_EQ(json::formatNumber(inf), "null");
    EXPECT_EQ(json::formatNumber(-inf), "null");
    EXPECT_EQ(json::formatNumber(nan), "null");
    std::string out;
    json::Writer w(out);
    w.beginObject().field("a", inf).field("b", nan).field("c", 1.5);
    w.endObject();
    EXPECT_EQ(out, R"({"a": null, "b": null, "c": 1.5})");
    const json::Value v = json::parseJson(out);
    EXPECT_TRUE(v.at("a").isNull());
    EXPECT_TRUE(v.at("b").isNull());
}
