/**
 * @file
 * gcm-serve/v1 request reading, without a model: which message a line
 * with several faults gets, what a failed line still fills in (the id
 * echoed back and the priority the front end queues it by), and a
 * differential check of tryParseRequest against a reference that walks
 * the parsed DOM, over a seeded corpus of request-shaped lines and
 * their mutations.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "dnn/quantize.hh"
#include "dnn/serialize.hh"
#include "dnn/zoo.hh"
#include "serve/protocol.hh"
#include "util/error.hh"
#include "util/json.hh"
#include "util/rng.hh"

using namespace gcm;
using serve::Priority;

namespace
{

/** tryParseRequest's message and request for `line`. */
struct Parsed
{
    std::string message;
    serve::ServeRequest request;
};

Parsed
parse(const std::string &line)
{
    Parsed p;
    p.message = serve::tryParseRequest(line, p.request);
    return p;
}

} // namespace

TEST(Protocol, GrammarErrorAfterASchemaErrorWins)
{
    EXPECT_EQ(parse(R"({"network": 7, "x": [1,})").message,
              "json: expected a number at offset 23");
    EXPECT_EQ(parse(R"({"network": 7, "id": "a"} x)").message,
              "json: trailing content at offset 26");
}

TEST(Protocol, SchemaErrorsFollowKeyOrder)
{
    // network < signature, whatever the order on the line.
    EXPECT_EQ(parse(R"({"signature": "s", "network": 7})").message,
              "field 'network' must be a non-empty string");
    EXPECT_EQ(parse(R"({"priority": "urgent", "device": ""})").message,
              "field 'device' must be a non-empty string");
    EXPECT_EQ(parse(R"({"signature": [1, "x"], "priority": 3})").message,
              "field 'priority' must be \"interactive\" or \"bulk\"");
}

TEST(Protocol, UnknownFieldSortsAmongKnownFields)
{
    EXPECT_EQ(parse(R"({"network": 7, "exploit": 1})").message,
              "unknown field 'exploit'");
    EXPECT_EQ(parse(R"({"zzz": 1, "network": 7})").message,
              "field 'network' must be a non-empty string");
    EXPECT_EQ(parse(R"({"network": "a", "zzz": 1, "signature": "s"})")
                  .message,
              "field 'signature' must be an array of numbers");
    // Keys compare decoded: "\u0041" is "A", which sorts first.
    EXPECT_EQ(parse(R"({"device": 1, "\u0041": 2})").message,
              "unknown field 'A'");
}

TEST(Protocol, IdIsEchoedOnASchemaError)
{
    const Parsed schema = parse(R"({"network": 7, "id": "r9"})");
    EXPECT_EQ(schema.message, "field 'network' must be a non-empty string");
    EXPECT_EQ(schema.request.id, "r9");
    const Parsed unknown = parse(R"({"zzz": [], "id": "r\"8"})");
    EXPECT_EQ(unknown.message, "unknown field 'zzz'");
    EXPECT_EQ(unknown.request.id, "r\"8");
    // No id without a valid JSON object.
    const Parsed grammar = parse(R"({"id": "r7", "x": [})");
    EXPECT_EQ(grammar.message, "json: expected a number at offset 19");
    EXPECT_EQ(grammar.request.id, "");
    const Parsed wrong = parse(R"({"id": 7, "network": "a"})");
    EXPECT_EQ(wrong.message, "field 'id' must be a string");
    EXPECT_EQ(wrong.request.id, "");
}

TEST(Protocol, PriorityOfAFailedLineIsWhatKeyOrderLeft)
{
    // "priority" sorts before "signature": read before the failure.
    const Parsed bulk = parse(R"({"signature": "s", "priority": "bulk"})");
    EXPECT_EQ(bulk.message, "field 'signature' must be an array of numbers");
    EXPECT_EQ(bulk.request.priority, Priority::Bulk);
    // ... and after "network": never read.
    const Parsed early = parse(R"({"network": 7, "priority": "bulk"})");
    EXPECT_EQ(early.message, "field 'network' must be a non-empty string");
    EXPECT_EQ(early.request.priority, Priority::Interactive);
    const Parsed grammar = parse(R"({"priority": "bulk", "x": [})");
    EXPECT_EQ(grammar.message, "json: expected a number at offset 27");
    EXPECT_EQ(grammar.request.priority, Priority::Interactive);
}

TEST(Protocol, DuplicateUnknownKeyIsAGrammarError)
{
    EXPECT_EQ(parse(R"({"zz": 1, "zz": 2})").message,
              "json: duplicate key 'zz' at offset 14");
    EXPECT_EQ(parse(R"({"network": 7, "zz": 1, "z\u007a": 2})").message,
              "json: duplicate key 'zz' at offset 33");
}

TEST(Protocol, OverflowInAnUnknownFieldIsNonFinite)
{
    EXPECT_EQ(parse(R"({"exploit": 1e999})").message,
              "json: non-finite number '1e999' at offset 17");
}

TEST(Protocol, DeepNestingInAnUnknownFieldHitsTheDepthLimit)
{
    const auto nested = [](std::size_t depth) {
        return "{\"x\": " + std::string(depth, '[') + std::string(depth, ']')
            + "}";
    };
    EXPECT_EQ(parse(nested(64)).message, "unknown field 'x'");
    EXPECT_EQ(parse(nested(65)).message,
              "json: nesting deeper than the limit at offset 70");
}

// ------------------------------------------- differential DOM oracle

namespace
{

/**
 * The reference request reader: parse the whole DOM, then walk its
 * members in key order.
 */
std::string
referenceParse(const std::string &line, serve::ServeRequest &out)
{
    if (line.size() > serve::kMaxRequestLineBytes)
        return serve::oversizedLineMessage(line.size());
    json::Value doc;
    try {
        doc = json::parseJson(line);
    } catch (const GcmError &e) {
        return e.what();
    }
    if (!doc.isObject())
        return "request must be a JSON object";
    if (doc.has("id") && doc.at("id").isString())
        out.id = doc.at("id").str;
    for (auto &[key, value] : doc.object) {
        if (key == "id") {
            if (!value.isString())
                return "field 'id' must be a string";
        } else if (key == "network") {
            if (!value.isString() || value.str.empty())
                return "field 'network' must be a non-empty string";
            out.network = std::move(value.str);
        } else if (key == "graph") {
            if (!value.isString() || value.str.empty())
                return "field 'graph' must be a non-empty string";
            out.graph_text = std::move(value.str);
        } else if (key == "device") {
            if (!value.isString() || value.str.empty())
                return "field 'device' must be a non-empty string";
            out.device = std::move(value.str);
        } else if (key == "priority") {
            if (!value.isString())
                return "field 'priority' must be \"interactive\" or "
                       "\"bulk\"";
            if (value.str == "interactive") {
                out.priority = Priority::Interactive;
            } else if (value.str == "bulk") {
                out.priority = Priority::Bulk;
            } else {
                return "field 'priority' must be \"interactive\" or "
                       "\"bulk\"";
            }
        } else if (key == "signature") {
            if (!value.isArray())
                return "field 'signature' must be an array of numbers";
            for (const auto &v : value.array) {
                if (!v.isNumber())
                    return "field 'signature' must contain only "
                           "numbers";
                out.signature.push_back(v.number);
            }
            out.has_signature = true;
        } else {
            return "unknown field '" + key + "'";
        }
    }
    return "";
}

/** Seeded generator of request-shaped lines and their mutations. */
class Corpus
{
  public:
    explicit Corpus(std::uint64_t seed) : rng_(seed)
    {
        for (const char *name : {"squeezenet_1.1", "mobilenet_v2_1.0"}) {
            graphs_.push_back(dnn::graphToText(
                dnn::quantize(dnn::buildZooModel(name))));
        }
    }

    /** One line: a request shape, its members mutated, then its bytes. */
    std::string
    line()
    {
        std::vector<std::string> members = baseMembers();
        if (chance(0.5))
            mutateMembers(members);
        std::string out = "{" + space();
        for (std::size_t i = 0; i < members.size(); ++i) {
            out += members[i];
            if (i + 1 < members.size())
                out += space() + "," + space();
        }
        out += space() + "}";
        if (chance(0.2))
            mutateBytes(out);
        return out;
    }

  private:
    bool chance(double p) { return rng_.bernoulli(p); }

    std::size_t
    pick(std::size_t n)
    {
        return static_cast<std::size_t>(
            rng_.uniformInt(0, static_cast<std::int64_t>(n) - 1));
    }

    template <typename T>
    const T &
    pickFrom(const std::vector<T> &v)
    {
        return v[pick(v.size())];
    }

    /** Whitespace, mostly none or one space; JSON's four and more. */
    std::string
    space()
    {
        static const std::vector<std::string> kSpace = {
            "", "", "", " ", " ", "\t", "\n", " \r\n ", "\v", "\f"};
        return chance(0.2) ? pickFrom(kSpace) : (chance(0.5) ? "" : " ");
    }

    static std::string
    quoted(const std::string &s)
    {
        std::string out;
        json::appendJsonString(out, s);
        return out;
    }

    std::string
    member(const std::string &key, const std::string &value)
    {
        return key + space() + ":" + space() + value;
    }

    std::string
    number()
    {
        static const std::vector<std::string> kExtremes = {
            "1e999", "-1e999", "1e-400", "-1e-400", "4e-320", "-0",
            "0", "-0.0", "2.2250738585072014e-308",
            "1.7976931348623157e308", "1.7976931348623159e308",
            "4.9406564584124654e-324", "2.4703282292062328e-324",
            "123456789012345678901234567890", "1E+2", "1e-2", "03",
            "+1", ".5", "1.", "1.e1", "-", "1e", "0x10", "NaN",
            "Infinity", "-5", "1.5e308"};
        if (chance(0.05))
            return pickFrom(kExtremes);
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g",
                      rng_.uniform(0.5, 60.0) * rng_.lognormalFactor(0.08));
        return buf;
    }

    std::string
    signature()
    {
        std::string out = "[" + space();
        const std::size_t n = chance(0.9) ? 10 : pick(13);
        for (std::size_t k = 0; k < n; ++k)
            out += (k ? "," + space() : std::string()) + number();
        return out + space() + "]";
    }

    /** serve-cold, serve-hot or inline-graph shaped members. */
    std::vector<std::string>
    baseMembers()
    {
        static const std::vector<std::string> kNetworks = {
            "mobilenet_v2_1.0", "squeezenet_1.1", "mnasnet_a1",
            "mobilenet_v3_small", "nope"};
        static const std::vector<std::string> kDevices = {
            "Mi-9", "Redmi-Note-7", "Galaxy-A50", "Redmi-Note-5-Pro"};
        std::vector<std::string> m;
        if (chance(0.9))
            m.push_back(member("\"id\"", quoted("q" + std::to_string(
                                             rng_.uniformInt(0, 99999)))));
        const std::size_t shape = pick(10);
        if (shape == 0)
            m.push_back(member("\"graph\"", quoted(pickFrom(graphs_))));
        else
            m.push_back(member("\"network\"", quoted(pickFrom(kNetworks))));
        if (shape < 5)
            m.push_back(member("\"signature\"", signature()));
        else
            m.push_back(member("\"device\"", quoted(pickFrom(kDevices))));
        if (chance(0.15))
            m.push_back(member("\"priority\"",
                               chance(0.5) ? "\"bulk\"" : "\"interactive\""));
        return m;
    }

    /** A value of any type, possibly nested past the depth limit. */
    std::string
    anyValue()
    {
        static const std::vector<std::string> kValues = {
            "1", "\"\"", "\"x\"", "true", "false", "null", "[]", "{}",
            "[1, [2, {\"a\": null}]]", "{\"k\": {\"k\": [true]}}",
            "\"a\\u00e9\\n\"", "[\"two\"]", "[[1]]", "{\"a\": 1, \"a\": 2}",
            "1e999", "-1e-400", "tru", "nul", "\"\\x\"", "[1,]",
            "{\"a\" 1}", "\"bulk\"", "\"interactive\"", "\"urgent\"",
            "[1, 2, 3]", "[1e-400]"};
        if (chance(0.1)) {
            const std::size_t depth = 60 + pick(8);
            std::string open, close;
            for (std::size_t d = 0; d < depth; ++d) {
                const bool obj = chance(0.3);
                open += obj ? "{\"k\":" : "[";
                close = (obj ? "}" : "]") + close;
            }
            return open + (chance(0.5) ? "1" : "") + close;
        }
        return pickFrom(kValues);
    }

    void
    mutateMembers(std::vector<std::string> &m)
    {
        static const std::vector<std::string> kKeys = {
            "\"id\"", "\"network\"", "\"graph\"", "\"device\"",
            "\"signature\"", "\"priority\"", "\"exploit\"", "\"aaa\"",
            "\"zzz\"", "\"ID\"", "\"\\u0069d\"", "\"netw\\u006frk\"",
            "\"\"", "\"priority2\"", "\"d\\u00e9vice\""};
        const std::size_t edits = 1 + pick(3);
        for (std::size_t e = 0; e < edits; ++e) {
            switch (pick(5)) {
              case 0: // a duplicated member
                if (!m.empty())
                    m.push_back(pickFrom(m));
                break;
              case 1: // a known or unknown key with any value
                m.push_back(member(pickFrom(kKeys), anyValue()));
                break;
              case 2: // a member's value replaced
                if (!m.empty()) {
                    std::string &target = m[pick(m.size())];
                    target = target.substr(0, target.find(':') + 1)
                        + space() + anyValue();
                }
                break;
              case 3: // a member dropped
                if (!m.empty())
                    m.erase(m.begin() + static_cast<std::ptrdiff_t>(
                                            pick(m.size())));
                break;
              default:
                rng_.shuffle(m);
            }
        }
    }

    void
    mutateBytes(std::string &line)
    {
        static const std::string kBytes =
            "{}[]\",:\\ 0123456789eE+-.tfnu\t\n\x01\x7f\x80\xff";
        switch (pick(4)) {
          case 0: { // byte flips
            const std::size_t flips = 1 + pick(3);
            for (std::size_t f = 0; f < flips; ++f)
                line[pick(line.size())] = kBytes[pick(kBytes.size())];
            break;
          }
          case 1: // truncation
            line.resize(pick(line.size()));
            break;
          case 2: { // a splice: this line's prefix, a fresh line's suffix
            const std::string other = this->line();
            line = line.substr(0, pick(line.size() + 1))
                + other.substr(pick(other.size() + 1));
            break;
          }
          default: // an inserted byte
            line.insert(pick(line.size() + 1), 1,
                        kBytes[pick(kBytes.size())]);
        }
    }

    Rng rng_;
    std::vector<std::string> graphs_;
};

/** The corpus seed: fixed, or gtest's under --gtest_shuffle. */
std::uint64_t
corpusSeed()
{
    // random_seed() is time-based even without --gtest_shuffle, so it
    // is read only when shuffling asked for a fresh (printed) seed.
    if (::testing::GTEST_FLAG(shuffle))
        return static_cast<std::uint64_t>(
            ::testing::UnitTest::GetInstance()->random_seed());
    return 20260421;
}

} // namespace

TEST(Protocol, ReaderMatchesDomOracle)
{
    const std::uint64_t seed = corpusSeed();
    SCOPED_TRACE("corpus seed " + std::to_string(seed));
    Corpus corpus(seed);
    std::vector<std::string> lines;
    std::ifstream golden(GCM_TEST_GOLDEN_DIR "/serve_mixed.jsonl");
    for (std::string l; std::getline(golden, l);)
        lines.push_back(l);
    ASSERT_EQ(lines.size(), 20u);
    while (lines.size() < 24000)
        lines.push_back(corpus.line());

    std::size_t ok = 0, grammar = 0, schema = 0;
    for (const std::string &line : lines) {
        serve::ServeRequest want, got;
        const std::string want_message = referenceParse(line, want);
        const std::string got_message = serve::tryParseRequest(line, got);
        ASSERT_EQ(got_message, want_message) << line;
        ASSERT_EQ(got.id, want.id) << line;
        ASSERT_EQ(got.priority, want.priority) << line;
        if (!want_message.empty()) {
            ++(want_message.rfind("json: ", 0) == 0 ? grammar : schema);
            continue;
        }
        ++ok;
        ASSERT_EQ(got.network, want.network) << line;
        ASSERT_EQ(got.graph_text, want.graph_text) << line;
        ASSERT_EQ(got.device, want.device) << line;
        ASSERT_EQ(got.has_signature, want.has_signature) << line;
        ASSERT_EQ(got.signature.size(), want.signature.size()) << line;
        if (!got.signature.empty()) {
            ASSERT_EQ(std::memcmp(got.signature.data(),
                                  want.signature.data(),
                                  got.signature.size() * sizeof(double)),
                      0)
                << line;
        }
    }
    // The corpus reaches every outcome in bulk.
    EXPECT_GT(ok, 5000u);
    EXPECT_GT(grammar, 5000u);
    EXPECT_GT(schema, 1000u);
}
