#include "util/json.hh"

#include <array>
#include <cctype>
#include <cmath>
#include <cstdlib>

#include "util/error.hh"

namespace gcm::json
{

const Value &
Value::at(const std::string &key) const
{
    if (!has(key))
        fatal("json: missing key '", key, "'");
    return object.at(key);
}

namespace
{

/** Bytes that end a run of plain string content: '"', '\\', < 0x20. */
constexpr auto kStringStop = [] {
    std::array<bool, 256> stop{};
    for (std::size_t c = 0; c < 0x20; ++c)
        stop[c] = true;
    stop['"'] = stop['\\'] = true;
    return stop;
}();

class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    Value
    parse()
    {
        Value v = parseValue(0);
        skipWs();
        if (pos_ != text_.size())
            fail("trailing content");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what) const
    {
        fatal("json: ", what, " at offset ", pos_);
    }

    void
    skipWs()
    {
        while (pos_ < text_.size()
               && std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    char
    peek()
    {
        skipWs();
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool
    consumeLiteral(const char *lit)
    {
        const std::size_t n = std::char_traits<char>::length(lit);
        if (text_.compare(pos_, n, lit) != 0)
            return false;
        pos_ += n;
        return true;
    }

    Value
    parseValue(std::size_t depth)
    {
        if (depth > kMaxJsonDepth)
            fail("nesting deeper than the limit");
        const char c = peek();
        if (c == '{')
            return parseObject(depth);
        if (c == '[')
            return parseArray(depth);
        if (c == '"')
            return parseString();
        if (c == 't' || c == 'f' || c == 'n')
            return parseKeyword();
        return parseNumber();
    }

    Value
    parseObject(std::size_t depth)
    {
        expect('{');
        Value v;
        v.kind = Value::Kind::Object;
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        for (;;) {
            if (peek() != '"')
                fail("expected a string key");
            const Value key = parseString();
            if (v.object.count(key.str) > 0)
                fail("duplicate key '" + key.str + "'");
            expect(':');
            v.object[key.str] = parseValue(depth + 1);
            const char c = peek();
            ++pos_;
            if (c == '}')
                return v;
            if (c != ',')
                fail("expected ',' or '}' in object");
        }
    }

    Value
    parseArray(std::size_t depth)
    {
        expect('[');
        Value v;
        v.kind = Value::Kind::Array;
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        for (;;) {
            v.array.push_back(parseValue(depth + 1));
            const char c = peek();
            ++pos_;
            if (c == ']')
                return v;
            if (c != ',')
                fail("expected ',' or ']' in array");
        }
    }

    Value
    parseString()
    {
        expect('"');
        Value v;
        v.kind = Value::Kind::String;
        for (;;) {
            // Append the run up to the next quote, backslash or raw
            // control byte (which JSON forbids) in one go (an explicit
            // scan: find_first_of measured slower).
            std::size_t stop = pos_;
            while (stop < text_.size()
                   && !kStringStop[static_cast<unsigned char>(text_[stop])])
                ++stop;
            v.str.append(text_, pos_, stop - pos_);
            pos_ = stop;
            if (pos_ >= text_.size() || text_[pos_] == '"')
                break;
            if (text_[pos_] != '\\')
                fail("raw control byte in string");
            ++pos_; // the backslash
            if (pos_ >= text_.size())
                fail("unterminated escape");
            const char e = text_[pos_++];
            char c = 0;
            switch (e) {
              case '"': c = '"'; break;
              case '\\': c = '\\'; break;
              case '/': c = '/'; break;
              case 'n': c = '\n'; break;
              case 't': c = '\t'; break;
              case 'r': c = '\r'; break;
              case 'b': c = '\b'; break;
              case 'f': c = '\f'; break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    fail("truncated \\u escape");
                int code = 0;
                for (int k = 0; k < 4; ++k) {
                    const char h = text_[pos_ + k];
                    int digit;
                    if (h >= '0' && h <= '9')
                        digit = h - '0';
                    else if (h >= 'a' && h <= 'f')
                        digit = h - 'a' + 10;
                    else if (h >= 'A' && h <= 'F')
                        digit = h - 'A' + 10;
                    else
                        fail("bad \\u escape digit");
                    code = code * 16 + digit;
                }
                pos_ += 4;
                if (code > 0xff)
                    fail("\\u escape beyond latin-1 unsupported");
                c = static_cast<char>(code);
                break;
              }
              default: fail("unknown escape");
            }
            v.str.push_back(c);
        }
        if (pos_ >= text_.size())
            fail("unterminated string");
        ++pos_; // closing quote
        return v;
    }

    Value
    parseKeyword()
    {
        skipWs();
        Value v;
        if (consumeLiteral("true")) {
            v.kind = Value::Kind::Bool;
            v.boolean = true;
        } else if (consumeLiteral("false")) {
            v.kind = Value::Kind::Bool;
        } else if (consumeLiteral("null")) {
            v.kind = Value::Kind::Null;
        } else {
            fail("unknown keyword");
        }
        return v;
    }

    /** A byte that may occur in a number token. */
    static bool
    isNumberByte(char c)
    {
        return (c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.'
            || c == 'e' || c == 'E';
    }

    /**
     * Advance over the RFC 8259 number production
     * -? (0 | [1-9][0-9]*) (\.[0-9]+)? ([eE][+-]?[0-9]+)?
     * Returns false where a required part is missing.
     */
    bool
    scanNumber()
    {
        const auto at = [&](char c) {
            return pos_ < text_.size() && text_[pos_] == c;
        };
        const auto digits = [&] {
            const std::size_t from = pos_;
            while (pos_ < text_.size() && text_[pos_] >= '0'
                   && text_[pos_] <= '9')
                ++pos_;
            return pos_ > from;
        };
        if (at('-'))
            ++pos_;
        if (at('0'))
            ++pos_;
        else if (!digits())
            return false;
        if (at('.')) {
            ++pos_;
            if (!digits())
                return false;
        }
        if (at('e') || at('E')) {
            ++pos_;
            if (at('+') || at('-'))
                ++pos_;
            if (!digits())
                return false;
        }
        return true;
    }

    Value
    parseNumber()
    {
        skipWs();
        const std::size_t start = pos_;
        if (!scanNumber()
            || (pos_ < text_.size() && isNumberByte(text_[pos_]))) {
            // Not the production: report the whole run of number bytes.
            while (pos_ < text_.size() && isNumberByte(text_[pos_]))
                ++pos_;
            if (start == pos_)
                fail("expected a number");
            fail("malformed number '" + text_.substr(start, pos_ - start)
                 + "'");
        }
        Value v;
        v.kind = Value::Kind::Number;
        const std::string token = text_.substr(start, pos_ - start);
        // strtod, unlike stod, returns a value on ERANGE: +-HUGE_VAL on
        // overflow (refused below) and 0 or a subnormal on underflow,
        // which is the nearest double and accepted.
        char *end = nullptr;
        v.number = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size())
            fail("malformed number '" + token + "'");
        if (!std::isfinite(v.number))
            fail("non-finite number '" + token + "'");
        return v;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

} // namespace

Value
parseJson(const std::string &text)
{
    return Parser(text).parse();
}

} // namespace gcm::json
