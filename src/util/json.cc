#include "util/json.hh"

#include <cstdlib>
#include <utility>

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

/** True for the bytes in `set`, and for those below 0x20 if `controls`. */
constexpr std::array<bool, 256>
byteTable(std::string_view set, bool controls = false)
{
    std::array<bool, 256> table{};
    for (std::size_t c = 0; c < 0x20; ++c)
        table[c] = controls;
    for (const char c : set)
        table[static_cast<unsigned char>(c)] = true;
    return table;
}

constexpr auto kSpace = byteTable(" \t\n\v\f\r"); // C locale isspace
/** Bytes that end a run of plain string content: '"', '\\', < 0x20. */
constexpr auto kStringStop = byteTable("\"\\", true);
constexpr auto kNumberByte = byteTable("0123456789-+.eE");

} // namespace

void
Reader::fail(std::string_view what) const
{
    fatal("json: ", what, " at offset ", pos_);
}

char
Reader::peekByte()
{
    while (pos_ < text_.size()
           && kSpace[static_cast<unsigned char>(text_[pos_])])
        ++pos_;
    if (pos_ >= text_.size())
        fail("unexpected end of input");
    return text_[pos_];
}

void
Reader::expect(char c)
{
    if (peekByte() != c)
        fail(std::string("expected '") + c + "'");
    ++pos_;
}

Value::Kind
Reader::peek()
{
    if (depth_ > kMaxJsonDepth)
        fail("nesting deeper than the limit");
    switch (peekByte()) {
      case '{': return Value::Kind::Object;
      case '[': return Value::Kind::Array;
      case '"': return Value::Kind::String;
      case 't': case 'f': return Value::Kind::Bool;
      case 'n': return Value::Kind::Null;
      default: return Value::Kind::Number;
    }
}

void
Reader::open(char bracket)
{
    peek();
    expect(bracket);
    key_begin_[depth_++] = keys_.size();
    first_ = true;
}

bool
Reader::more(char close)
{
    const char c = peekByte();
    if (std::exchange(first_, false) && c != close)
        return true;
    ++pos_;
    if (c == close) {
        keys_.resize(key_begin_[--depth_]);
        index_.erase(depth_);
        return false;
    }
    if (c != ',')
        fail(close == '}' ? "expected ',' or '}' in object"
                          : "expected ',' or ']' in array");
    return true;
}

bool
Reader::nextKey(std::string &key)
{
    if (!more('}'))
        return false;
    if (peekByte() != '"')
        fail("expected a string key");
    ++pos_;
    key.clear();
    scanString(key);
    // Duplicates: a scan of the first kLinearKeys, a sorted set after.
    const auto first =
        keys_.begin() + static_cast<std::ptrdiff_t>(key_begin_[depth_ - 1]);
    const bool full = keys_.end() - first == kLinearKeys;
    if (std::find(first, keys_.end(), key) != keys_.end()
        || (full && !index_[depth_ - 1].insert(key).second))
        fail("duplicate key '" + key + "'");
    if (!full)
        keys_.push_back(key);
    expect(':');
    return true;
}

void
Reader::readString(std::string &out)
{
    peek();
    expect('"');
    out.clear();
    scanString(out);
}

void
Reader::scanString(std::string &out)
{
    for (;;) {
        // Take the run up to the next quote, backslash or raw control
        // byte (which JSON forbids) in one go (an explicit scan:
        // find_first_of measured slower).
        std::size_t stop = pos_;
        while (stop < text_.size()
               && !kStringStop[static_cast<unsigned char>(text_[stop])])
            ++stop;
        out.append(text_.substr(pos_, stop - pos_));
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
            unsigned code = 0;
            const char *hex = text_.data() + pos_;
            if (std::from_chars(hex, hex + 4, code, 16).ptr != hex + 4)
                fail("bad \\u escape digit");
            pos_ += 4;
            if (code > 0xff)
                fail("\\u escape beyond latin-1 unsupported");
            c = static_cast<char>(code);
            break;
          }
          default: fail("unknown escape");
        }
        out.push_back(c);
    }
    if (pos_ >= text_.size())
        fail("unterminated string");
    ++pos_; // closing quote
}

/**
 * Advance over the RFC 8259 number production
 * -? (0 | [1-9][0-9]*) (\.[0-9]+)? ([eE][+-]?[0-9]+)?
 * Returns false where a required part is missing.
 */
bool
Reader::scanNumber()
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
    pos_ += at('-');
    if (at('0'))
        ++pos_;
    else if (!digits())
        return false;
    if (at('.') && (++pos_, !digits()))
        return false;
    if (!at('e') && !at('E'))
        return true;
    ++pos_;
    pos_ += at('+') || at('-');
    return digits();
}

double
Reader::readNumber()
{
    peek();
    const std::size_t start = pos_;
    const auto numberByte = [&] {
        return pos_ < text_.size()
            && kNumberByte[static_cast<unsigned char>(text_[pos_])];
    };
    if (!scanNumber() || numberByte()) {
        // Not the production: report the whole run of number bytes.
        while (numberByte())
            ++pos_;
        if (start == pos_)
            fail("expected a number");
        fail("malformed number '"
             + std::string(text_.substr(start, pos_ - start)) + "'");
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    // from_chars rounds as strtod does, but leaves `v` untouched out of
    // double range; strtod then gives +-HUGE_VAL on overflow (refused
    // below) and 0 (sign kept) or a subnormal on underflow, the
    // nearest double, which is accepted.
    double v = 0.0;
    if (std::from_chars(token.data(), token.data() + token.size(), v).ec
        == std::errc::result_out_of_range)
        v = std::strtod(std::string(token).c_str(), nullptr);
    if (!std::isfinite(v))
        fail("non-finite number '" + std::string(token) + "'");
    return v;
}

void
Reader::literal(std::string_view word)
{
    if (text_.substr(pos_, word.size()) != word)
        fail("unknown keyword");
    pos_ += word.size();
}

bool
Reader::readBool()
{
    peek();
    const bool value = text_[pos_] == 't';
    literal(value ? "true" : "false");
    return value;
}

void
Reader::finish()
{
    while (pos_ < text_.size()
           && kSpace[static_cast<unsigned char>(text_[pos_])])
        ++pos_;
    if (pos_ != text_.size())
        fail("trailing content");
}

namespace
{

Value
buildValue(Reader &r)
{
    Value v;
    v.kind = r.peek();
    switch (v.kind) {
      case Value::Kind::Object:
        r.beginObject();
        for (std::string key; r.nextKey(key);)
            v.object[key] = buildValue(r);
        break;
      case Value::Kind::Array:
        r.beginArray();
        while (r.nextElement())
            v.array.push_back(buildValue(r));
        break;
      case Value::Kind::String: r.readString(v.str); break;
      case Value::Kind::Number: v.number = r.readNumber(); break;
      case Value::Kind::Bool: v.boolean = r.readBool(); break;
      case Value::Kind::Null: r.readNull(); break;
    }
    return v;
}

} // namespace

void
Reader::skipValue()
{
    (void)buildValue(*this);
}

Value
parseJson(const std::string &text)
{
    Reader r(text);
    Value v = buildValue(r);
    r.finish();
    return v;
}

} // namespace gcm::json
