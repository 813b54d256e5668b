/**
 * @file
 * Minimal JSON value model, the one JSON parser (json::Reader) and
 * the one JSON writer (json::Writer) every report, response and
 * request line goes through.
 *
 * One parser: json::Reader is a pull tokenizer, and nothing else scans
 * the JSON grammar. parseJson() builds a Value tree from it, and the
 * gcm-serve/v1 request reader (src/serve/protocol) reads request
 * fields straight off it with no tree. Request lines are untrusted
 * input, so the reader is hardened:
 *
 *  - parse errors raise GcmError (never std:: exceptions) with a
 *    byte-offset message, "json: <what> at offset N", so callers can
 *    turn them into structured protocol error responses;
 *  - nesting depth is capped (kMaxJsonDepth) so a hostile
 *    "[[[[..." line cannot blow the stack;
 *  - numbers follow the RFC 8259 production and must be finite after
 *    conversion: "1e999" and friends are rejected instead of
 *    materializing as +inf (JSON itself has no NaN/Infinity literals,
 *    so this closes the only non-finite entry point); an underflowing
 *    number reads strtod's value, 0 (sign kept) or a subnormal;
 *  - raw control bytes (0x00-0x1F) inside strings are rejected, as
 *    JSON requires: they must arrive escaped;
 *  - duplicate object keys are rejected (the last-one-wins behaviour
 *    of lenient parsers silently drops data), in O(log n) a key past
 *    an object's first few, so a line of many keys stays cheap.
 *
 * The writer half is header-only, so gcm_obs (which links no other
 * gcm library) writes its report with it too.
 */

#ifndef GCM_UTIL_JSON_HH
#define GCM_UTIL_JSON_HH

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace gcm::json
{

/** Maximum container nesting depth accepted by json::Reader. */
inline constexpr std::size_t kMaxJsonDepth = 64;

/** One parsed JSON value (tagged union over the JSON grammar). */
struct Value
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<Value> array;
    std::map<std::string, Value> object;

    bool isNull() const { return kind == Kind::Null; }
    bool isBool() const { return kind == Kind::Bool; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isArray() const { return kind == Kind::Array; }
    bool isObject() const { return kind == Kind::Object; }

    bool has(const std::string &key) const
    {
        return isObject() && object.count(key) > 0;
    }

    /** Object member access. Throws GcmError when absent. */
    const Value &at(const std::string &key) const;
};

/**
 * Pull reader over one JSON document, the mirror of json::Writer.
 * peek() names the next value's kind by its first byte; then one of
 * beginObject, beginArray, readString, readNumber, readBool, readNull
 * or skipValue consumes the value. In an object, nextKey() reads a key
 * and its ':' (false at the '}'), and the caller consumes the value; in
 * an array, nextElement() is true while an element follows. finish()
 * requires only whitespace after the document. Malformed input throws
 * GcmError, with the same message wherever it is read from.
 */
class Reader
{
  public:
    /** Read `text`, which must outlive the reader. */
    explicit Reader(std::string_view text) : text_(text) {}

    /** The next value's kind; Number for any byte no other kind starts. */
    Value::Kind peek();
    void beginObject() { open('{'); }
    bool nextKey(std::string &key);
    void beginArray() { open('['); }
    bool nextElement() { return more(']'); }
    /** Decode the next value, a string, into `out` (replacing it). */
    void readString(std::string &out);
    /** strtod's value of the next number; never inf or NaN. */
    double readNumber();
    bool readBool();
    void readNull() { peek(); literal("null"); }
    /**
     * Consume the next value, checked as strictly as a read (it is
     * built as a Value and dropped: only bad requests skip values).
     */
    void skipValue();
    void finish();

  private:
    /** An object's first keys are checked for duplicates by a scan. */
    static constexpr std::size_t kLinearKeys = 16;

    [[noreturn]] void fail(std::string_view what) const;
    /** Skip whitespace; the byte there, failing at the end of input. */
    char peekByte();
    void expect(char c);
    void open(char bracket);
    /** Past the ',' before another member, or false past `close`. */
    bool more(char close);
    /** Append the string after its opening quote to `out`. */
    void scanString(std::string &out);
    bool scanNumber();
    /** Consume the keyword `word`. */
    void literal(std::string_view word);

    std::string_view text_;
    std::size_t pos_ = 0;
    std::size_t depth_ = 0; ///< open containers
    bool first_ = false;    ///< the innermost has no member yet
    /** The first kLinearKeys keys of each open object, innermost last. */
    std::vector<std::string> keys_;
    /** Where each open container's keys start in keys_. */
    std::array<std::size_t, kMaxJsonDepth + 1> key_begin_{};
    /** An open object's keys past those, by depth, sorted. */
    std::map<std::size_t, std::set<std::string>> index_;
};

/**
 * Parse one complete JSON document into a Value tree (a thin builder
 * over json::Reader). Trailing non-whitespace content is an error.
 * Throws GcmError on any malformed input.
 */
Value parseJson(const std::string &text);

/** Append `s` to `out` as a quoted JSON string with escapes. */
inline void
appendJsonString(std::string &out, std::string_view s)
{
    out.push_back('"');
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) >= 0x20) {
                out.push_back(c);
            } else {
                out += "\\u00";
                out.push_back("0123456789abcdef"[c >> 4]);
                out.push_back("0123456789abcdef"[c & 0xf]);
            }
        }
    }
    out.push_back('"');
}

/**
 * How a json::Writer container is laid out: Inline puts it all on one
 * line; Block puts each member on its own line, indented two spaces
 * per enclosing Block container, and the closing bracket on a line of
 * its own. An empty container is `{}` or `[]` either way.
 */
enum class Layout { Inline, Block };

/**
 * Appends one JSON document to `out` in place, with ", " between
 * members and ": " after a key, and no trailing newline.
 */
class Writer
{
  public:
    explicit Writer(std::string &out) : out_(out) {}

    Writer &beginObject(Layout l = Layout::Inline) { return open('{', l); }
    Writer &beginArray(Layout l = Layout::Inline) { return open('[', l); }
    Writer &endObject() { return close('}'); }
    Writer &endArray() { return close(']'); }

    /** An object member's key; the next call writes its value. */
    Writer &
    key(std::string_view k)
    {
        value(k);
        out_ += ": ";
        after_key_ = true;
        return *this;
    }

    Writer &
    value(std::string_view s)
    {
        appendJsonString(separate(), s);
        return *this;
    }

    Writer &value(const char *s) { return value(std::string_view(s)); }
    Writer &value(bool b) { return put(b ? "true" : "false"); }

    /** "%.17g" via to_chars (same bytes), or null if `v` is not finite. */
    Writer &
    value(double v)
    {
        if (!std::isfinite(v))
            return put("null");
        char buf[32];
        const auto end = std::to_chars(buf, buf + sizeof(buf), v,
                                       std::chars_format::general, 17);
        return put({buf, end.ptr});
    }

    Writer &null() { return put("null"); }

    template <std::integral T>
    Writer &
    value(T v)
    {
        char buf[24];
        return put({buf, std::to_chars(buf, buf + sizeof(buf), v).ptr});
    }

    template <typename T>
    Writer &
    field(std::string_view k, const T &v)
    {
        return key(k).value(v);
    }

    /** An inline array holding value(v) for each v in `values`. */
    template <typename Range>
    Writer &
    array(const Range &values)
    {
        beginArray();
        for (const auto &v : values)
            value(v);
        return endArray();
    }

  private:
    Writer &
    put(std::string_view text)
    {
        separate() += text;
        return *this;
    }

    /** Start a member: a comma, then a space or an indented newline. */
    std::string &
    separate()
    {
        if (!after_key_ && !blocks_.empty()) {
            if (!empty_)
                out_ += ',';
            if (blocks_.back() != 0)
                newline();
            else if (!empty_)
                out_ += ' ';
        }
        after_key_ = empty_ = false;
        return out_;
    }

    Writer &
    open(char bracket, Layout layout)
    {
        put({&bracket, 1});
        blocks_ += layout == Layout::Block ? '\1' : '\0';
        empty_ = true;
        return *this;
    }

    Writer &
    close(char bracket)
    {
        const bool block = blocks_.back() != 0;
        blocks_.pop_back();
        if (block && !empty_)
            newline();
        out_ += bracket;
        empty_ = false;
        return *this;
    }

    void
    newline()
    {
        const auto depth = std::count(blocks_.begin(), blocks_.end(), '\1');
        out_ += '\n';
        out_.append(2 * static_cast<std::size_t>(depth), ' ');
    }

    std::string &out_;
    /**
     * Per open container, innermost last: '\1' for Block layout, else
     * '\0' (a string, so nesting up to 15 deep allocates nothing).
     */
    std::string blocks_;
    /** The innermost open container has no member yet. */
    bool empty_ = false;
    bool after_key_ = false;
};

/** `v` as a JSON number, exactly as Writer::value(double) writes it. */
inline std::string
formatNumber(double v)
{
    std::string out;
    Writer(out).value(v);
    return out;
}

} // namespace gcm::json

#endif // GCM_UTIL_JSON_HH
