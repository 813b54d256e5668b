/**
 * @file
 * Minimal JSON value model and hardened recursive-descent parser.
 *
 * Grown out of the test-only parser behind the gcm-perf-report
 * checks, promoted into the library for the gcm-serve/v1 protocol
 * (src/serve), whose request lines are untrusted input. Hardening on
 * top of the test parser:
 *
 *  - parse errors raise GcmError (never std:: exceptions) with a
 *    byte-offset message, so callers can turn them into structured
 *    protocol error responses;
 *  - nesting depth is capped (kMaxJsonDepth) so a hostile
 *    "[[[[..." line cannot blow the stack;
 *  - numbers must be finite after conversion: "1e999" and friends
 *    are rejected instead of materializing as +inf (JSON itself has
 *    no NaN/Infinity literals, so this closes the only non-finite
 *    entry point);
 *  - duplicate object keys are rejected (the last-one-wins behaviour
 *    of lenient parsers silently drops data).
 */

#ifndef GCM_UTIL_JSON_HH
#define GCM_UTIL_JSON_HH

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace gcm::json
{

/** Maximum container nesting depth accepted by parseJson(). */
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
 * Parse one complete JSON document. Trailing non-whitespace content
 * is an error. Throws GcmError on any malformed input.
 */
Value parseJson(const std::string &text);

/** Append `s` to `os` as a quoted JSON string with escapes. */
void appendJsonString(std::string &out, const std::string &s);

/**
 * `v` as a JSON number, printed "%.17g" so it parses back to the same
 * double. The caller keeps `v` finite (JSON has no NaN or Infinity).
 */
std::string formatNumber(double v);

} // namespace gcm::json

#endif // GCM_UTIL_JSON_HH
