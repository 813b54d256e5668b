// gcm-lint fixture: unordered-container iteration feeding a
// json::Writer. No stream, CSV or JSON header is included here (the
// writer arrives through another header), so only the json::Writer
// use marks the file as output-writing. Never compiled; lexed by
// tests/test_lint.cc which asserts the line numbers.
#include <string>
#include <unordered_map>

#include "fleet/loop.hh"

std::string
renderCounts(const std::unordered_map<std::string, int> &counts)
{
    std::string out;
    gcm::json::Writer w(out);
    w.beginObject();
    for (const auto &[name, n] : counts) // line 17: order reaches output
        w.field(name, n);
    w.endObject();
    return out;
}
