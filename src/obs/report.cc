#include <fstream>

#include "obs/registry.hh"
#include "util/error.hh"
#include "util/json.hh"

namespace gcm::obs
{

namespace
{

/** One span as an inline object whose children form a block array. */
void
writeSpan(json::Writer &w, const detail::SpanNode &node)
{
    w.beginObject()
        .field("name", node.name)
        .field("count", node.count)
        .field("total_ms", node.total_ms)
        .key("children")
        .beginArray(json::Layout::Block);
    for (const auto &[name, child] : node.children)
        writeSpan(w, *child);
    w.endArray().endObject();
}

} // namespace

std::string
reportJson()
{
    detail::Registry &reg = detail::registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    std::string out;
    json::Writer w(out);
    w.beginObject(json::Layout::Block).field("schema", "gcm-perf-report/v1");

    w.key("counters").beginObject(json::Layout::Block);
    for (const auto &[name, value] : reg.counters)
        w.field(name, value);
    w.endObject();

    w.key("gauges").beginObject(json::Layout::Block);
    for (const auto &[name, value] : reg.gauges)
        w.field(name, value);
    w.endObject();

    w.key("histograms").beginObject(json::Layout::Block);
    for (const auto &[name, h] : reg.histograms) {
        w.key(name).beginObject();
        w.key("bounds_ms").array(kHistogramBounds);
        w.key("counts").array(h.counts);
        w.field("count", h.count).field("sum_ms", h.sum_ms).endObject();
    }
    w.endObject();

    w.key("spans").beginArray(json::Layout::Block);
    for (const auto &[name, child] : reg.root.children)
        writeSpan(w, *child);
    w.endArray().endObject();
    out += '\n';
    return out;
}

void
writeReport(const std::string &path)
{
    std::ofstream os(path);
    if (!os)
        fatal("obs::writeReport: cannot open ", path, " for writing");
    os << reportJson();
    if (!os)
        fatal("obs::writeReport: write to ", path, " failed");
}

} // namespace gcm::obs
