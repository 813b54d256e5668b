#include "serve/protocol.hh"

#include <istream>
#include <utility>

#include "util/error.hh"
#include "util/json.hh"

namespace gcm::serve
{

std::string
tryParseRequest(const std::string &line, ServeRequest &out)
{
    if (line.size() > kMaxRequestLineBytes)
        return oversizedLineMessage(line.size());
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

    // The document is ours: strings move into the request, so an
    // inline graph's text is copied once, by the JSON parser.
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
            out.signature.reserve(value.array.size());
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

std::string
renderRequest(const ServeRequest &request)
{
    std::string out;
    json::Writer w(out);
    w.beginObject();
    if (!request.id.empty())
        w.field("id", request.id);
    if (!request.network.empty())
        w.field("network", request.network);
    if (!request.graph_text.empty())
        w.field("graph", request.graph_text);
    if (!request.device.empty())
        w.field("device", request.device);
    if (request.has_signature)
        w.key("signature").array(request.signature);
    if (request.priority == Priority::Bulk)
        w.field("priority", priorityName(request.priority));
    w.endObject();
    return out;
}

std::string
renderResponse(const ServeResponse &response)
{
    std::string out;
    json::Writer w(out);
    w.beginObject().field("id", response.id).field("ok", response.ok);
    if (response.ok) {
        w.field("latency_ms", response.latency_ms)
            .field("model_version", response.model_version)
            .endObject();
        return out;
    }
    const bool shed = response.error_code == ServeErrorCode::Overloaded;
    w.key("error")
        .beginObject()
        .field("code", serveErrorCodeName(response.error_code))
        .field("message", response.error_message);
    if (shed) {
        // Backpressure context: what the client is waiting behind
        // and a nominal back-off before retrying.
        w.field("queue_depth", response.queue_depth)
            .field("retry_after_ms", response.retry_after_ms);
    }
    w.endObject();
    // Version gate: only shed responses carry `degraded`, so clients
    // predating the ladder keep seeing unchanged model answers.
    if (shed)
        w.key("degraded").beginObject().field("tier", "shed").endObject();
    w.endObject();
    return out;
}

bool
readRequestLine(std::istream &in, std::string &line, std::size_t &bytes)
{
    line.clear();
    bytes = 0;
    std::streambuf *buf = in.rdbuf();
    if (!in || buf == nullptr)
        return false;
    bool extracted = false;
    for (;;) {
        const int c = buf->sbumpc();
        if (c == std::char_traits<char>::eof()) {
            in.setstate(extracted ? std::ios::eofbit
                                  : std::ios::eofbit | std::ios::failbit);
            return extracted;
        }
        extracted = true;
        if (c == '\n')
            return true;
        if (line.size() <= kMaxRequestLineBytes)
            line.push_back(static_cast<char>(c));
        ++bytes;
    }
}

std::string
oversizedLineMessage(std::size_t bytes)
{
    return "request line of " + std::to_string(bytes)
           + " bytes exceeds the "
           + std::to_string(kMaxRequestLineBytes) + "-byte limit";
}

} // namespace gcm::serve
