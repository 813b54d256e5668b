#include "serve/protocol.hh"

#include <istream>
#include <utility>

#include "util/error.hh"
#include "util/json.hh"

namespace gcm::serve
{

namespace
{

/** A string value into `out`; false (skipping it) for any other. */
bool
readString(json::Reader &r, std::string &out)
{
    if (r.peek() == json::Value::Kind::String) {
        r.readString(out);
        return true;
    }
    r.skipValue();
    return false;
}

/** Member `key`'s value into `req`: "" or its bad_request message. */
std::string
readField(json::Reader &r, const std::string &key, ServeRequest &req)
{
    if (key == "id")
        return readString(r, req.id) ? "" : "field 'id' must be a string";
    for (const auto &[name, field] :
         {std::pair{"network", &ServeRequest::network},
          std::pair{"graph", &ServeRequest::graph_text},
          std::pair{"device", &ServeRequest::device}}) {
        if (key == name) {
            if (readString(r, req.*field) && !(req.*field).empty())
                return "";
            return "field '" + key + "' must be a non-empty string";
        }
    }
    if (key == "priority") {
        std::string name;
        if (readString(r, name) && (name == "bulk" || name == "interactive")) {
            req.priority =
                name == "bulk" ? Priority::Bulk : Priority::Interactive;
            return "";
        }
        return "field 'priority' must be \"interactive\" or \"bulk\"";
    }
    if (key != "signature") {
        r.skipValue();
        return "unknown field '" + key + "'";
    }
    if (r.peek() != json::Value::Kind::Array) {
        r.skipValue();
        return "field 'signature' must be an array of numbers";
    }
    bool numbers = true;
    req.has_signature = true;
    req.signature.reserve(16); // the paper's signatures hold 10
    r.beginArray();
    while (r.nextElement()) {
        numbers = numbers && r.peek() == json::Value::Kind::Number;
        if (numbers)
            req.signature.push_back(r.readNumber());
        else
            r.skipValue();
    }
    return numbers ? "" : "field 'signature' must contain only numbers";
}

} // namespace

std::string
tryParseRequest(const std::string &line, ServeRequest &out)
{
    if (line.size() > kMaxRequestLineBytes)
        return oversizedLineMessage(line.size());
    // Every member is read before a schema error is answered, so a
    // grammar error anywhere wins; among schema errors, the first key
    // in byte order wins (see the header).
    ServeRequest req;
    std::string error, error_key;
    try {
        json::Reader r(line);
        if (r.peek() != json::Value::Kind::Object) {
            r.skipValue();
            r.finish();
            return "request must be a JSON object";
        }
        r.beginObject();
        for (std::string key; r.nextKey(key);) {
            std::string problem = readField(r, key, req);
            if (!problem.empty() && (error.empty() || key < error_key)) {
                error = std::move(problem);
                error_key = key;
            }
        }
        r.finish();
    } catch (const GcmError &e) {
        return e.what();
    }
    if (error.empty()) {
        out = std::move(req);
        return "";
    }
    out.id = std::move(req.id);
    if (error_key > "priority")
        out.priority = req.priority;
    return error;
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
