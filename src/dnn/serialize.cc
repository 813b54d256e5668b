#include "dnn/serialize.hh"

#include <array>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <istream>
#include <iterator>
#include <ostream>
#include <sstream>

#include "util/error.hh"
#include "verify/verifier.hh"

namespace gcm::dnn
{

void
serializeGraph(const Graph &graph, std::ostream &os)
{
    graph.validate();
    if (graph.name().find_first_of(" \t\n") != std::string::npos)
        fatal("serializeGraph: graph name contains whitespace: ",
              graph.name());
    os << "gcm-graph v1\n";
    os << "name " << graph.name() << "\n";
    os << "precision "
       << (graph.precision() == Precision::Int8 ? "int8" : "fp32")
       << "\n";
    os << "nodes " << graph.numNodes() << "\n";
    for (const auto &n : graph.nodes()) {
        os << "node " << n.id << ' ' << opKindName(n.kind)
           << " k=" << n.params.kernel << " s=" << n.params.stride
           << " p=" << n.params.padding << " oc=" << n.params.out_channels
           << " g=" << n.params.groups << " act="
           << static_cast<int>(n.params.fused_activation) << " in=";
        if (n.inputs.empty()) {
            os << '-';
        } else {
            for (std::size_t i = 0; i < n.inputs.size(); ++i) {
                if (i)
                    os << ',';
                os << n.inputs[i];
            }
        }
        os << " shape=" << n.shape.n << ',' << n.shape.h << ','
           << n.shape.w << ',' << n.shape.c << "\n";
    }
}

std::string
graphToText(const Graph &graph)
{
    std::ostringstream oss;
    serializeGraph(graph, oss);
    return oss.str();
}

namespace
{

OpKind
kindFromName(std::string_view name)
{
    // Names as string_views, so a probe is a length check and a
    // memcmp rather than a strlen per kind.
    static const auto names = [] {
        std::array<std::string_view, kNumOpKinds> out;
        for (std::size_t k = 0; k < kNumOpKinds; ++k)
            out[k] = opKindName(static_cast<OpKind>(k));
        return out;
    }();
    for (std::size_t k = 0; k < kNumOpKinds; ++k) {
        if (name == names[k])
            return static_cast<OpKind>(k);
    }
    fatal("deserializeGraph: unknown operator '", name, "'");
}

/** The C locale's isspace set, as a table: no locale lookup. */
constexpr auto kSpace = [] {
    std::array<bool, 256> out{};
    for (const unsigned char c : {' ', '\t', '\n', '\v', '\f', '\r'})
        out[c] = true;
    return out;
}();

bool
isSpace(char c)
{
    return kSpace[static_cast<unsigned char>(c)];
}

/**
 * A cursor over untrusted text. Tokens are maximal runs of non-space
 * characters; integers are decimal with an optional '-', read by
 * std::from_chars where they start (after any spaces), so nothing is
 * copied or allocated on the success path.
 */
class Cursor
{
  public:
    explicit Cursor(std::string_view text)
        : p_(text.data()), end_(text.data() + text.size())
    {}

    bool atEnd() const { return p_ == end_; }

    /** The next token; empty at the end of the text. */
    std::string_view
    token()
    {
        skipSpace();
        const char *start = p_;
        while (p_ != end_ && !isSpace(*p_))
            ++p_;
        return {start, static_cast<std::size_t>(p_ - start)};
    }

    /** Read the integer that starts after any spaces; false if none. */
    template <typename T>
    bool
    integer(T &out)
    {
        skipSpace();
        const auto [ptr, ec] = std::from_chars(p_, end_, out);
        if (ec != std::errc{})
            return false;
        p_ = ptr;
        return true;
    }

    /** Skip one character, whatever it is. */
    void
    skipOne()
    {
        if (p_ != end_)
            ++p_;
    }

    /** The rest of the current line, consuming its '\n'. */
    std::string_view
    line()
    {
        const char *start = p_;
        const auto left = static_cast<std::size_t>(end_ - p_);
        const void *nl = std::memchr(p_, '\n', left);
        p_ = nl != nullptr ? static_cast<const char *>(nl) : end_;
        const std::string_view out(start,
                                   static_cast<std::size_t>(p_ - start));
        skipOne();
        return out;
    }

  private:
    void
    skipSpace()
    {
        while (p_ != end_ && isSpace(*p_))
            ++p_;
    }

    const char *p_;
    const char *end_;
};

/** The value of the next token, which must read "key=value". */
std::string_view
expectField(Cursor &line, std::string_view key)
{
    const std::string_view token = line.token();
    if (!token.starts_with(key) || token.substr(key.size(), 1) != "=")
        fatal("deserializeGraph: expected field '", key, "='");
    return token.substr(key.size() + 1);
}

/**
 * Strict int32 parse for untrusted input: the whole token must be a
 * decimal integer in range ("3;rm" and "" are rejected).
 */
std::int32_t
parseInt(std::string_view token, const char *what)
{
    long long value = 0;
    const char *end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), end, value);
    if (ec != std::errc{})
        fatal("deserializeGraph: ", what, " is not an integer: '", token,
              "'");
    if (ptr != end)
        fatal("deserializeGraph: trailing junk after ", what, ": '",
              token, "'");
    if (value < INT32_MIN || value > INT32_MAX)
        fatal("deserializeGraph: ", what, " out of range: ", value);
    return static_cast<std::int32_t>(value);
}

/** "n,h,w,c": exactly four comma-separated integers. */
bool
parseShape(std::string_view text, TensorShape &shape)
{
    const char *p = text.data();
    const char *end = p + text.size();
    std::int32_t *const dims[] = {&shape.n, &shape.h, &shape.w, &shape.c};
    for (std::size_t k = 0; k < 4; ++k) {
        if (k > 0) {
            if (p == end || *p != ',')
                return false;
            ++p;
        }
        const auto [ptr, ec] = std::from_chars(p, end, *dims[k]);
        if (ec != std::errc{})
            return false;
        p = ptr;
    }
    return p == end;
}

/** Parse one node line; `expected` is its required id. */
Node
parseNode(std::string_view text, std::size_t expected)
{
    Cursor line(text);
    Node n;
    std::string_view kind_name;
    if (line.token() != "node" || !line.integer(n.id)
        || (kind_name = line.token()).empty())
        fatal("deserializeGraph: malformed node line: ", text);
    n.kind = kindFromName(kind_name);
    if (n.id != static_cast<NodeId>(expected)) {
        fatal("deserializeGraph: node id ", n.id,
              " out of order (expected ", expected, ")");
    }
    n.params.kernel = parseInt(expectField(line, "k"), "kernel");
    n.params.stride = parseInt(expectField(line, "s"), "stride");
    n.params.padding = parseInt(expectField(line, "p"), "padding");
    n.params.out_channels =
        parseInt(expectField(line, "oc"), "out_channels");
    n.params.groups = parseInt(expectField(line, "g"), "groups");
    const std::int32_t act =
        parseInt(expectField(line, "act"), "fused activation");
    if (act < 0
        || act > static_cast<std::int32_t>(FusedActivation::Sigmoid))
        fatal("deserializeGraph: invalid fused activation ", act);
    n.params.fused_activation = static_cast<FusedActivation>(act);
    // "-" is no inputs; otherwise ids split at ',', where a final
    // empty piece ("1,") is dropped and an inner one ("1,,2") fails.
    const std::string_view ins = expectField(line, "in");
    if (ins != "-") {
        std::size_t start = 0;
        while (start < ins.size()) {
            const std::size_t comma = ins.find(',', start);
            const std::size_t stop =
                comma == std::string_view::npos ? ins.size() : comma;
            const std::int32_t in =
                parseInt(ins.substr(start, stop - start), "input id");
            if (in < 0 || in >= n.id) {
                fatal("deserializeGraph: node ", n.id,
                      " references out-of-range input ", in);
            }
            n.inputs.push_back(in);
            start = stop + 1;
        }
    }
    const std::string_view shape = expectField(line, "shape");
    if (!parseShape(shape, n.shape))
        fatal("deserializeGraph: malformed shape: ", shape);
    // Anything after the shape on the line is ignored.
    return n;
}

/** Upper bound on the node count field of an untrusted stream. */
constexpr std::size_t kMaxSerializedNodes = 1u << 20;

} // namespace

Graph
graphFromText(std::string_view text)
{
    // The header is whitespace-separated tokens, so its line breaks
    // are free; node lines are '\n'-terminated.
    Cursor in(text);
    if (in.token() != "gcm-graph" || in.token() != "v1")
        fatal("deserializeGraph: bad header (expected 'gcm-graph v1')");
    if (in.token() != "name")
        fatal("deserializeGraph: missing name");
    const std::string_view name = in.token();
    if (name.empty())
        fatal("deserializeGraph: missing name");
    const std::string_view precision = in.token();
    const std::string_view precision_str = in.token();
    if (precision != "precision"
        || (precision_str != "fp32" && precision_str != "int8")) {
        fatal("deserializeGraph: missing/invalid precision");
    }
    std::size_t count = 0;
    if (in.token() != "nodes" || !in.integer(count) || count == 0)
        fatal("deserializeGraph: missing node count");
    if (count > kMaxSerializedNodes) {
        fatal("deserializeGraph: node count ", count,
              " exceeds the limit of ", kMaxSerializedNodes);
    }

    // The one character after the count (its newline) ends the header
    // line; empty lines are skipped, and only whitespace may follow
    // the last node, so a lowered count cannot cut the graph short.
    in.skipOne();
    std::vector<Node> nodes;
    nodes.reserve(count);
    while (nodes.size() < count && !in.atEnd()) {
        const std::string_view line = in.line();
        if (!line.empty())
            nodes.push_back(parseNode(line, nodes.size()));
    }
    if (nodes.size() != count)
        fatal("deserializeGraph: truncated stream (", nodes.size(),
              " of ", count, " nodes)");
    if (!in.token().empty())
        fatal("deserializeGraph: content after the last of ", count,
              " nodes");

    Graph g(std::string(name), std::move(nodes),
            precision_str == "int8" ? Precision::Int8
                                    : Precision::Float32);
    // Untrusted input: run the full verifier, not just the cheap
    // constructor-time validation, and hard-error on any finding.
    verify::verifyGraphOrThrow(g, "deserializeGraph");
    return g;
}

Graph
deserializeGraph(std::istream &is)
{
    const std::string text{std::istreambuf_iterator<char>(is),
                           std::istreambuf_iterator<char>()};
    return graphFromText(text);
}

} // namespace gcm::dnn
