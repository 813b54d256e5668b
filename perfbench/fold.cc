/**
 * @file
 * The fit phase and the span-tree folding behind the per-layer table.
 */

#include <sstream>

#include "bench.hh"
#include "obs/obs.hh"
#include "util/json.hh"
#include "util/parallel.hh"

namespace perfbench
{

namespace
{

SpanNode
spanFromJson(const gcm::json::Value &v)
{
    SpanNode node;
    node.name = v.at("name").str;
    node.total_ms = v.at("total_ms").number;
    for (const auto &child : v.at("children").array)
        node.children.push_back(spanFromJson(child));
    return node;
}

void
foldInto(const SpanNode &node,
         const std::map<std::string, std::string> &rows,
         const std::string &unattributed_row,
         std::map<std::string, double> &out)
{
    const auto it = rows.find(node.name);
    if (it != rows.end()) {
        out[it->second] += node.total_ms;
        return;
    }
    double self = node.total_ms;
    for (const auto &child : node.children) {
        self -= child.total_ms;
        foldInto(child, rows, unattributed_row, out);
    }
    out[unattributed_row] += self;
}

} // namespace

std::vector<SpanNode>
parseSpans(const std::string &report_json)
{
    const gcm::json::Value doc = gcm::json::parseJson(report_json);
    std::vector<SpanNode> forest;
    for (const auto &root : doc.at("spans").array)
        forest.push_back(spanFromJson(root));
    return forest;
}

const SpanNode *
findSpan(const std::vector<SpanNode> &forest, const std::string &name)
{
    for (const auto &node : forest) {
        if (node.name == name)
            return &node;
        if (const SpanNode *hit = findSpan(node.children, name))
            return hit;
    }
    return nullptr;
}

std::map<std::string, double>
foldSpans(const SpanNode &root,
          const std::map<std::string, std::string> &rows,
          const std::string &root_row, const std::string &unattributed_row)
{
    std::map<std::string, double> out;
    for (const auto &entry : rows)
        out[entry.second] = 0.0;
    out[root_row] = 0.0;
    out[unattributed_row] = 0.0;
    double self = root.total_ms;
    for (const auto &child : root.children) {
        self -= child.total_ms;
        foldInto(child, rows, unattributed_row, out);
    }
    out[root_row] += self;
    return out;
}

void
reportLoopTrace(Report &report, const LoopStats &untraced,
                const LoopStats &traced)
{
    const auto forest = parseSpans(gcm::obs::reportJson());
    const SpanNode *root = findSpan(forest, "bench.loop");
    report.check(root != nullptr, "the traced loop recorded its span");
    if (root == nullptr)
        return;
    auto rows = foldSpans(*root,
                          {{"holdout.predict", "holdout.predict_ms"},
                           {"protocol.parse", "protocol.parse_ms"},
                           {"service.batch", "service.batch_ms"},
                           {"protocol.render", "protocol.render_ms"}},
                          "loop.unattributed_ms", "loop.unattributed_ms");
    for (const auto &[name, ms] : rows)
        report.layer(name, ms, "ms");
    report.layer("loop.wall_ms", root->total_ms, "ms");

    const auto ops = static_cast<double>(traced.ops);
    const auto batches = static_cast<double>(traced.batch_us.size());
    report.layer("protocol.parse_us",
                 rows["protocol.parse_ms"] * 1000.0 / ops, "us");
    report.layer("protocol.render_us",
                 rows["protocol.render_ms"] * 1000.0 / ops, "us");
    report.layer("service.batch_us",
                 rows["service.batch_ms"] * 1000.0 / batches, "us");
    report.layer("service.req_us",
                 rows["service.batch_ms"] * 1000.0 / ops, "us");
    report.layer("obs.overhead_pct",
                 (summarizeLoop(traced).p50_us
                      / summarizeLoop(untraced).p50_us
                  - 1.0)
                     * 100.0,
                 "%");
    report.fact("traced_loop_ops", ops);
}

Fit
fitSingle(const std::vector<gcm::dnn::Graph> &suite,
          const std::vector<std::vector<double>> &latencies, Report &report)
{
    using gcm::core::SignatureCostModel;
    namespace obs = gcm::obs;

    Fit fit;
    gcm::setThreads(1);
    const std::uint64_t nodes0 = obs::counterValue("tree.nodes");
    const auto t0 = Clock::now();
    {
        const obs::TraceSpan span("bench.fit");
        fit.model = std::make_unique<SignatureCostModel>(
            SignatureCostModel::train(suite, latencies));
    }
    report.endToEnd("train_s", secondsSince(t0), "s");
    report.fact("pool_threads_fit", 1.0);
    std::ostringstream os;
    fit.model->serialize(os);
    fit.bytes = os.str();
    if (!obs::enabled())
        return fit;

    const auto forest = parseSpans(obs::reportJson());
    const SpanNode *root = findSpan(forest, "bench.fit");
    report.check(root != nullptr, "the traced fit recorded its span");
    if (root != nullptr) {
        const auto rows = foldSpans(*root,
                                    {{"signature.mis", "signature.select_ms"},
                                     {"gbt.bin", "gbt.bin_ms"},
                                     {"tree.histogram", "tree.histogram_ms"},
                                     {"tree.split", "tree.split_ms"}},
                                    "train.dataset_ms", "fit.unattributed_ms");
        for (const auto &[name, ms] : rows)
            report.layer(name, ms, "ms");
        report.layer("fit.wall_ms", root->total_ms, "ms");
    }
    report.layer("tree.nodes",
                 static_cast<double>(obs::counterValue("tree.nodes") - nodes0),
                 "count");
    // Computed, not measured: the dense training matrix the fit
    // materializes (one float per cell; signature rows dropped).
    const double rows = static_cast<double>(
        latencies[0].size() * (suite.size() - fit.model->signature().size()));
    report.layer("dataset.bytes",
                 rows * static_cast<double>(fit.model->featureWidth()) * 4.0,
                 "bytes");
    return fit;
}

void
fitMulti(const std::vector<gcm::dnn::Graph> &suite,
         const std::vector<std::vector<double>> &latencies, const Fit &fit,
         Report &report)
{
    using gcm::core::SignatureCostModel;
    namespace obs = gcm::obs;
    const std::size_t cores = hostCores();
    gcm::setThreads(cores);
    const std::uint64_t batches0 = obs::counterValue("pool.batches");
    const std::uint64_t chunks0 = obs::counterValue("pool.chunks");
    const auto t0 = Clock::now();
    std::unique_ptr<SignatureCostModel> mt;
    {
        const obs::TraceSpan span("bench.fit_mt");
        mt = std::make_unique<SignatureCostModel>(
            SignatureCostModel::train(suite, latencies));
    }
    report.endToEnd("train_mt_s", secondsSince(t0), "s");
    report.fact("pool_threads_fit_mt", static_cast<double>(cores));
    std::ostringstream os;
    mt->serialize(os);
    report.check(os.str() == fit.bytes,
                 "the 1-thread and " + std::to_string(cores)
                     + "-thread fits serialize to identical bytes");
    report.layer("pool.batches",
                 static_cast<double>(obs::counterValue("pool.batches")
                                     - batches0),
                 "count");
    report.layer("pool.chunks",
                 static_cast<double>(obs::counterValue("pool.chunks")
                                     - chunks0),
                 "count");
}

} // namespace perfbench
