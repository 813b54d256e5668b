/**
 * @file
 * The benchmark's own tests: input generation is pure (same seed,
 * byte-identical lines and split; another seed, other inputs), each
 * serve stream has the shape of its source (loadgen's 16-pair pool,
 * all-distinct cold keys, ArchitectureSearch's generations), unseen
 * graphs never collide with the training suite, the span fold
 * partitions its root exactly, and the printed metrics are the ones
 * BENCHMARK.json lists. Run with `ctest` in the build tree or
 * `python3 perfbench/run.py --selftest`.
 */

#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "bench.hh"
#include "core/experiment_context.hh"
#include "util/json.hh"

namespace
{

using namespace perfbench;

int g_failures = 0;

void
expect(bool ok, const std::string &what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok)
        ++g_failures;
}

gcm::serve::PredictionService::DeviceTable
tableOf(const gcm::core::ExperimentContext &ctx)
{
    // Any fixed signature works for input generation; take three
    // suite networks.
    gcm::serve::PredictionService::DeviceTable table;
    for (std::size_t d = 0; d < ctx.fleet().size(); ++d) {
        table[ctx.fleet().devices()[d].model_name] = {
            ctx.latencyMs(d, 0), ctx.latencyMs(d, 5), ctx.latencyMs(d, 40)};
    }
    return table;
}

void
testSplit()
{
    const auto a = paperSplit(7, 105);
    const auto b = paperSplit(7, 105);
    const auto c = paperSplit(8, 105);
    expect(a.train == b.train && a.test == b.test,
           "same seed gives the same device split");
    expect(a.test != c.test, "another seed gives another device split");
    expect(a.test.size() == 31 && a.train.size() == 74,
           "the split is 70/30 of 105 devices");
}

void
testServeInputs(const gcm::core::ExperimentContext &ctx)
{
    const auto table = tableOf(ctx);
    for (Workload w : {Workload::ServeHot, Workload::ServeCold,
                       Workload::ServeUnseen}) {
        const std::string name = workloadName(w);
        const ServeInputs a = makeServeInputs(w, 11, table);
        const ServeInputs b = makeServeInputs(w, 11, table);
        const ServeInputs c = makeServeInputs(w, 12, table);
        expect(!a.lines.empty() && a.lines.size() % a.batch == 0,
               name + ": whole batches of lines");
        expect(a.lines == b.lines,
               name + ": same seed gives byte-identical lines");
        expect(a.lines != c.lines, name + ": another seed, other lines");
        expect(a.queries.size() == a.lines.size(),
               name + ": one query per line");
        expect(suiteCollisions(a, ctx.suite()) == 0,
               name + ": no inline graph is a training-suite network");
    }
    const ServeInputs hot = makeServeInputs(Workload::ServeHot, 11, table);
    std::set<std::string> hot_keys;
    for (const Query &q : hot.queries)
        hot_keys.insert(q.network + "@" + q.device);
    expect(hot_keys.size() <= 16,
           "serve-hot draws from loadgen's pool of 16 pairs");

    const ServeInputs cold = makeServeInputs(Workload::ServeCold, 11, table);
    std::set<std::string> cold_lines;
    for (std::size_t i = 0; i < cold.queries.size(); ++i)
        cold_lines.insert(renderRequestLine(cold.queries[i], cold, 0));
    expect(cold_lines.size() == cold.lines.size()
               && cold.lines.size()
                      > gcm::serve::ServiceConfig{}.cache_capacity,
           "serve-cold: every key distinct, more keys than the cache");

    const ServeInputs unseen =
        makeServeInputs(Workload::ServeUnseen, 11, table);
    expect(!unseen.graphs.empty(), "serve-unseen sends inline graphs");
    // One batch is one search generation: 32 candidates, each on the
    // same three devices in order. Generation 0 is new; each later one
    // starts with 4 elites, the first 4 new candidates of the one before.
    bool shaped = unseen.batch == 96 && unseen.new_search_per_cycle;
    const std::size_t batches = unseen.queries.size() / unseen.batch;
    std::set<int> sent;
    for (std::size_t b = 0; shaped && b < batches; ++b) {
        const Query *gen = &unseen.queries[b * unseen.batch];
        const char *devices[] = {"Redmi-Note-7", "Galaxy-A50", "Mi-9"};
        for (std::size_t i = 0; i < unseen.batch; ++i) {
            shaped = shaped && gen[i].device == devices[i % 3]
                     && gen[i].graph == gen[i - i % 3].graph;
        }
        const std::size_t elites = b == 0 ? 0 : 4;
        for (std::size_t c = 0; c < 32; ++c) {
            const int g = gen[3 * c].graph;
            if (c < elites) {
                const Query *prev = gen - unseen.batch;
                shaped = shaped
                         && g == prev[3 * (c + (b == 1 ? 0 : 4))].graph;
            } else {
                shaped = shaped && sent.insert(g).second;
            }
        }
    }
    expect(shaped, "serve-unseen batches have ArchitectureSearch's shape");
    // The collision check must be able to fire: a suite network sent
    // inline is caught.
    ServeInputs planted = unseen;
    planted.graphs[0] = ctx.fp32Suite()[3];
    expect(suiteCollisions(planted, ctx.suite()) == 1,
           "a planted training-suite graph is detected");
}

void
testFold()
{
    SpanNode root{"root", 100.0, {}};
    root.children.push_back({"a", 30.0, {{"x", 10.0, {}}}});
    root.children.push_back(
        {"b", 50.0, {{"mapped", 20.0, {{"inner", 5.0, {}}}}}});
    const auto rows =
        foldSpans(root, {{"mapped", "m_ms"}, {"x", "x_ms"}}, "self_ms",
                  "rest_ms");
    double sum = 0;
    for (const auto &r : rows)
        sum += r.second;
    expect(std::fabs(sum - 100.0) < 1e-9, "folded rows sum to the root");
    expect(rows.at("self_ms") == 20.0, "root self time has its row");
    expect(rows.at("m_ms") == 20.0 && rows.at("x_ms") == 10.0,
           "a mapped span takes its whole subtree");
    expect(rows.at("rest_ms") == 50.0,
           "other self time is unattributed");
}

/** The printed metric lists match BENCHMARK.json, name and unit. */
void
testManifest()
{
    std::ifstream is(PERFBENCH_MANIFEST);
    std::stringstream ss;
    ss << is.rdbuf();
    const gcm::json::Value doc = gcm::json::parseJson(ss.str());
    const auto same = [](const gcm::json::Value &listed,
                         const std::vector<MetricSpec> &printed) {
        if (listed.array.size() != printed.size())
            return false;
        for (std::size_t i = 0; i < printed.size(); ++i) {
            if (listed.array[i].at("name").str != printed[i].name
                || listed.array[i].at("unit").str != printed[i].unit)
                return false;
        }
        return true;
    };
    expect(same(doc.at("end_to_end"), endToEndMetrics()),
           "end-to-end metrics match BENCHMARK.json");
    expect(same(doc.at("per_layer"), layerMetrics()),
           "per-layer metrics match BENCHMARK.json");
}

} // namespace

int
main()
{
    const auto ctx = gcm::core::ExperimentContext::build();
    testSplit();
    testServeInputs(ctx);
    testFold();
    testManifest();
    std::printf("%d failure(s)\n", g_failures);
    return g_failures == 0 ? 0 : 1;
}
