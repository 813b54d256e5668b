/**
 * @file
 * Unit tests for DNN graph text serialization, plus a property-based
 * sweep: a few hundred generator-random graphs must round-trip
 * exactly, and truncated or bit-flipped serializations must raise
 * GcmError (or, for benign corruptions, still parse to a valid
 * graph) — never crash.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "dnn/analysis.hh"
#include "dnn/generator.hh"
#include "dnn/quantize.hh"
#include "dnn/serialize.hh"
#include "dnn/zoo.hh"
#include "util/error.hh"
#include "util/rng.hh"

using namespace gcm::dnn;
using gcm::GcmError;

namespace
{

bool
graphsEqual(const Graph &a, const Graph &b)
{
    if (a.name() != b.name() || a.precision() != b.precision()
        || a.numNodes() != b.numNodes()) {
        return false;
    }
    for (std::size_t i = 0; i < a.numNodes(); ++i) {
        const Node &x = a.nodes()[i];
        const Node &y = b.nodes()[i];
        if (x.kind != y.kind || !(x.params == y.params)
            || x.inputs != y.inputs || !(x.shape == y.shape)) {
            return false;
        }
    }
    return true;
}

} // namespace

TEST(GraphSerialize, RoundTripsZooModel)
{
    const Graph g = buildZooModel("mobilenet_v3_large");
    const Graph back = graphFromText(graphToText(g));
    EXPECT_TRUE(graphsEqual(g, back));
    EXPECT_EQ(totalMacs(g), totalMacs(back));
}

TEST(GraphSerialize, RoundTripsQuantizedGraph)
{
    const Graph q = quantize(buildZooModel("mnasnet_a1"));
    const Graph back = graphFromText(graphToText(q));
    EXPECT_TRUE(graphsEqual(q, back));
    EXPECT_EQ(back.precision(), Precision::Int8);
}

TEST(GraphSerialize, RoundTripsGeneratedNetworks)
{
    RandomNetworkGenerator gen(SearchSpace{}, 555);
    for (int i = 0; i < 3; ++i) {
        const Graph g = gen.generate("roundtrip");
        EXPECT_TRUE(graphsEqual(g, graphFromText(graphToText(g))));
    }
}

TEST(GraphSerialize, RejectsBadHeader)
{
    std::stringstream ss("not-a-graph v1\n");
    EXPECT_THROW((void)deserializeGraph(ss), GcmError);
}

TEST(GraphSerialize, RejectsTruncatedStream)
{
    std::string text = graphToText(buildZooModel("squeezenet_1.1"));
    text.resize(text.size() / 2);
    EXPECT_THROW((void)graphFromText(text), GcmError);
}

TEST(GraphSerialize, RejectsUnknownOperator)
{
    std::string text = graphToText(buildZooModel("squeezenet_1.1"));
    const auto pos = text.find("Conv2d");
    text.replace(pos, 6, "Conv9d");
    EXPECT_THROW((void)graphFromText(text), GcmError);
}

TEST(GraphSerialize, LoadedGraphValidates)
{
    // Corrupt an input reference to point forward: validate() on load
    // must reject it.
    const Graph g = buildZooModel("squeezenet_1.1");
    std::string text = graphToText(g);
    const auto pos = text.find("in=0 ");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, 5, "in=9 ");
    EXPECT_THROW((void)graphFromText(text), GcmError);
}

TEST(GraphSerialize, PropertyRandomGraphsRoundTripExactly)
{
    // ~200 generator-random networks (plus their quantized forms on a
    // sample) must reproduce structure, shapes and static costs
    // exactly through a serialize/deserialize cycle.
    RandomNetworkGenerator gen(SearchSpace{}, 20260805);
    const auto suite = gen.generateSuite(200, "prop");
    ASSERT_EQ(suite.size(), 200u);
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const Graph &g = suite[i];
        const Graph back = graphFromText(graphToText(g));
        ASSERT_TRUE(graphsEqual(g, back)) << g.name();
        ASSERT_EQ(totalMacs(g), totalMacs(back)) << g.name();
        ASSERT_EQ(totalParams(g), totalParams(back)) << g.name();
        if (i % 25 == 0) {
            const Graph q = quantize(g);
            const Graph qback = graphFromText(graphToText(q));
            ASSERT_TRUE(graphsEqual(q, qback)) << q.name();
            ASSERT_EQ(qback.precision(), Precision::Int8);
        }
    }
}

TEST(GraphSerialize, PropertyTruncationNeverCrashes)
{
    // Cutting the stream at any point yields GcmError, or — when the
    // cut removes only trailing whitespace — the identical graph.
    RandomNetworkGenerator gen(SearchSpace{}, 99);
    const Graph g = gen.generate("trunc");
    const std::string text = graphToText(g);
    const std::size_t step = std::max<std::size_t>(1, text.size() / 64);
    for (std::size_t cut = 0; cut < text.size(); cut += step) {
        try {
            const Graph back = graphFromText(text.substr(0, cut));
            EXPECT_TRUE(graphsEqual(g, back))
                << "truncation at " << cut
                << " parsed to a different graph";
        } catch (const GcmError &) {
            // Expected for cuts through real content.
        } catch (...) {
            FAIL() << "truncation at " << cut
                   << " escaped with a non-GcmError exception";
        }
    }
}

TEST(GraphSerialize, PropertyBitFlipsNeverCrash)
{
    // ~300 seeded single-bit corruptions across several source
    // graphs: the deserializer must either reject with GcmError or
    // produce some valid graph — never crash, hang or throw anything
    // else.
    RandomNetworkGenerator gen(SearchSpace{}, 4242);
    std::vector<std::string> texts;
    texts.push_back(graphToText(gen.generate("flip_a")));
    texts.push_back(graphToText(quantize(gen.generate("flip_b"))));
    texts.push_back(graphToText(buildZooModel("mobilenet_v2_1.0")));
    gcm::Rng rng(31337);
    std::size_t rejected = 0, accepted = 0;
    for (int trial = 0; trial < 300; ++trial) {
        std::string text = texts[trial % texts.size()];
        const std::size_t pos = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(text.size()) - 1));
        const char bit = static_cast<char>(
            1 << rng.uniformInt(0, 7));
        text[pos] = static_cast<char>(text[pos] ^ bit);
        try {
            (void)graphFromText(text);
            ++accepted;
        } catch (const GcmError &) {
            ++rejected;
        } catch (...) {
            FAIL() << "bit flip at byte " << pos << " (trial " << trial
                   << ") escaped with a non-GcmError exception";
        }
    }
    EXPECT_EQ(rejected + accepted, 300u);
    // The strict parser must catch the overwhelming majority; a flip
    // inside the free-form name field can legitimately survive.
    EXPECT_GT(rejected, 150u);
}

// --- parser edge cases ---------------------------------------------------
//
// Each case pins the outcome of the stream-based parser that the
// single-pass one replaced, except the two deliberate tightenings
// pinned by RejectsLeadingPlus and RejectsLooseShapes.

namespace
{

const std::string kHeader = "gcm-graph v1\n"
                            "name t\n"
                            "precision fp32\n"
                            "nodes 2\n";
const std::string kInputLine = "node 0 Input k=0 s=1 p=0 oc=0 g=1 act=0 "
                               "in=- shape=1,8,8,3\n";

/** A two-node text whose ReLU line carries `in` and `shape` as given. */
std::string
reluGraph(const std::string &in, const std::string &shape,
          const std::string &tail = "")
{
    return kHeader + kInputLine + "node 1 ReLU k=0 s=1 p=0 oc=0 g=1 act=0 "
           + "in=" + in + " shape=" + shape + tail + "\n";
}

std::string
withCrlf(const std::string &text)
{
    std::string out;
    for (const char c : text) {
        if (c == '\n')
            out += '\r';
        out += c;
    }
    return out;
}

/** The GcmError message graphFromText raises for `text` ("" if none). */
std::string
rejection(const std::string &text)
{
    try {
        (void)graphFromText(text);
    } catch (const GcmError &e) {
        return e.what();
    }
    return "";
}

} // namespace

TEST(GraphSerialize, ParsesCrlfLineEndings)
{
    const Graph g = quantize(buildZooModel("mobilenet_v3_small"));
    EXPECT_TRUE(graphsEqual(g, graphFromText(withCrlf(graphToText(g)))));
}

TEST(GraphSerialize, HeaderTokensMaySpanAnyWhitespace)
{
    const Graph g = graphFromText(reluGraph("0", "1,8,8,3"));
    const std::string text = "  gcm-graph\tv1 name\nt\r\nprecision\vfp32"
                             " nodes\f2\n"
                             + kInputLine
                             + "node 1 ReLU k=0 s=1 p=0 oc=0 g=1 act=0 "
                               "in=0 shape=1,8,8,3\n";
    EXPECT_TRUE(graphsEqual(g, graphFromText(text)));
}

TEST(GraphSerialize, IgnoresTrailingTokensAfterShape)
{
    const Graph g = graphFromText(reluGraph("0", "1,8,8,3"));
    EXPECT_TRUE(graphsEqual(
        g, graphFromText(reluGraph("0", "1,8,8,3", " extra tokens"))));
}

TEST(GraphSerialize, RejectsContentAfterTheLastNode)
{
    // Trailing whitespace is fine; anything else after the last node
    // means the count and the body disagree.
    const Graph g = graphFromText(reluGraph("0", "1,8,8,3"));
    EXPECT_TRUE(graphsEqual(
        g, graphFromText(reluGraph("0", "1,8,8,3") + "\n \t\r\n")));
    EXPECT_EQ(rejection(reluGraph("0", "1,8,8,3") + "not a node\n"),
              "deserializeGraph: content after the last of 2 nodes");

    // A bit flip that lowers the count ('6' ^ 0x02 = '4') used to
    // parse to the first 64 nodes of squeezenet.
    const std::string text =
        graphToText(buildZooModel("squeezenet_1.1"));
    const std::size_t at = text.find("\nnodes 66\n");
    ASSERT_NE(at, std::string::npos);
    std::string lowered = text;
    lowered[at + 8] = '4';
    EXPECT_EQ(rejection(lowered),
              "deserializeGraph: content after the last of 64 nodes");
}

TEST(GraphSerialize, InputListEdgeCases)
{
    // "in=" is an empty list: fine for the Input node, an arity error
    // for the ReLU.
    const Graph empty_input = graphFromText(
        kHeader + "node 0 Input k=0 s=1 p=0 oc=0 g=1 act=0 in= "
                  "shape=1,8,8,3\n"
        + "node 1 ReLU k=0 s=1 p=0 oc=0 g=1 act=0 in=0 shape=1,8,8,3\n");
    EXPECT_TRUE(empty_input.nodes()[0].inputs.empty());
    EXPECT_THROW((void)graphFromText(reluGraph("", "1,8,8,3")), GcmError);
    // A trailing comma is dropped; a leading or doubled one is an
    // empty id.
    const Graph trailing = graphFromText(reluGraph("0,", "1,8,8,3"));
    EXPECT_EQ(trailing.nodes()[1].inputs, std::vector<NodeId>{0});
    EXPECT_NE(rejection(reluGraph(",0", "1,8,8,3"))
                  .find("input id is not an integer: ''"),
              std::string::npos);
    EXPECT_THROW((void)graphFromText(reluGraph("0,,0", "1,8,8,3")),
                 GcmError);
}

TEST(GraphSerialize, RejectsWrongShapeComponentCounts)
{
    // Five components are one of the deliberate tightenings: the
    // stream parser ignored the fifth.
    EXPECT_NE(rejection(reluGraph("0", "1,8,8")).find("malformed shape"),
              std::string::npos);
    EXPECT_NE(rejection(reluGraph("0", "1,8,8,3,5")).find("malformed shape"),
              std::string::npos);
}

TEST(GraphSerialize, RejectsLooseShapes)
{
    // Deliberately stricter than the stream parser, which read any
    // character as a separator and ignored text after the fourth
    // component.
    for (const char *shape : {"1x8x8x3", "1,8,8;3", "1,8,8,3x", "1,8,8,3,"}) {
        EXPECT_NE(rejection(reluGraph("0", shape)).find("malformed shape"),
                  std::string::npos)
            << shape;
    }
}

TEST(GraphSerialize, RejectsLeadingPlus)
{
    // Deliberately stricter than the stream parser, which took '+' as
    // a sign on every integer field.
    const std::string relu = "node 1 ReLU k=0 s=1 p=0 oc=0 g=1 act=0 ";
    EXPECT_THROW((void)graphFromText(reluGraph("+0", "1,8,8,3")), GcmError);
    EXPECT_THROW((void)graphFromText(reluGraph("0", "+1,8,8,3")), GcmError);
    EXPECT_THROW((void)graphFromText(
                     kHeader + kInputLine
                     + "node 1 ReLU k=+0 s=1 p=0 oc=0 g=1 act=0 in=0 "
                       "shape=1,8,8,3\n"),
                 GcmError);
    EXPECT_THROW((void)graphFromText(
                     kHeader + kInputLine
                     + "node +1 ReLU k=0 s=1 p=0 oc=0 g=1 act=0 in=0 "
                       "shape=1,8,8,3\n"),
                 GcmError);
    EXPECT_NE(rejection("gcm-graph v1\nname t\nprecision fp32\nnodes +2\n"
                        + kInputLine + relu + "in=0 shape=1,8,8,3\n")
                  .find("missing node count"),
              std::string::npos);
}

TEST(GraphSerialize, RejectsEofRightAfterHeader)
{
    for (const std::string &text :
         {std::string("gcm-graph v1\nname t\nprecision fp32\nnodes 2"),
          std::string("gcm-graph v1\nname t\nprecision fp32\nnodes 2\n")}) {
        EXPECT_NE(rejection(text).find("truncated stream (0 of 2 nodes)"),
                  std::string::npos);
    }
}
