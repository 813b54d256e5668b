/**
 * @file
 * Tests for the graph verifier and the lint-pass registry: each class
 * of hand-corrupted graph must produce its specific diagnostic, and
 * the entire zoo plus a generated suite must verify clean.
 */

#include <gtest/gtest.h>

#include <functional>

#include "dnn/analysis.hh"
#include "dnn/generator.hh"
#include "dnn/quantize.hh"
#include "dnn/serialize.hh"
#include "dnn/zoo.hh"
#include "util/error.hh"
#include "verify/lint.hh"
#include "verify/verifier.hh"

using namespace gcm;
using namespace gcm::dnn;
using namespace gcm::verify;

namespace
{

/** A small valid network to corrupt. */
Graph
makeCleanGraph()
{
    GraphBuilder b("clean", TensorShape{1, 16, 16, 3});
    NodeId x = b.conv2d(b.input(), 16, 3, 1, 1);
    x = b.relu(x);
    x = b.globalAvgPool(x);
    x = b.fullyConnected(x, 10);
    x = b.softmax(x);
    return b.build();
}

/** Rebuild a graph from mutated nodes, bypassing all validation. */
Graph
corrupt(const Graph &g, const std::function<void(std::vector<Node> &)> &fn)
{
    std::vector<Node> nodes = g.nodes();
    fn(nodes);
    return Graph(g.name(), std::move(nodes), g.precision());
}

/** True when the report holds a finding matching all three fields. */
bool
hasDiag(const VerifyReport &report, Severity severity,
        const std::string &pass, const std::string &substring)
{
    for (const auto &d : report.diagnostics()) {
        if (d.severity == severity && d.pass == pass
            && d.message.find(substring) != std::string::npos) {
            return true;
        }
    }
    return false;
}

} // namespace

TEST(GraphVerifier, CleanGraphHasNoDiagnostics)
{
    const VerifyReport report = verifyGraph(makeCleanGraph());
    EXPECT_TRUE(report.empty()) << report.str();
}

TEST(GraphVerifier, DetectsCycle)
{
    // %1 and %2 feed each other: a true cycle, not just bad ordering.
    const Graph g = corrupt(makeCleanGraph(), [](auto &nodes) {
        nodes[1].inputs = {2};
        nodes[2].inputs = {1};
    });
    const VerifyReport report = verifyGraph(g);
    EXPECT_TRUE(hasDiag(report, Severity::Error, "structure", "cycle"))
        << report.str();
}

TEST(GraphVerifier, DetectsDanglingInput)
{
    const Graph g = corrupt(makeCleanGraph(), [](auto &nodes) {
        nodes[2].inputs = {99};
    });
    const VerifyReport report = verifyGraph(g);
    EXPECT_TRUE(
        hasDiag(report, Severity::Error, "structure", "dangling"))
        << report.str();
}

TEST(GraphVerifier, DetectsWrongArity)
{
    // Softmax (unary) handed two inputs.
    const Graph g = corrupt(makeCleanGraph(), [](auto &nodes) {
        nodes.back().inputs = {2, 3};
    });
    const VerifyReport report = verifyGraph(g);
    EXPECT_TRUE(hasDiag(report, Severity::Error, "structure",
                        "expects 1 input"))
        << report.str();
}

TEST(GraphVerifier, DetectsStaleShape)
{
    // Claim the conv produces 32 channels while its params say 16.
    const Graph g = corrupt(makeCleanGraph(), [](auto &nodes) {
        nodes[1].shape.c = 32;
    });
    const VerifyReport report = verifyGraph(g);
    EXPECT_TRUE(hasDiag(report, Severity::Error, "shape", "stale"))
        << report.str();
}

TEST(GraphVerifier, DetectsNonTopologicalEdge)
{
    // Reroute so %2 consumes %3 while %3 consumes %1: the graph is
    // still acyclic, just stored in a non-topological order.
    const Graph g = corrupt(makeCleanGraph(), [](auto &nodes) {
        nodes[2].inputs = {3};
        nodes[3].inputs = {1};
    });
    const VerifyReport report = verifyGraph(g);
    EXPECT_TRUE(hasDiag(report, Severity::Error, "structure",
                        "non-topological"))
        << report.str();
    EXPECT_FALSE(hasDiag(report, Severity::Error, "structure", "cycle"))
        << report.str();
}

TEST(GraphVerifier, DetectsIdMismatch)
{
    const Graph g = corrupt(makeCleanGraph(), [](auto &nodes) {
        nodes[3].id = 7;
    });
    const VerifyReport report = verifyGraph(g);
    EXPECT_TRUE(hasDiag(report, Severity::Error, "structure",
                        "does not match position"))
        << report.str();
}

TEST(GraphVerifier, DetectsInvalidOpKindValue)
{
    // Out-of-enum kind, e.g. from a corrupted serialized stream; the
    // verifier must diagnose it without tripping any internal assert.
    const Graph g = corrupt(makeCleanGraph(), [](auto &nodes) {
        nodes[2].kind = static_cast<OpKind>(99);
    });
    const VerifyReport report = verifyGraph(g);
    EXPECT_TRUE(hasDiag(report, Severity::Error, "structure",
                        "invalid operator kind"))
        << report.str();
}

TEST(GraphVerifier, FlagsDeadNodeAsWarning)
{
    // Splice a ReLU nobody consumes in front of the output node.
    const Graph g = corrupt(makeCleanGraph(), [](auto &nodes) {
        Node out = nodes.back(); // Softmax, consumes node 4
        nodes.pop_back();
        Node dead;
        dead.id = static_cast<NodeId>(nodes.size());
        dead.kind = OpKind::ReLU;
        dead.inputs = {1};
        dead.shape = nodes[1].shape;
        nodes.push_back(std::move(dead));
        out.id = static_cast<NodeId>(nodes.size());
        nodes.push_back(std::move(out));
    });
    const VerifyReport report = verifyGraph(g);
    EXPECT_TRUE(hasDiag(report, Severity::Warning, "dead-code",
                        "unreachable"))
        << report.str();
    EXPECT_FALSE(report.hasErrors()) << report.str();
}

TEST(GraphVerifier, FlagsBatchNormInInt8Graph)
{
    const Graph fp32 = makeCleanGraph();
    const Graph g =
        Graph(fp32.name(), std::vector<Node>(fp32.nodes()),
              Precision::Int8);
    // makeCleanGraph has no BatchNorm; add the precision violation.
    const Graph bad = corrupt(g, [](auto &nodes) {
        nodes[2].kind = OpKind::BatchNorm;
    });
    const VerifyReport report = verifyGraph(bad);
    EXPECT_TRUE(
        hasDiag(report, Severity::Error, "precision", "BatchNorm"))
        << report.str();
}

TEST(GraphVerifier, FlagsFusedActivationOnNonFusableOp)
{
    const Graph g = corrupt(makeCleanGraph(), [](auto &nodes) {
        nodes[2].params.fused_activation = FusedActivation::ReLU;
    });
    const VerifyReport report = verifyGraph(g);
    EXPECT_TRUE(
        hasDiag(report, Severity::Error, "precision", "non-fusable"))
        << report.str();
}

TEST(GraphVerifier, OrThrowRaisesGcmErrorWithContext)
{
    const Graph g = corrupt(makeCleanGraph(), [](auto &nodes) {
        nodes[2].inputs = {99};
    });
    try {
        verifyGraphOrThrow(g, "test-producer");
        FAIL() << "expected GcmError";
    } catch (const GcmError &e) {
        EXPECT_NE(std::string(e.what()).find("test-producer"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("dangling"),
                  std::string::npos);
    }
}

TEST(GraphVerifier, OrThrowPassesWarnings)
{
    // fp32 fused activation is only a Warning; must not throw.
    const Graph g = corrupt(makeCleanGraph(), [](auto &nodes) {
        nodes[1].params.fused_activation = FusedActivation::ReLU;
    });
    EXPECT_NO_THROW(verifyGraphOrThrow(g, "test-producer"));
}

TEST(LintRegistry, BuiltinPassesRegistered)
{
    auto &reg = LintRegistry::instance();
    EXPECT_NE(reg.find("flops-range"), nullptr);
    EXPECT_NE(reg.find("se-reduction"), nullptr);
    EXPECT_NE(reg.find("encoder-range"), nullptr);
    EXPECT_EQ(reg.find("no-such-pass"), nullptr);
}

TEST(LintRegistry, RejectsDuplicateRegistration)
{
    EXPECT_THROW(LintRegistry::instance().registerPass(
                     "flops-range", "dup", [](const Graph &,
                                              VerifyReport &) {}),
                 GcmError);
}

TEST(LintRegistry, UnknownPassNameThrows)
{
    EXPECT_THROW(
        LintRegistry::instance().run(makeCleanGraph(), {"nope"}),
        GcmError);
}

TEST(LintRegistry, CustomPassRuns)
{
    auto &reg = LintRegistry::instance();
    if (reg.find("test-custom") == nullptr) {
        reg.registerPass("test-custom", "always warns",
                         [](const Graph &, VerifyReport &r) {
                             r.add(Severity::Note, kNoNode,
                                   "test-custom", "ran");
                         });
    }
    const VerifyReport report =
        reg.run(makeCleanGraph(), {"test-custom"});
    EXPECT_TRUE(hasDiag(report, Severity::Note, "test-custom", "ran"));
}

TEST(Lint, FlopsRangeFlagsTinyNetwork)
{
    // makeCleanGraph is ~0.01 MMACs, far below the Fig. 2 span.
    ASSERT_LT(megaMacs(makeCleanGraph()), kLintMinMegaMacs);
    const VerifyReport report = LintRegistry::instance().run(
        makeCleanGraph(), {"flops-range"});
    EXPECT_TRUE(hasDiag(report, Severity::Warning, "flops-range",
                        "outside the characterized range"))
        << report.str();
}

TEST(Lint, SeReductionFlagsExpandingSqueeze)
{
    // Hand-build an SE block whose "squeeze" FC widens 16 -> 64.
    GraphBuilder b("bad-se", TensorShape{1, 8, 8, 16});
    NodeId x = b.conv2d(b.input(), 16, 3, 1, 1);
    NodeId g = b.globalAvgPool(x);
    NodeId f1 = b.fullyConnected(g, 64);
    NodeId a1 = b.relu(f1);
    NodeId f2 = b.fullyConnected(a1, 16);
    NodeId a2 = b.sigmoid(f2);
    b.mul(x, a2);
    const Graph graph = b.build();
    const VerifyReport report =
        LintRegistry::instance().run(graph, {"se-reduction"});
    EXPECT_TRUE(hasDiag(report, Severity::Warning, "se-reduction",
                        "reduction ratio below 1"))
        << report.str();
}

TEST(Lint, SeReductionAcceptsBuilderBlocks)
{
    GraphBuilder b("good-se", TensorShape{1, 8, 8, 32});
    NodeId x = b.conv2d(b.input(), 32, 3, 1, 1);
    x = b.squeezeExcite(x);
    const Graph graph = b.build();
    const VerifyReport report =
        LintRegistry::instance().run(graph, {"se-reduction"});
    EXPECT_TRUE(report.empty()) << report.str();
}

TEST(Lint, EncoderRangeFlagsOverflowingFeature)
{
    const Graph g = corrupt(makeCleanGraph(), [](auto &nodes) {
        // 2^25 output features would lose precision as a float.
        nodes[4].params.out_channels = 1 << 25;
        nodes[4].shape.c = 1 << 25;
        nodes[5].shape.c = 1 << 25;
    });
    const VerifyReport report =
        LintRegistry::instance().run(g, {"encoder-range"});
    EXPECT_TRUE(hasDiag(report, Severity::Warning, "encoder-range",
                        "exceeds exact float range"))
        << report.str();
}

TEST(VerifySweep, EntireZooVerifiesClean)
{
    for (const auto &name : zooModelNames()) {
        const Graph g = buildZooModel(name);
        VerifyReport report = verifyGraph(g);
        report.merge(lintGraph(g));
        EXPECT_TRUE(report.count(Severity::Error) == 0
                    && report.count(Severity::Warning) == 0)
            << name << ":\n"
            << report.str();

        const Graph q = quantize(g);
        VerifyReport qreport = verifyGraph(q);
        qreport.merge(lintGraph(q));
        EXPECT_TRUE(qreport.count(Severity::Error) == 0
                    && qreport.count(Severity::Warning) == 0)
            << name << " (int8):\n"
            << qreport.str();
    }
}

TEST(VerifySweep, ExtendedZooVerifiesClean)
{
    for (const auto &name : extendedZooModelNames()) {
        const Graph g = buildZooModel(name);
        VerifyReport report = verifyGraph(g);
        report.merge(lintGraph(g));
        EXPECT_TRUE(report.count(Severity::Error) == 0
                    && report.count(Severity::Warning) == 0)
            << name << ":\n"
            << report.str();
    }
}

TEST(VerifySweep, HundredGeneratedNetworksVerifyClean)
{
    RandomNetworkGenerator gen(SearchSpace{}, 2020);
    const auto suite = gen.generateSuite(100, "sweep");
    ASSERT_EQ(suite.size(), 100u);
    for (const auto &g : suite) {
        VerifyReport report = verifyGraph(g);
        report.merge(lintGraph(g));
        EXPECT_TRUE(report.count(Severity::Error) == 0
                    && report.count(Severity::Warning) == 0)
            << g.name() << ":\n"
            << report.str();
    }
}

TEST(DeserializeHardening, RejectsOutOfRangeInputId)
{
    const std::string text = "gcm-graph v1\n"
                             "name t\n"
                             "precision fp32\n"
                             "nodes 2\n"
                             "node 0 Input k=0 s=1 p=0 oc=0 g=1 act=0 "
                             "in=- shape=1,8,8,3\n"
                             "node 1 ReLU k=0 s=1 p=0 oc=0 g=1 act=0 "
                             "in=7 shape=1,8,8,3\n";
    EXPECT_THROW((void)graphFromText(text), GcmError);
}

TEST(DeserializeHardening, RejectsUnknownOpKind)
{
    const std::string text = "gcm-graph v1\n"
                             "name t\n"
                             "precision fp32\n"
                             "nodes 2\n"
                             "node 0 Input k=0 s=1 p=0 oc=0 g=1 act=0 "
                             "in=- shape=1,8,8,3\n"
                             "node 1 Gelu k=0 s=1 p=0 oc=0 g=1 act=0 "
                             "in=0 shape=1,8,8,3\n";
    EXPECT_THROW((void)graphFromText(text), GcmError);
}

TEST(DeserializeHardening, RejectsNonIntegerField)
{
    const std::string text = "gcm-graph v1\n"
                             "name t\n"
                             "precision fp32\n"
                             "nodes 2\n"
                             "node 0 Input k=0 s=1 p=0 oc=0 g=1 act=0 "
                             "in=- shape=1,8,8,3\n"
                             "node 1 ReLU k=3x s=1 p=0 oc=0 g=1 act=0 "
                             "in=0 shape=1,8,8,3\n";
    EXPECT_THROW((void)graphFromText(text), GcmError);
}

TEST(DeserializeHardening, RejectsAbsurdNodeCount)
{
    const std::string text = "gcm-graph v1\n"
                             "name t\n"
                             "precision fp32\n"
                             "nodes 99999999999\n";
    EXPECT_THROW((void)graphFromText(text), GcmError);
}

TEST(DeserializeHardening, RejectsStaleShapeInStream)
{
    // Structurally parseable, but the ReLU claims a different shape
    // than its producer: only full verification catches this.
    const std::string text = "gcm-graph v1\n"
                             "name t\n"
                             "precision fp32\n"
                             "nodes 2\n"
                             "node 0 Input k=0 s=1 p=0 oc=0 g=1 act=0 "
                             "in=- shape=1,8,8,3\n"
                             "node 1 ReLU k=0 s=1 p=0 oc=0 g=1 act=0 "
                             "in=0 shape=1,4,4,3\n";
    EXPECT_THROW((void)graphFromText(text), GcmError);
}

TEST(DeserializeHardening, RoundTripStillWorks)
{
    const Graph g = makeCleanGraph();
    const Graph back = graphFromText(graphToText(g));
    EXPECT_EQ(back.numNodes(), g.numNodes());
    EXPECT_TRUE(verifyGraph(back).empty());
}

namespace
{

/** A two-node text with `relu_line` as node 1. */
std::string
withReluLine(const std::string &relu_line)
{
    return "gcm-graph v1\n"
           "name t\n"
           "precision fp32\n"
           "nodes 2\n"
           "node 0 Input k=0 s=1 p=0 oc=0 g=1 act=0 in=- shape=1,8,8,3\n"
           + relu_line + "\n";
}

} // namespace

TEST(DeserializeHardening, RejectsInt32OverflowInEveryField)
{
    // '%' marks the field under test.
    const char *const templates[] = {
        "node % ReLU k=0 s=1 p=0 oc=0 g=1 act=0 in=0 shape=1,8,8,3",
        "node 1 ReLU k=% s=1 p=0 oc=0 g=1 act=0 in=0 shape=1,8,8,3",
        "node 1 ReLU k=0 s=% p=0 oc=0 g=1 act=0 in=0 shape=1,8,8,3",
        "node 1 ReLU k=0 s=1 p=% oc=0 g=1 act=0 in=0 shape=1,8,8,3",
        "node 1 ReLU k=0 s=1 p=0 oc=% g=1 act=0 in=0 shape=1,8,8,3",
        "node 1 ReLU k=0 s=1 p=0 oc=0 g=% act=0 in=0 shape=1,8,8,3",
        "node 1 ReLU k=0 s=1 p=0 oc=0 g=1 act=% in=0 shape=1,8,8,3",
        "node 1 ReLU k=0 s=1 p=0 oc=0 g=1 act=0 in=% shape=1,8,8,3",
        "node 1 ReLU k=0 s=1 p=0 oc=0 g=1 act=0 in=0 shape=%,8,8,3",
        "node 1 ReLU k=0 s=1 p=0 oc=0 g=1 act=0 in=0 shape=1,%,8,3",
        "node 1 ReLU k=0 s=1 p=0 oc=0 g=1 act=0 in=0 shape=1,8,%,3",
        "node 1 ReLU k=0 s=1 p=0 oc=0 g=1 act=0 in=0 shape=1,8,8,%",
    };
    for (const char *big :
         {"2147483648", "-2147483649", "99999999999999999999"}) {
        for (const char *tmpl : templates) {
            std::string line = tmpl;
            line.replace(line.find('%'), 1, big);
            EXPECT_THROW((void)graphFromText(withReluLine(line)), GcmError)
                << line;
        }
    }
}

TEST(DeserializeHardening, RejectsEmbeddedNul)
{
    const std::string line = "node 1 ReLU k=0 s=1 p=0 oc=0 g=1 act=0 "
                             "in=0 shape=1,8,8,3";
    for (const std::string at : {"k=0", "in=0", "ReLU", "shape=1"}) {
        std::string text = withReluLine(line);
        text.insert(text.find(at, text.find("node 1")) + at.size(), 1,
                    '\0');
        EXPECT_THROW((void)graphFromText(text), GcmError) << at;
    }
}

TEST(DeserializeHardening, RejectsZeroAndNegativeNodeCounts)
{
    for (const char *count : {"0", "-1"}) {
        const std::string text =
            std::string("gcm-graph v1\nname t\nprecision fp32\nnodes ")
            + count
            + "\nnode 0 Input k=0 s=1 p=0 oc=0 g=1 act=0 in=- "
              "shape=1,8,8,3\n";
        EXPECT_THROW((void)graphFromText(text), GcmError) << count;
    }
}
