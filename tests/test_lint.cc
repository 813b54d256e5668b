/**
 * @file
 * Tests for the gcm-lint source analyzer: lexer behaviour, each of
 * the six built-in checks against a seeded-violation fixture under
 * tests/lint_fixtures/ (including suppression-comment and
 * allowlisted false-positive cases), registry semantics and the
 * gcm-lint/v2 JSON report. The live-tree zero-findings gate is a
 * separate ctest entry (lint_tree) that runs the gcm-lint binary
 * over src/, tools/ and tests/.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint/check.hh"
#include "lint/lexer.hh"
#include "util/error.hh"
#include "util/json.hh"

using namespace gcm;
using lint::CheckRegistry;
using lint::Finding;
using lint::LintReport;
using lint::Severity;
using lint::SourceFile;
using lint::TokKind;

namespace
{

std::string
fixturePath(const std::string &name)
{
    return std::string(GCM_LINT_FIXTURE_DIR) + "/" + name;
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.good()) << "cannot open " << path;
    std::ostringstream oss;
    oss << is.rdbuf();
    return oss.str();
}

/** Run every registered check over one already-lexed file. */
LintReport
runAll(const SourceFile &file)
{
    LintReport report;
    report.addScannedFile();
    CheckRegistry::instance().run(file, report);
    report.sort();
    return report;
}

LintReport
runOnFixture(const std::string &name)
{
    return runAll(lint::lexFile(fixturePath(name)));
}

/** (check, line) pairs at the given severity. */
std::set<std::pair<std::string, int>>
findingsAt(const LintReport &report, Severity severity)
{
    std::set<std::pair<std::string, int>> out;
    for (const Finding &f : report.findings()) {
        if (f.severity == severity)
            out.insert({f.check, f.line});
    }
    return out;
}

} // namespace

// ---------------------------------------------------------------- lexer

TEST(LintLexer, SkipsCommentsAndStringContents)
{
    const SourceFile f = lint::lexString("x.cc",
                                         "int a; // std::rand()\n"
                                         "/* time(nullptr) */\n"
                                         "const char *s = \"srand(1)\";\n");
    for (const auto &t : f.tokens) {
        EXPECT_NE(t.text, "rand");
        EXPECT_NE(t.text, "time");
        EXPECT_NE(t.text, "srand");
    }
    // The string literal itself is one (content-free) token.
    const auto strings =
        std::count_if(f.tokens.begin(), f.tokens.end(), [](const auto &t) {
            return t.kind == TokKind::String;
        });
    EXPECT_EQ(strings, 1);
}

TEST(LintLexer, TracksLineNumbers)
{
    const SourceFile f =
        lint::lexString("x.cc", "int a;\n\n\ndouble b;\n");
    ASSERT_GE(f.tokens.size(), 6u);
    EXPECT_EQ(f.tokens[0].text, "int");
    EXPECT_EQ(f.tokens[0].line, 1);
    EXPECT_EQ(f.tokens[3].text, "double");
    EXPECT_EQ(f.tokens[3].line, 4);
    EXPECT_EQ(f.lines, 5); // trailing newline opens line 5
}

TEST(LintLexer, RawStringsAreOpaque)
{
    const SourceFile f = lint::lexString(
        "x.cc", "auto s = R\"(srand(42) \" quotes)\"; int z;\n");
    bool saw_z = false;
    for (const auto &t : f.tokens) {
        EXPECT_NE(t.text, "srand");
        saw_z = saw_z || t.isIdent("z");
    }
    EXPECT_TRUE(saw_z); // lexing resynchronized after the raw string
}

TEST(LintLexer, PreprocessorLogicalLines)
{
    const SourceFile f = lint::lexString("x.hh",
                                         "#ifndef GUARD_HH\n"
                                         "#define GUARD_HH\n"
                                         "#define TWO_LINES \\\n"
                                         "    1\n"
                                         "#endif\n");
    std::vector<std::string> pp;
    for (const auto &t : f.tokens) {
        if (t.kind == TokKind::Preprocessor)
            pp.push_back(t.text);
    }
    ASSERT_EQ(pp.size(), 4u);
    EXPECT_EQ(pp[0], "#ifndef GUARD_HH");
    EXPECT_EQ(pp[1], "#define GUARD_HH");
    EXPECT_EQ(pp[2], "#define TWO_LINES 1");
    EXPECT_EQ(pp[3], "#endif");
}

TEST(LintLexer, SuppressionDirectives)
{
    const SourceFile f = lint::lexString(
        "x.cc",
        "int a; // gcm-lint: allow(determinism)\n"
        "int b;\n"
        "int c;\n"
        "// gcm-lint: allow(unordered-iter, parallel-capture)\n"
        "int d;\n");
    EXPECT_TRUE(f.suppressed(1, "determinism"));
    EXPECT_TRUE(f.suppressed(2, "determinism")); // next line covered
    EXPECT_FALSE(f.suppressed(3, "determinism"));
    EXPECT_FALSE(f.suppressed(1, "unordered-iter"));
    EXPECT_TRUE(f.suppressed(5, "unordered-iter"));
    EXPECT_TRUE(f.suppressed(5, "parallel-capture"));
    EXPECT_FALSE(f.suppressed(5, "determinism"));
}

// ------------------------------------------------------------ registry

TEST(LintRegistry, BuiltinChecksRegistered)
{
    const auto &reg = CheckRegistry::instance();
    for (const char *id :
         {"determinism", "unordered-iter", "parallel-capture",
          "throw-discipline", "obs-hot-loop", "header-hygiene"}) {
        EXPECT_NE(reg.find(id), nullptr) << id;
    }
    EXPECT_EQ(reg.find("no-such-check"), nullptr);
    EXPECT_GE(reg.checks().size(), 6u);
}

TEST(LintRegistry, DuplicateRegistrationThrows)
{
    EXPECT_THROW(CheckRegistry::instance().registerCheck(
                     "determinism", "dup",
                     [](const SourceFile &, LintReport &) {}),
                 GcmError);
}

TEST(LintRegistry, UnknownCheckNameThrows)
{
    const SourceFile f = lint::lexString("x.cc", "int a;\n");
    LintReport r;
    EXPECT_THROW(CheckRegistry::instance().run(f, r, {"bogus"}),
                 GcmError);
}

TEST(LintRegistry, SubsetRunOnlyRunsNamedChecks)
{
    const SourceFile f = lint::lexString(
        "x.cc", "void f() { srand(42); throw 7; }\n");
    LintReport only_throw;
    CheckRegistry::instance().run(f, only_throw, {"throw-discipline"});
    ASSERT_EQ(only_throw.findings().size(), 1u);
    EXPECT_EQ(only_throw.findings()[0].check, "throw-discipline");
}

// ----------------------------------------------------------- determinism

TEST(LintChecks, DeterminismFixture)
{
    const LintReport r = runOnFixture("determinism_bad.cc");
    const auto errors = findingsAt(r, Severity::Error);
    const std::set<std::pair<std::string, int>> expected = {
        {"determinism", 12}, // random_device
        {"determinism", 13}, // mt19937
        {"determinism", 14}, // mt19937_64
        {"determinism", 15}, // srand
        {"determinism", 16}, // rand
        {"determinism", 17}, // time
        {"determinism", 18}, // system_clock
    };
    EXPECT_EQ(errors, expected);
    // The mt19937 on the allow(determinism) line was counted, not
    // reported.
    EXPECT_EQ(r.suppressedCount(), 1u);
}

TEST(LintChecks, DeterminismAllowsRngHome)
{
    const std::string code = "void f() { std::mt19937 g(1); }\n";
    const LintReport outside =
        runAll(lint::lexString("src/core/foo.cc", code));
    EXPECT_TRUE(outside.hasErrors());
    const LintReport inside =
        runAll(lint::lexString("src/util/rng.cc", code));
    EXPECT_FALSE(inside.hasErrors());
}

// -------------------------------------------------------- unordered-iter

TEST(LintChecks, UnorderedIterFixture)
{
    const LintReport r = runOnFixture("unordered_iter_bad.cc");
    const auto errors = findingsAt(r, Severity::Error);
    const std::set<std::pair<std::string, int>> expected = {
        {"unordered-iter", 17}, // map feeding csv
        {"unordered-iter", 19}, // set aggregation
    };
    EXPECT_EQ(errors, expected);
    EXPECT_EQ(r.suppressedCount(), 1u); // reviewedAndAllowed()
}

TEST(LintChecks, UnorderedIterIntoJsonWriterIsFlagged)
{
    // The file names no stream, CSV or JSON header; its json::Writer
    // alone must mark it as writing output.
    const LintReport r = runOnFixture("unordered_iter_writer.cc");
    const auto errors = findingsAt(r, Severity::Error);
    const std::set<std::pair<std::string, int>> expected = {
        {"unordered-iter", 17},
    };
    EXPECT_EQ(errors, expected);
}

TEST(LintChecks, UnorderedIterQuietFileIsNoteOnly)
{
    const LintReport r = runOnFixture("unordered_iter_quiet.cc");
    EXPECT_FALSE(r.hasErrors());
    const auto notes = findingsAt(r, Severity::Note);
    const std::set<std::pair<std::string, int>> expected = {
        {"unordered-iter", 11},
    };
    EXPECT_EQ(notes, expected);
}

// ------------------------------------------------------ parallel-capture

TEST(LintChecks, ParallelCaptureFixture)
{
    const LintReport r = runOnFixture("parallel_capture_bad.cc");
    const auto errors = findingsAt(r, Severity::Error);
    const std::set<std::pair<std::string, int>> expected = {
        {"parallel-capture", 17}, // sum +=
        {"parallel-capture", 18}, // order.push_back
        {"parallel-capture", 26}, // lock_guard
    };
    EXPECT_EQ(errors, expected);
    EXPECT_EQ(r.suppressedCount(), 1u); // checksum += (allowed)
}

TEST(LintChecks, RawThreadSpawnFixture)
{
    // The fixture lives under tests/, which the check exempts — lex
    // its content under a src/ path to arm it.
    const std::string code =
        readFile(fixturePath("parallel_capture_thread.cc"));
    const LintReport r =
        runAll(lint::lexString("src/ml/thread_bad.cc", code));
    const auto errors = findingsAt(r, Severity::Error);
    const std::set<std::pair<std::string, int>> expected = {
        {"parallel-capture", 13}, // std::thread worker(...)
        {"parallel-capture", 20}, // std::thread t;
        {"parallel-capture", 21}, // t = std::thread(...)
    };
    EXPECT_EQ(errors, expected);
    // hardware_concurrency() (line 29) must not flag; the detached
    // spawn (line 36) is suppressed via allow(parallel-capture).
    EXPECT_EQ(r.suppressedCount(), 1u);
}

TEST(LintChecks, RawThreadSpawnAllowedPaths)
{
    const std::string code = "#include <thread>\n"
                             "void f() { std::thread t([] {}); "
                             "t.join(); }\n";
    // The thread-pool implementation and the serving front end are
    // the two sanctioned spawn sites; tests/ is exempt wholesale.
    for (const char *path : {"src/util/parallel.cc",
                             "src/serve/frontend.cc",
                             "tests/test_parallel.cc"}) {
        const LintReport r = runAll(lint::lexString(path, code));
        EXPECT_TRUE(findingsAt(r, Severity::Error).empty())
            << "unexpected finding in " << path;
    }
    // The same code anywhere else flags.
    const LintReport r =
        runAll(lint::lexString("src/serve/service.cc", code));
    EXPECT_EQ(findingsAt(r, Severity::Error).size(), 1u);
}

// ------------------------------------------------------ throw-discipline

TEST(LintChecks, ThrowDisciplineFixture)
{
    // The fixture lives under tests/, which the check exempts — lex
    // its content under a src/ path to arm it.
    const std::string code =
        readFile(fixturePath("throw_bad.cc"));
    const LintReport r =
        runAll(lint::lexString("src/core/throw_bad.cc", code));
    const auto errors = findingsAt(r, Severity::Error);
    const std::set<std::pair<std::string, int>> expected = {
        {"throw-discipline", 12}, // std::runtime_error
        {"throw-discipline", 14}, // throw 42
        {"throw-discipline", 16}, // throw "text"
    };
    EXPECT_EQ(errors, expected);
    EXPECT_EQ(r.suppressedCount(), 1u); // bad_alloc (allowed)
}

TEST(LintChecks, ThrowDisciplineExemptsTests)
{
    const LintReport r = runOnFixture("throw_bad.cc");
    for (const Finding &f : r.findings())
        EXPECT_NE(f.check, "throw-discipline") << f.str();
}

// ---------------------------------------------------------- obs-hot-loop

TEST(LintChecks, ObsHotLoopFixture)
{
    const std::string code =
        readFile(fixturePath("obs_hot_loop_bad.cc"));
    const LintReport r =
        runAll(lint::lexString("src/ml/obs_hot_loop_bad.cc", code));
    const auto errors = findingsAt(r, Severity::Error);
    const std::set<std::pair<std::string, int>> expected = {
        {"obs-hot-loop", 13}, // counterAdd
        {"obs-hot-loop", 14}, // histogramObserve
        {"obs-hot-loop", 24}, // TraceSpan
    };
    EXPECT_EQ(errors, expected);
    EXPECT_EQ(r.suppressedCount(), 1u); // suppressedCall()
}

TEST(LintChecks, ObsHotLoopFlatEnsembleShape)
{
    // The compiled-walk shape of src/ml/flat_ensemble.cc: a guarded
    // batch counter outside the loops is sanctioned, the innermost
    // node-walk `while` is hot, and the row `for` wrapping it is not
    // innermost, so its per-row counter stays legal unguarded.
    const std::string code =
        readFile(fixturePath("obs_hot_loop_flat.cc"));
    const LintReport r =
        runAll(lint::lexString("src/ml/flat_ensemble.cc", code));
    std::set<std::pair<std::string, int>> hotLoopErrors;
    for (const auto &f : findingsAt(r, Severity::Error)) {
        if (f.first == "obs-hot-loop")
            hotLoopErrors.insert(f);
    }
    const std::set<std::pair<std::string, int>> expected = {
        {"obs-hot-loop", 22}, // counterAdd in the traversal while
    };
    EXPECT_EQ(hotLoopErrors, expected);
}

TEST(LintChecks, ObsHotLoopOnlyAppliesToInstrumentedHotDirs)
{
    const std::string code =
        readFile(fixturePath("obs_hot_loop_bad.cc"));
    const LintReport r = runAll(
        lint::lexString("src/serve/obs_hot_loop_bad.cc", code));
    for (const Finding &f : r.findings())
        EXPECT_NE(f.check, "obs-hot-loop") << f.str();

    // src/search and src/fleet are instrumented hot-path code too:
    // the same fixture under those paths must trip the check (the
    // lint_tree-clean guarantee for the real tree is enforced by
    // tools/check.sh).
    for (const char *path : {"src/search/obs_hot_loop_bad.cc",
                             "src/fleet/obs_hot_loop_bad.cc"}) {
        const LintReport rs = runAll(lint::lexString(path, code));
        bool found = false;
        for (const Finding &f : rs.findings())
            found = found || f.check == "obs-hot-loop";
        EXPECT_TRUE(found) << path;
    }
}

TEST(LintChecks, ObsHotLoopFleetControllerShape)
{
    // The src/fleet controller shape: round counters at function
    // top-level and an amortized per-device counter are legal; only
    // the innermost per-record merge counter trips the check.
    const std::string code =
        readFile(fixturePath("obs_hot_loop_fleet.cc"));
    const LintReport r = runAll(
        lint::lexString("src/fleet/obs_hot_loop_fleet.cc", code));
    std::set<std::pair<std::string, int>> hotLoopErrors;
    for (const auto &f : findingsAt(r, Severity::Error)) {
        if (f.first == "obs-hot-loop")
            hotLoopErrors.insert(f);
    }
    const std::set<std::pair<std::string, int>> expected = {
        {"obs-hot-loop", 18}, // counterAdd in the merge sweep
    };
    EXPECT_EQ(hotLoopErrors, expected);
}

// -------------------------------------------------------- header-hygiene

TEST(LintChecks, HeaderHygieneFixture)
{
    const LintReport r = runOnFixture("header_bad.hh");
    const auto errors = findingsAt(r, Severity::Error);
    const std::set<std::pair<std::string, int>> expected = {
        {"header-hygiene", 1}, // missing guard
        {"header-hygiene", 5}, // using namespace
    };
    EXPECT_EQ(errors, expected);
}

TEST(LintChecks, WellFormedHeaderIsClean)
{
    const LintReport r = runOnFixture("header_ok.hh");
    EXPECT_TRUE(r.empty()) << r.str();
}

TEST(LintChecks, PragmaOnceCountsAsGuard)
{
    const LintReport r = runAll(lint::lexString(
        "x.hh", "#pragma once\ninline int f() { return 1; }\n"));
    EXPECT_TRUE(r.empty()) << r.str();
}

TEST(LintChecks, SourceFilesNeedNoGuard)
{
    const LintReport r = runAll(
        lint::lexString("x.cc", "int f() { return 1; }\n"));
    EXPECT_TRUE(r.empty()) << r.str();
}

// ------------------------------------------------------- report formats

TEST(LintReport, JsonRoundTripsThroughParser)
{
    const LintReport r = runOnFixture("determinism_bad.cc");
    const json::Value doc = json::parseJson(r.json());
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.at("schema").str, "gcm-lint/v2");
    EXPECT_EQ(doc.at("files_scanned").number, 1.0);
    const json::Value &counts = doc.at("counts");
    EXPECT_EQ(counts.at("error").number,
              static_cast<double>(r.count(Severity::Error)));
    EXPECT_EQ(counts.at("suppressed").number, 1.0);
    const json::Value &findings = doc.at("findings");
    ASSERT_TRUE(findings.isArray());
    ASSERT_EQ(findings.array.size(), r.findings().size());
    const json::Value &first = findings.array[0];
    EXPECT_EQ(first.at("check").str, "determinism");
    EXPECT_EQ(first.at("severity").str, "error");
    EXPECT_GT(first.at("line").number, 0.0);
    EXPECT_FALSE(first.at("hint").str.empty());
}

TEST(LintReport, TextRenderingCarriesFileLineAndHint)
{
    const LintReport r = runOnFixture("header_bad.hh");
    const std::string text = r.str();
    EXPECT_NE(text.find("header_bad.hh:1: error [header-hygiene]"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("hint:"), std::string::npos);
    EXPECT_NE(text.find("1 file(s)"), std::string::npos);
}

TEST(LintReport, SortOrdersByFileLineCheck)
{
    LintReport r;
    const SourceFile fb = lint::lexString("b.cc", "int x;\n");
    const SourceFile fa = lint::lexString("a.cc", "int x;\n");
    r.add(fb, 10, "z", Severity::Error, "m", "");
    r.add(fa, 20, "z", Severity::Error, "m", "");
    r.add(fa, 5, "z", Severity::Error, "m", "");
    r.sort();
    ASSERT_EQ(r.findings().size(), 3u);
    EXPECT_EQ(r.findings()[0].file, "a.cc");
    EXPECT_EQ(r.findings()[0].line, 5);
    EXPECT_EQ(r.findings()[1].file, "a.cc");
    EXPECT_EQ(r.findings()[1].line, 20);
    EXPECT_EQ(r.findings()[2].file, "b.cc");
}

// ----------------------------------------------------------- collection

TEST(LintCollect, SkipsFixtureAndBuildDirectories)
{
    // Walking tests/ must skip lint_fixtures/ (deliberately bad), so
    // none of the reports may mention a fixture file.
    const std::string tests_dir = std::filesystem::path(
        GCM_LINT_FIXTURE_DIR).parent_path().string();
    const auto files = lint::collectSources({tests_dir});
    EXPECT_FALSE(files.empty());
    for (const auto &f : files)
        EXPECT_EQ(f.find("lint_fixtures"), std::string::npos) << f;
}

TEST(LintCollect, MissingPathThrows)
{
    EXPECT_THROW(lint::collectSources({"/no/such/path/anywhere"}),
                 GcmError);
}

TEST(LintCollect, LiveFixtureDirHasSeededViolations)
{
    // Explicitly pointing the analyzer *at* the fixture dir (as a
    // path argument, not via traversal) must light it up — the gate
    // in tools/check.sh depends on non-empty fixtures staying hot.
    const LintReport r = lint::lintPaths({fixturePath(".")});
    EXPECT_TRUE(r.hasErrors());
    EXPECT_GE(r.filesScanned(), 6u);
}
