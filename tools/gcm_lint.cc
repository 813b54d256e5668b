/**
 * @file
 * gcm-lint — in-tree invariant analyzer over the repo's own sources.
 *
 *   gcm-lint src tools tests            lint trees (recursively)
 *   gcm-lint src/ml/gbt.cc              lint individual files
 *   gcm-lint --checks a,b <paths...>    run a subset of checks
 *   gcm-lint --json report.json ...     also write a gcm-lint/v2
 *                                       report ('-' for stdout)
 *   gcm-lint --quiet ...                summary line only
 *   gcm-lint --list-checks              show the registered checks
 *
 * Directories named lint_fixtures (deliberately-bad test inputs) and
 * build trees are skipped during traversal. Exit status: 0 when no
 * error-severity finding survived suppression, 1 when at least one
 * did, 2 on usage or I/O errors — so `gcm-lint --json - src tools`
 * is directly scriptable as a CI gate.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "lint/check.hh"
#include "util/error.hh"

namespace
{

void
usage()
{
    std::fprintf(stderr,
                 "usage: gcm-lint [--checks a,b] [--json <file|->]\n"
                 "                [--quiet] [--list-checks] "
                 "<path>...\n");
}

std::vector<std::string>
splitList(const std::string &csv)
{
    std::vector<std::string> out;
    std::string cur;
    for (char ch : csv) {
        if (ch == ',') {
            if (!cur.empty())
                out.push_back(cur);
            cur.clear();
        } else {
            cur += ch;
        }
    }
    if (!cur.empty())
        out.push_back(cur);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace gcm;

    std::vector<std::string> paths;
    std::vector<std::string> checks;
    std::string json_out;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--list-checks") {
            for (const auto &c :
                 lint::CheckRegistry::instance().checks()) {
                std::printf("%-18s %s\n", c.id.c_str(),
                            c.description.c_str());
            }
            return 0;
        }
        if (arg == "--checks") {
            if (++i >= argc) {
                usage();
                return 2;
            }
            checks = splitList(argv[i]);
        } else if (arg == "--json") {
            if (++i >= argc) {
                usage();
                return 2;
            }
            json_out = argv[i];
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg.rfind("--", 0) == 0) {
            std::fprintf(stderr, "gcm-lint: unknown flag '%s'\n",
                         arg.c_str());
            usage();
            return 2;
        } else {
            paths.push_back(arg);
        }
    }
    if (paths.empty()) {
        usage();
        return 2;
    }

    try {
        const lint::LintReport report = lint::lintPaths(paths, checks);
        if (!json_out.empty()) {
            const std::string doc = report.json();
            if (json_out == "-") {
                std::printf("%s\n", doc.c_str());
            } else {
                std::ofstream os(json_out, std::ios::binary);
                if (!os)
                    fatal("cannot write ", json_out);
                os << doc << "\n";
            }
        }
        if (quiet) {
            std::printf(
                "gcm-lint: %zu file(s), %zu error(s), %zu "
                "warning(s), %zu suppressed\n",
                report.filesScanned(),
                report.count(lint::Severity::Error),
                report.count(lint::Severity::Warning),
                report.suppressedCount());
        } else {
            std::printf("%s", report.str().c_str());
        }
        return report.hasErrors() ? 1 : 0;
    } catch (const GcmError &e) {
        std::fprintf(stderr, "gcm-lint: %s\n", e.what());
        return 2;
    }
}
