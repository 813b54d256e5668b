/**
 * @file
 * The perfbench binary:
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--git-rev REV] [--src-digest HEX]
 *
 * Prints a facts line (rev, cores, pool sizes, build, samples) and, as
 * the last line, {"correct", "attempted", "failed", "metrics"}: the
 * end-to-end metrics, or with --trace 1 the per-layer ones. Exits 1
 * when an output check fails. Normally run through perfbench/run.py,
 * which builds this binary first.
 */

#include <cstdio>
#include <exception>
#include <string>

#include "bench.hh"
#include "obs/obs.hh"

namespace
{

using namespace perfbench;

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "train-paper|serve-hot|serve-cold|serve-unseen --seed N "
                 "--seconds S --trace 0|1 [--git-rev REV] "
                 "[--src-digest HEX]\n",
                 msg);
    return 2;
}

bool
parseArgs(int argc, char **argv, Options &opts)
{
    bool have_workload = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        try {
            if (key == "--workload") {
                have_workload = parseWorkload(val, opts.workload);
                if (!have_workload)
                    return false;
            } else if (key == "--seed") {
                opts.seed = std::stoull(val);
            } else if (key == "--seconds") {
                opts.seconds = std::stod(val);
            } else if (key == "--trace") {
                opts.trace = val == "1";
            } else if (key == "--git-rev") {
                opts.git_rev = val;
            } else if (key == "--src-digest") {
                opts.src_digest = val;
            } else {
                return false;
            }
        } catch (const std::exception &) {
            return false;
        }
    }
    return argc % 2 == 1 && have_workload && opts.seconds > 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    if (!parseArgs(argc, argv, opts))
        return usage("bad arguments");
    // Tracing is decided by --trace alone, whatever GCM_OBS says.
    gcm::obs::setEnabled(opts.trace);

    Report report;
    try {
        if (opts.workload == Workload::TrainPaper)
            runTrainPaper(opts, report);
        else
            runServe(opts, report);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n",
                     workloadName(opts.workload), e.what());
        return 1;
    }

    // Rows of layers the workload does not exercise read 0.
    for (const MetricSpec &m : layerMetrics()) {
        if (report.layers().count(m.name) == 0)
            report.layer(m.name, 0.0, m.unit);
    }
    report.check(report.layers().size() == layerMetrics().size(),
                 "the per-layer table has exactly the listed rows");
    for (const MetricSpec &m : endToEndMetrics())
        report.check(report.hasEndToEnd(m.name),
                     std::string("end-to-end metric ") + m.name
                         + " was measured");

    std::printf("%s\n%s\n", report.factsLine(opts).c_str(),
                report.resultLine(opts.trace).c_str());
    std::fflush(stdout);
    return report.correct() ? 0 : 1;
}
