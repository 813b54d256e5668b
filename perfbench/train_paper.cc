/**
 * @file
 * train-paper: the paper's Section IV-A recipe on the 118 x 105 suite.
 * The seed draws a 70/30 device split; MIS selects a size-10 signature
 * on the training devices and default GBT fits on them. The timed
 * phase predicts every non-signature network on every held-out device
 * through the loaded (compiled) model, in batches of kBatch.
 */

#include <algorithm>
#include <cmath>
#include <sstream>

#include "bench.hh"
#include "core/experiment_context.hh"
#include "ml/metrics.hh"
#include "serve/registry.hh"
#include "util/parallel.hh"
#include "util/rng.hh"

namespace perfbench
{

namespace
{

using gcm::core::ExperimentContext;

/** R^2 floor on the held-out devices (EXPERIMENTS.md MIS: 0.977). */
constexpr double kHoldoutR2Floor = 0.96;
/** Hold-out predictions compared bit for bit with the reference. */
constexpr std::size_t kReferenceSample = 64;

struct HoldoutQuery
{
    std::size_t net = 0;
    std::size_t device = 0;
    std::vector<double> signature;
};

std::vector<HoldoutQuery>
holdoutQueries(const ExperimentContext &ctx,
               const std::vector<std::size_t> &test_devices,
               const std::vector<std::size_t> &signature)
{
    std::vector<bool> is_sig(ctx.numNetworks(), false);
    for (std::size_t s : signature)
        is_sig[s] = true;
    std::vector<HoldoutQuery> out;
    for (std::size_t d : test_devices) {
        std::vector<double> sig;
        for (std::size_t s : signature)
            sig.push_back(ctx.latencyMs(d, s));
        for (std::size_t n = 0; n < ctx.numNetworks(); ++n) {
            if (!is_sig[n])
                out.push_back({n, d, sig});
        }
    }
    return out;
}

/** What one setup builds for the timed phase. */
struct PaperSetup
{
    std::unique_ptr<ExperimentContext> ctx;
    std::vector<HoldoutQuery> queries;
    std::unique_ptr<gcm::serve::ModelSnapshot> snapshot;
};

PaperSetup
setUp(const Options &opts, const Fit &fit, SetupTimes &times)
{
    gcm::setThreads(hostCores());
    PaperSetup s;
    const auto t0 = Clock::now();
    s.ctx = std::make_unique<ExperimentContext>(ExperimentContext::build());
    const auto t1 = Clock::now();
    const auto split = paperSplit(opts.seed, s.ctx->fleet().size());
    s.queries = holdoutQueries(*s.ctx, split.test, fit.model->signature());
    const auto t2 = Clock::now();
    std::istringstream is(fit.bytes);
    s.snapshot = std::make_unique<gcm::serve::ModelSnapshot>(
        gcm::serve::ModelSnapshot::fromStream(is));
    times.add(t0, t1, t2, Clock::now());
    return s;
}

} // namespace

void
runTrainPaper(const Options &opts, Report &report)
{
    gcm::setThreads(hostCores());
    const auto fit_ctx = ExperimentContext::build();
    const auto latencies = fit_ctx.latencyMatrix(
        paperSplit(opts.seed, fit_ctx.fleet().size()).train);
    const Fit fit = fitSingle(fit_ctx.suite(), latencies, report);

    // Setup, repeated (median reported): context, hold-out inputs,
    // model load. The last setup's objects serve the timed phase.
    SetupTimes times;
    PaperSetup setup;
    for (std::size_t rep = 0; rep < kSetupReps; ++rep)
        setup = setUp(opts, fit, times);
    const ExperimentContext &ctx = *setup.ctx;
    const std::vector<HoldoutQuery> &queries = setup.queries;

    // Timed phase: hold-out predictions, cycling over the hold-out set.
    gcm::setThreads(1);
    const gcm::core::SignatureCostModel &served =
        setup.snapshot->costModel();
    const std::size_t n = queries.size();
    std::vector<double> first(n, 0.0);
    std::uint64_t bad = 0;
    // One input cycle is one pass over the hold-out set; its last
    // batch may be short.
    const std::size_t cycle = (n + kBatch - 1) / kBatch;
    const auto batch = [&](std::size_t b) {
        const gcm::obs::TraceSpan span("holdout.predict");
        const std::size_t lo = (b % cycle) * kBatch;
        const std::size_t hi = std::min(lo + kBatch, n);
        for (std::size_t k = lo; k < hi; ++k) {
            const HoldoutQuery &q = queries[k];
            const double ms =
                served.predictMs(ctx.suite()[q.net], q.signature);
            bad += std::isfinite(ms) && ms > 0.0 ? 0 : 1;
            if (b < cycle)
                first[k] = ms;
        }
        return hi - lo;
    };
    // The timed phase, in slices spread over the rest of the run.
    gcm::obs::setEnabled(false);
    LoopStats st;
    const auto slice = [&](std::size_t setups) {
        for (std::size_t rep = 0; rep < setups; ++rep)
            setUp(opts, fit, times);
        gcm::setThreads(1);
        st.append(timedLoop(cycle, opts.seconds / kLoopSlices, batch));
    };
    slice(0);

    // Checks: accuracy floor and bit-identity with the reference
    // (1-thread, never-compiled) model on a seeded sample.
    std::vector<double> truth(n);
    for (std::size_t k = 0; k < n; ++k)
        truth[k] = ctx.latencyMs(queries[k].device, queries[k].net);
    const double r2 = gcm::ml::r2Score(truth, first);
    report.endToEnd("r2", r2, "ratio");
    report.check(r2 >= kHoldoutR2Floor,
                 "hold-out R^2 " + std::to_string(r2) + " >= "
                     + std::to_string(kHoldoutR2Floor));
    gcm::Rng rng = gcm::Rng(opts.seed).fork(9);
    std::size_t mismatched = 0;
    for (std::size_t k : rng.sampleWithoutReplacement(n, kReferenceSample)) {
        const HoldoutQuery &q = queries[k];
        if (fit.model->predictMs(ctx.suite()[q.net], q.signature)
            != first[k])
            ++mismatched;
    }
    report.check(mismatched == 0,
                 std::to_string(mismatched)
                     + " sampled hold-out predictions differ from the "
                       "reference model");
    report.fact("holdout_queries", static_cast<double>(n));

    slice(kSetupRepsPerLaterSlice);

    reportPeakRss(report);
    gcm::obs::setEnabled(opts.trace); // pool.* counters
    fitMulti(fit_ctx.suite(), latencies, fit, report);
    gcm::obs::setEnabled(false);
    slice(kSetupRepsPerLaterSlice);
    times.report(report);
    reportLoop(report, st);
    report.attempted(st.ops);

    if (opts.trace) {
        gcm::obs::reset();
        gcm::obs::setEnabled(true);
        const LoopStats traced = timedLoop(cycle, opts.seconds, batch);
        reportLoopTrace(report, st, traced);
        report.attempted(traced.ops);
    }
    report.failedOps(bad, "hold-out predictions not finite and positive");
}

} // namespace perfbench
