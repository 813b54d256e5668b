/**
 * @file
 * perfbench: the end-to-end benchmark of the gcm library.
 *
 * One process runs one named workload from a seed. Every workload
 * goes through the same phases, only through the library's public
 * functions:
 *
 *   fit    build the ExperimentContext and fit the workload's
 *          SignatureCostModel at 1 thread (train_s).
 *   setup  context build, input generation, model load, at the
 *          host's core count; repeated before each slice of the loop,
 *          median reported as setup_s.
 *   loop   the timed phase, at 1 thread, for --seconds in total, in
 *          kLoopSlices slices of whole input cycles: batches of
 *          operations (hold-out predictions on train-paper,
 *          gcm-serve/v1 requests on the serve workloads).
 *   check  outputs against the reference model, bit for bit;
 *          peak_rss_mb is read before fit_mt.
 *   fit_mt the same fit at the host's core count (train_mt_s), which
 *          must serialize to the 1-thread model's bytes.
 *
 * The order is fit, setup x4, loop, check, setup x3, loop, fit_mt,
 * setup x3, loop. With --trace 1 the obs layer is switched on, a traced loop of
 * --seconds follows, and the span trees of the 1-thread fit and the
 * traced loop are folded into the fixed per-layer table.
 * perfbench/README.md lists every metric and what it should move.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/cost_model.hh"
#include "core/evaluation.hh"
#include "dnn/graph.hh"
#include "obs/obs.hh"
#include "serve/service.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since `t0`. */
double secondsSince(Clock::time_point t0);

/**
 * Operations per timed batch on train-paper, serve-hot and serve-cold
 * (hold-out queries or serve requests). A serve-unseen batch is one
 * search generation instead (inputs.cc).
 */
inline constexpr std::size_t kBatch = 32;

/**
 * Setups before the first slice of the timed phase, and before each
 * later slice; setup_s is the median of all ten, so it spans the run
 * rather than one stretch of a noisy host.
 */
inline constexpr std::size_t kSetupReps = 4;
inline constexpr std::size_t kSetupRepsPerLaterSlice = 3;

enum class Workload
{
    TrainPaper,
    ServeHot,
    ServeCold,
    ServeUnseen,
};

/** Parse a workload name ("train-paper", "serve-hot", ...). */
bool parseWorkload(const std::string &name, Workload &out);

const char *workloadName(Workload w);

/** A metric's name and unit. */
struct MetricSpec
{
    const char *name;
    const char *unit;
};

/**
 * Every metric each workload prints, in BENCHMARK.json's order
 * (perfbench_tests.cc keeps the two in step).
 */
const std::vector<MetricSpec> &endToEndMetrics();
const std::vector<MetricSpec> &layerMetrics();

/** Command-line options of one run. */
struct Options
{
    Workload workload = Workload::TrainPaper;
    std::uint64_t seed = 0;
    double seconds = 1.0;
    bool trace = false;
    /** Source identity passed in by run.py (the checkout may lack git). */
    std::string git_rev = "unknown";
    std::string src_digest = "unknown";
};

/** CPUs this process may run on (what `nproc` prints). */
std::size_t hostCores();

/**
 * What one run reports: metrics, operation counts, output checks and
 * the facts needed to compare runs (rev, cores, pool sizes, build).
 */
class Report
{
  public:
    /** An end-to-end metric (printed with --trace 0). */
    void endToEnd(const std::string &name, double value, const char *unit);

    /** A per-layer metric (printed with --trace 1). */
    void layer(const std::string &name, double value, const char *unit);

    /** A run fact for the facts line. */
    void fact(const std::string &name, double value);
    void factText(const std::string &name, const std::string &value);

    /** Count `n` attempted operations. */
    void attempted(std::uint64_t n) { attempted_ += n; }

    /**
     * Record an output check. A failed check counts as one failed
     * operation and makes the run incorrect; its message goes to
     * stderr.
     */
    void check(bool ok, const std::string &what);

    /** Count `n` operations that failed (e.g. error responses). */
    void failedOps(std::uint64_t n, const std::string &what);

    bool correct() const { return failed_ == 0 && checks_failed_ == 0; }

    /** The facts line printed before the result. */
    std::string factsLine(const Options &opts) const;

    /**
     * The result line: {"correct", "attempted", "failed", "metrics"};
     * metrics are the end-to-end ones, or the per-layer ones when
     * `layers` is set.
     */
    std::string resultLine(bool layers) const;

    bool hasEndToEnd(const std::string &name) const
    {
        return e2e_.count(name) > 0;
    }

    const std::map<std::string, std::pair<double, std::string>> &
    layers() const
    {
        return layers_;
    }

  private:
    std::map<std::string, std::pair<double, std::string>> e2e_;
    std::map<std::string, std::pair<double, std::string>> layers_;
    std::map<std::string, std::string> facts_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::uint64_t checks_run_ = 0;
    std::uint64_t checks_failed_ = 0;
};

// ---------------------------------------------------------------- inputs

/** The paper's 70/30 device split, drawn from the run seed. */
gcm::core::DeviceSplit paperSplit(std::uint64_t seed,
                                  std::size_t num_devices);

/** One serve request before rendering. */
struct Query
{
    /** Zoo network name; empty when `graph` is set. */
    std::string network;
    /** Index into ServeInputs::graphs (inline text); -1 for zoo. */
    int graph = -1;
    /**
     * Fleet device name. Sent as `device` unless `signature` is set;
     * then it names the device whose signature was jittered (the
     * ground truth for r2) and is not sent.
     */
    std::string device;
    std::vector<double> signature;
};

/** The generated request stream of one serve workload. */
struct ServeInputs
{
    /** Unseen fp32 networks sent inline (serve-unseen only). */
    std::vector<gcm::dnn::Graph> graphs;
    std::vector<std::string> texts;
    std::vector<Query> queries;
    /** gcm-serve/v1 request lines, index-aligned with queries. */
    std::vector<std::string> lines;
    /** Lines per processBatch call; lines.size() is a multiple. */
    std::size_t batch = kBatch;
    /**
     * Whether each pass over the lines starts with an empty cache
     * (serve-unseen: every pass is a new search).
     */
    bool new_search_per_cycle = false;
};

/**
 * Generate a serve workload's requests. Pure: the same (workload,
 * seed, table) always gives byte-identical lines.
 */
ServeInputs makeServeInputs(
    Workload w, std::uint64_t seed,
    const gcm::serve::PredictionService::DeviceTable &table);

/** Render one query as a gcm-serve/v1 request line. */
std::string renderRequestLine(const Query &q, const ServeInputs &in,
                              std::size_t id);

/** Unseen graphs whose fingerprint matches a network of `suite`. */
std::size_t suiteCollisions(const ServeInputs &in,
                            const std::vector<gcm::dnn::Graph> &suite);

// ------------------------------------------------------------- fit phase

/** The fit phase's outcome. */
struct Fit
{
    /** The 1-thread model (node walker, never compiled). */
    std::unique_ptr<gcm::core::SignatureCostModel> model;
    /** Its gcm-cost-model v1 bytes. */
    std::string bytes;
};

/**
 * Fit the cost model at 1 thread: the reference model and train_s;
 * with tracing on, the fit.* rows folded from its span tree.
 */
Fit fitSingle(const std::vector<gcm::dnn::Graph> &suite,
              const std::vector<std::vector<double>> &latencies,
              Report &report);

/**
 * Fit the same model at hostCores() threads: train_mt_s, and a check
 * that each fit serializes to `fit.bytes` (the determinism contract).
 * Runs last in a workload, after peak_rss_mb is read: the peak of a
 * multi-threaded fit varies with scheduling (per-thread malloc arenas)
 * by up to 40 MB.
 */
void fitMulti(const std::vector<gcm::dnn::Graph> &suite,
              const std::vector<std::vector<double>> &latencies,
              const Fit &fit, Report &report);

/** peak_rss_mb: the process's peak resident memory so far. */
void reportPeakRss(Report &report);

// --------------------------------------------------------------- tracing

/** One node of the obs span tree (gcm-perf-report/v1 "spans"). */
struct SpanNode
{
    std::string name;
    double total_ms = 0.0;
    std::vector<SpanNode> children;
};

/** Parse the span forest out of a gcm-perf-report/v1 document. */
std::vector<SpanNode> parseSpans(const std::string &report_json);

/** Depth-first search for the first span called `name`. */
const SpanNode *findSpan(const std::vector<SpanNode> &forest,
                         const std::string &name);

/**
 * Fold a span subtree into fixed rows. A node named in `rows`
 * contributes its whole subtree's time to that row; the root's own
 * self time goes to `root_row`; every other self time goes to
 * `unattributed_row`. The rows sum to root.total_ms.
 */
std::map<std::string, double>
foldSpans(const SpanNode &root,
          const std::map<std::string, std::string> &rows,
          const std::string &root_row, const std::string &unattributed_row);

// ------------------------------------------------------------ timed loop

/** Per-batch start offsets and wall times of one timed loop. */
struct LoopStats
{
    std::vector<double> batch_start_s;
    std::vector<double> batch_us;
    /** Batches per input cycle; batch_us.size() is a multiple. */
    std::size_t cycle = 1;
    std::uint64_t ops = 0;
    double wall_s = 0.0;

    /** Add the batches of another loop over the same input cycle. */
    void append(const LoopStats &other);
};

/**
 * The timed phase runs in this many slices of --seconds / kLoopSlices
 * each, spread over the run: after the setups, after the checks and
 * after the multi-thread fit. A slow stretch of the host then more
 * often spans one slice than all of them.
 */
inline constexpr std::size_t kLoopSlices = 3;

/**
 * One slice of the timed phase: run batch(b) for b = 0, 1, ..., timing every batch,
 * until `seconds` have passed and a whole number of input cycles of
 * `cycle` batches ran, inside a "bench.loop" span (a no-op unless
 * tracing is on). batch(b) returns the operations it ran.
 */
template <typename Fn>
LoopStats
timedLoop(std::size_t cycle, double seconds, Fn &&batch)
{
    LoopStats st;
    st.cycle = cycle;
    const gcm::obs::TraceSpan span("bench.loop");
    const auto t0 = Clock::now();
    for (std::size_t b = 0;; ++b) {
        const auto tb = Clock::now();
        st.ops += batch(b);
        const auto te = Clock::now();
        st.batch_start_s.push_back(
            std::chrono::duration<double>(tb - t0).count());
        st.batch_us.push_back(
            std::chrono::duration<double, std::micro>(te - tb).count());
        if ((b + 1) % cycle == 0
            && std::chrono::duration<double>(te - t0).count() >= seconds)
            break;
    }
    st.wall_s = secondsSince(t0);
    return st;
}

/** A loop's reported figures (see summarizeLoop). */
struct LoopSummary
{
    double rps = 0.0;
    double p50_us = 0.0;
    double p90_us = 0.0;
    std::size_t cycles = 0;
    /** The median over cycles of each cycle's rps; a fact only. */
    double median_cycle_rps = 0.0;
};

/**
 * The loop's figures, from each batch of the input cycle at its
 * fastest repetition: rps is the cycle's operations over the sum of
 * those times, p50 and p90 their type-7 quantiles (gcm::stats). Every
 * batch of the cycle counts once, so no cheap slice of the inputs is
 * picked and a cost that recurs on every pass is in every figure. The
 * fastest repetition, like the minimum of repeated timings, screens
 * out the host's slow states: a shared VM's vCPUs run the same code at
 * one speed or at 1.3 to 1.8 times slower, for seconds or minutes, and
 * central figures over a run spread 25 to 45% between runs.
 */
LoopSummary summarizeLoop(const LoopStats &st);

/**
 * rps, batch_p50_us and batch_p90_us from summarizeLoop, with the
 * central figures (whole phase, median cycle) and sample counts as
 * facts.
 */
void reportLoop(Report &report, const LoopStats &st);

/**
 * Fold the traced loop's "bench.loop" span into the loop.* rows and
 * the per-operation rows; obs.overhead_pct compares the traced loop's
 * median batch time with the untraced one's.
 */
void reportLoopTrace(Report &report, const LoopStats &untraced,
                     const LoopStats &traced);

/** Times of every setup of a run; setup_s is their median. */
struct SetupTimes
{
    std::vector<double> total_s, context_s, inputs_s, load_s;

    /** One setup: context until t1, inputs until t2, load until t3. */
    void add(Clock::time_point t0, Clock::time_point t1,
             Clock::time_point t2, Clock::time_point t3);
    void report(Report &r) const;
};

// ------------------------------------------------------------- workloads

void runTrainPaper(const Options &opts, Report &report);
void runServe(const Options &opts, Report &report);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
