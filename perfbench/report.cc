#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <thread>

#include "bench.hh"
#include "stats/descriptive.hh"
#include "util/json.hh"

namespace perfbench
{

const std::vector<MetricSpec> &
endToEndMetrics()
{
    static const std::vector<MetricSpec> metrics = {
        {"setup_s", "s"},      {"peak_rss_mb", "MB"},  {"train_s", "s"},
        {"train_mt_s", "s"},   {"r2", "ratio"},        {"rps", "1/s"},
        {"batch_p50_us", "us"}, {"batch_p90_us", "us"},
    };
    return metrics;
}

const std::vector<MetricSpec> &
layerMetrics()
{
    static const std::vector<MetricSpec> metrics = {
        {"setup.context_ms", "ms"},     {"setup.inputs_ms", "ms"},
        {"setup.load_ms", "ms"},        {"fit.wall_ms", "ms"},
        {"signature.select_ms", "ms"},  {"train.dataset_ms", "ms"},
        {"gbt.bin_ms", "ms"},           {"tree.histogram_ms", "ms"},
        {"tree.split_ms", "ms"},        {"fit.unattributed_ms", "ms"},
        {"tree.nodes", "count"},        {"dataset.bytes", "bytes"},
        {"pool.batches", "count"},      {"pool.chunks", "count"},
        {"loop.wall_ms", "ms"},         {"holdout.predict_ms", "ms"},
        {"protocol.parse_ms", "ms"},    {"service.batch_ms", "ms"},
        {"protocol.render_ms", "ms"},   {"loop.unattributed_ms", "ms"},
        {"protocol.parse_us", "us"},    {"service.batch_us", "us"},
        {"service.req_us", "us"},       {"protocol.render_us", "us"},
        {"cache.hits", "count"},        {"cache.misses", "count"},
        {"cache.inserts", "count"},     {"cache.evictions", "count"},
        {"cache.coalesced", "count"},   {"cache.hit_ratio", "ratio"},
        {"flat.rows", "count"},         {"graph.parse_us", "us"},
        {"graph.quantize_us", "us"},    {"graph.fingerprint_us", "us"},
        {"encode.network_us", "us"},    {"graph.text_bytes", "bytes"},
        {"obs.overhead_pct", "%"},
    };
    return metrics;
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool
parseWorkload(const std::string &name, Workload &out)
{
    for (Workload w : {Workload::TrainPaper, Workload::ServeHot,
                       Workload::ServeCold, Workload::ServeUnseen}) {
        if (name == workloadName(w)) {
            out = w;
            return true;
        }
    }
    return false;
}

const char *
workloadName(Workload w)
{
    switch (w) {
      case Workload::TrainPaper: return "train-paper";
      case Workload::ServeHot: return "serve-hot";
      case Workload::ServeCold: return "serve-cold";
      case Workload::ServeUnseen: return "serve-unseen";
    }
    return "?";
}

std::size_t
hostCores()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        const int n = CPU_COUNT(&set);
        if (n > 0)
            return static_cast<std::size_t>(n);
    }
    return std::max(1u, std::thread::hardware_concurrency());
}

void
LoopStats::append(const LoopStats &other)
{
    batch_start_s.insert(batch_start_s.end(), other.batch_start_s.begin(),
                         other.batch_start_s.end());
    batch_us.insert(batch_us.end(), other.batch_us.begin(),
                    other.batch_us.end());
    cycle = other.cycle;
    ops += other.ops;
    wall_s += other.wall_s;
}

LoopSummary
summarizeLoop(const LoopStats &st)
{
    LoopSummary sum;
    sum.cycles = st.batch_us.size() / st.cycle;
    const double cycle_ops =
        static_cast<double>(st.ops) / static_cast<double>(sum.cycles);
    std::vector<double> fastest(st.cycle,
                                std::numeric_limits<double>::infinity());
    std::vector<double> cycle_rps;
    for (std::size_t c = 0; c < sum.cycles; ++c) {
        const std::size_t lo = c * st.cycle, hi = lo + st.cycle - 1;
        for (std::size_t b = lo; b <= hi; ++b)
            fastest[b - lo] = std::min(fastest[b - lo], st.batch_us[b]);
        cycle_rps.push_back(cycle_ops
                            / (st.batch_start_s[hi] + st.batch_us[hi] * 1e-6
                               - st.batch_start_s[lo]));
    }
    double cycle_us = 0.0;
    for (double us : fastest)
        cycle_us += us;
    sum.rps = cycle_ops / (cycle_us * 1e-6);
    sum.p50_us = gcm::stats::quantile(fastest, 0.5);
    sum.p90_us = gcm::stats::quantile(fastest, 0.9);
    sum.median_cycle_rps = gcm::stats::median(cycle_rps);
    return sum;
}

void
reportLoop(Report &report, const LoopStats &st)
{
    const LoopSummary sum = summarizeLoop(st);
    report.endToEnd("rps", sum.rps, "1/s");
    report.endToEnd("batch_p50_us", sum.p50_us, "us");
    report.endToEnd("batch_p90_us", sum.p90_us, "us");
    report.fact("loop_batches", static_cast<double>(st.batch_us.size()));
    report.fact("loop_cycles", static_cast<double>(sum.cycles));
    report.fact("loop_ops", static_cast<double>(st.ops));
    report.fact("loop_wall_s", st.wall_s);
    // The central figures, for comparison with the reported ones.
    report.fact("loop_rps", static_cast<double>(st.ops) / st.wall_s);
    report.fact("loop_median_cycle_rps", sum.median_cycle_rps);
    report.fact("loop_p50_us", gcm::stats::quantile(st.batch_us, 0.5));
    report.fact("loop_p90_us", gcm::stats::quantile(st.batch_us, 0.9));
    report.fact("loop_p99_us", gcm::stats::quantile(st.batch_us, 0.99));
    report.fact("pool_threads_loop", 1.0);
    report.factText(
        "batch_percentiles",
        "each of the " + std::to_string(st.cycle)
            + " batches of the input cycle at its fastest of "
            + std::to_string(sum.cycles)
            + " repetitions; rps = cycle operations / sum of those "
              "times; batch_p50_us, batch_p90_us: type-7 quantiles of "
              "them. loop_*: the same over all "
            + std::to_string(st.batch_us.size()) + " batch times");
}

void
reportPeakRss(Report &report)
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    report.endToEnd("peak_rss_mb",
                    static_cast<double>(usage.ru_maxrss) / 1024.0, "MB");
}

void
SetupTimes::add(Clock::time_point t0, Clock::time_point t1,
                Clock::time_point t2, Clock::time_point t3)
{
    const auto s = [](Clock::time_point a, Clock::time_point b) {
        return std::chrono::duration<double>(b - a).count();
    };
    total_s.push_back(s(t0, t3));
    context_s.push_back(s(t0, t1));
    inputs_s.push_back(s(t1, t2));
    load_s.push_back(s(t2, t3));
}

void
SetupTimes::report(Report &r) const
{
    using gcm::stats::median;
    r.endToEnd("setup_s", median(total_s), "s");
    r.layer("setup.context_ms", 1000.0 * median(context_s), "ms");
    r.layer("setup.inputs_ms", 1000.0 * median(inputs_s), "ms");
    r.layer("setup.load_ms", 1000.0 * median(load_s), "ms");
    r.fact("setup_reps", static_cast<double>(total_s.size()));
    r.fact("pool_threads_setup", static_cast<double>(hostCores()));
}

namespace
{

std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
quoted(const std::string &s)
{
    std::string out;
    gcm::json::appendJsonString(out, s);
    return out;
}

std::string
metricsObject(const std::map<std::string, std::pair<double, std::string>> &m)
{
    std::string out = "{";
    for (const auto &[name, vu] : m) {
        if (out.size() > 1)
            out += ", ";
        out += quoted(name) + ": {\"value\": " + number(vu.first)
               + ", \"unit\": " + quoted(vu.second) + "}";
    }
    return out + "}";
}

} // namespace

void
Report::endToEnd(const std::string &name, double value, const char *unit)
{
    e2e_[name] = {value, unit};
}

void
Report::layer(const std::string &name, double value, const char *unit)
{
    layers_[name] = {value, unit};
}

void
Report::fact(const std::string &name, double value)
{
    facts_[name] = number(value);
}

void
Report::factText(const std::string &name, const std::string &value)
{
    facts_[name] = quoted(value);
}

void
Report::check(bool ok, const std::string &what)
{
    ++checks_run_;
    ++attempted_;
    if (!ok) {
        ++checks_failed_;
        std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
    }
}

void
Report::failedOps(std::uint64_t n, const std::string &what)
{
    if (n == 0)
        return;
    failed_ += n;
    std::fprintf(stderr, "perfbench: %llu failed operations: %s\n",
                 static_cast<unsigned long long>(n), what.c_str());
}

std::string
Report::factsLine(const Options &opts) const
{
    std::map<std::string, std::string> facts = facts_;
    facts["workload"] = quoted(workloadName(opts.workload));
    facts["seed"] = std::to_string(opts.seed);
    facts["seconds"] = number(opts.seconds);
    facts["trace"] = opts.trace ? "true" : "false";
    facts["git_rev"] = quoted(opts.git_rev);
    facts["src_digest"] = quoted(opts.src_digest);
    facts["nproc"] = std::to_string(hostCores());
    facts["build_type"] = quoted(PERFBENCH_BUILD_TYPE);
    facts["cxx_flags"] = quoted(PERFBENCH_CXX_FLAGS);
    facts["compiler"] = quoted(PERFBENCH_COMPILER);
    facts["checks_run"] = std::to_string(checks_run_);
    facts["checks_failed"] = std::to_string(checks_failed_);
    const std::uint64_t failed = failed_ + checks_failed_;
    facts["fail_rate"] =
        number(attempted_ == 0 ? 1.0
                               : static_cast<double>(failed)
                                     / static_cast<double>(attempted_));
    std::string out = "{\"perfbench_facts\": {";
    bool first = true;
    for (const auto &[k, v] : facts) {
        out += (first ? "" : ", ") + quoted(k) + ": " + v;
        first = false;
    }
    return out + "}}";
}

std::string
Report::resultLine(bool layers) const
{
    const std::uint64_t failed = failed_ + checks_failed_;
    return std::string("{\"correct\": ") + (correct() ? "true" : "false")
           + ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(
                                       attempted_, 1))
           + ", \"failed\": " + std::to_string(failed)
           + ", \"metrics\": " + metricsObject(layers ? layers_ : e2e_)
           + "}";
}

} // namespace perfbench
