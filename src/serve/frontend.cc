#include "serve/frontend.hh"

#include <algorithm>
#include <cmath>
#include <deque>
#include <exception>
#include <istream>
#include <limits>
#include <ostream>
#include <queue>
#include <sstream>
#include <thread>
#include <utility>

#include "obs/obs.hh"
#include "serve/protocol.hh"
#include "util/error.hh"
#include "util/parallel.hh"

namespace gcm::serve
{

void
FrontEndConfig::validate() const
{
    if (batch_size == 0)
        fatal("FrontEndConfig: batch_size must be >= 1");
    if (queue_capacity < batch_size) {
        fatal("FrontEndConfig: queue_capacity (", queue_capacity,
              ") must be >= batch_size (", batch_size, ")");
    }
}

namespace
{

/**
 * The simulated clock's unit costs (ms): every admitted request costs
 * kRequestCostMs and every batch kBatchOverheadMs on the plan phase's
 * clock. They are the plan's units, not measured service times.
 */
constexpr double kRequestCostMs = 1.0;
constexpr double kBatchOverheadMs = 0.2;

/** Nearest-rank percentile of an unsorted sample (copied). */
double
percentile(std::vector<double> sample, double p)
{
    if (sample.empty())
        return 0.0;
    std::sort(sample.begin(), sample.end());
    const double rank = p / 100.0 * static_cast<double>(sample.size());
    std::size_t idx = rank <= 1.0
                          ? 0
                          : static_cast<std::size_t>(std::ceil(rank)) - 1;
    if (idx >= sample.size())
        idx = sample.size() - 1;
    return sample[idx];
}

} // namespace

std::string
FrontEndReport::summary() const
{
    std::ostringstream os;
    os.precision(1);
    os << std::fixed;
    os << "frontend: " << offered << " offered, " << served()
       << " served (" << ok << " ok, " << errors << " errors), "
       << tier_shed << " shed over " << sim_duration_ms
       << " simulated ms on " << workers << " worker(s)\n";
    os << "  goodput " << goodput_qps
       << " req/s, shed-rate " << (100.0 * shed_rate)
       << "%, utilization " << (100.0 * utilization) << "%\n";
    os << "  queue peaks: interactive " << peak_queue_interactive
       << ", bulk " << peak_queue_bulk << "\n";
    os << "  sim sojourn p50 " << sojourn_p50_ms << " ms, p95 "
       << sojourn_p95_ms << " ms, p99 " << sojourn_p99_ms << " ms\n";
    os << "  cache: " << cache.hits << " hits, " << cache.misses
       << " misses, " << cache.evictions << " evictions, "
       << cache.coalesced << " coalesced (hit rate "
       << (100.0 * cache.hitRate()) << "%)";
    return os.str();
}

ServerFrontEnd::ServerFrontEnd(const ModelRegistry &registry,
                               PredictionService::DeviceTable device_table,
                               FrontEndConfig config)
    : registry_(registry), config_(config),
      workers_(config.workers != 0 ? config.workers : numThreads()),
      cache_(std::make_shared<ShardedLruCache>(
          config.service.cache_capacity, config.service.cache_shards))
{
    config_.validate();
    if (workers_ == 0)
        workers_ = 1;
    services_.reserve(workers_);
    for (std::size_t w = 0; w < workers_; ++w) {
        services_.push_back(std::make_unique<PredictionService>(
            registry_, device_table, config_.service, cache_));
    }
}

const PredictionService::DeviceTable &
ServerFrontEnd::deviceTable() const
{
    return services_.front()->deviceTable();
}

double
ServerFrontEnd::capacityQps() const
{
    const double per_request =
        kRequestCostMs
        + kBatchOverheadMs / static_cast<double>(config_.batch_size);
    return static_cast<double>(workers_) * 1000.0 / per_request;
}

FrontEndReport
ServerFrontEnd::run(const std::vector<Arrival> &arrivals,
                    std::vector<std::string> *responses_out)
{
    const obs::TraceSpan span("serve.frontend.run");
    const std::size_t n = arrivals.size();
    for (std::size_t i = 1; i < n; ++i) {
        if (arrivals[i].time_ms < arrivals[i - 1].time_ms)
            fatal("ServerFrontEnd::run: arrivals must be sorted by "
                  "time_ms");
    }

    // The plan's one registry read. Holding the shared_ptr is the
    // rollback/retire safety: the registry can evict the version
    // mid-run without freeing it under us.
    const ModelRegistry::ActiveModel active = registry_.active();

    // ------------------------------------------------------------------
    // Phase 1 — plan (serial, simulated clock). A discrete-event walk
    // over the arrival stream decides, deterministically: whether
    // each request is admitted, which worker serves it in which batch,
    // and all simulated timings. No payload is computed here.
    // ------------------------------------------------------------------
    struct Item
    {
        ServeRequest request;
        std::string parse_error;
        bool shed = false;
        /** Written by exactly one worker in the execute phase. */
        bool ok = false;
        double arrival_ms = 0.0;
        double done_ms = 0.0;
    };
    struct Batch
    {
        std::size_t worker = 0;
        std::vector<std::size_t> items;
    };
    std::vector<Item> items(n);
    std::vector<std::vector<Batch>> worker_batches(workers_);
    std::vector<std::string> rendered(n);

    std::deque<std::size_t> queues[2]; // [Priority]
    std::size_t peaks[2] = {0, 0};
    std::vector<double> busy_until(workers_, 0.0);
    double busy_total = 0.0;
    // Idle workers in id order: lowest id claims the next batch, so
    // the plan does not depend on completion-event heap internals.
    std::vector<bool> idle(workers_, true);
    std::size_t idle_count = workers_;
    using Completion = std::pair<double, std::size_t>; // (time, worker)
    std::priority_queue<Completion, std::vector<Completion>,
                        std::greater<Completion>>
        completions;

    const auto dispatch = [&](double now) {
        while (idle_count > 0) {
            std::deque<std::size_t> *q = nullptr;
            if (!queues[0].empty())
                q = &queues[0]; // interactive always drains first
            else if (!queues[1].empty())
                q = &queues[1];
            else
                break;
            std::size_t w = 0;
            while (!idle[w])
                ++w;
            idle[w] = false;
            --idle_count;
            Batch b;
            b.worker = w;
            double cost = kBatchOverheadMs;
            const std::size_t take =
                std::min(config_.batch_size, q->size());
            b.items.reserve(take);
            for (std::size_t k = 0; k < take; ++k) {
                b.items.push_back(q->front());
                q->pop_front();
                cost += kRequestCostMs;
            }
            const double done = now + cost;
            busy_until[w] = done;
            busy_total += cost;
            for (const std::size_t idx : b.items)
                items[idx].done_ms = done;
            completions.emplace(done, w);
            worker_batches[w].push_back(std::move(b));
        }
    };

    FrontEndReport report;
    report.workers = workers_;
    report.offered = n;
    std::size_t next = 0;
    double clock = 0.0;
    while (next < n || !completions.empty()) {
        const double ta = next < n
                              ? arrivals[next].time_ms
                              : std::numeric_limits<double>::infinity();
        if (!completions.empty() && completions.top().first <= ta) {
            const auto [t, w] = completions.top();
            completions.pop();
            clock = t;
            idle[w] = true;
            ++idle_count;
            dispatch(clock);
            continue;
        }
        // Admit the next arrival.
        const std::size_t i = next++;
        clock = ta;
        Item &item = items[i];
        item.arrival_ms = ta;
        const std::size_t bytes =
            std::max(arrivals[i].line.size(), arrivals[i].bytes);
        item.parse_error =
            bytes > kMaxRequestLineBytes
                ? oversizedLineMessage(bytes)
                : tryParseRequest(arrivals[i].line, item.request);
        const std::size_t cls =
            item.request.priority == Priority::Bulk ? 1 : 0;
        const std::size_t depth = queues[cls].size();
        if (depth >= config_.queue_capacity) {
            item.shed = true;
            ++report.tier_shed;
            item.done_ms = ta;
            ServeResponse r = ServeResponse::failure(
                item.request.id, ServeErrorCode::Overloaded,
                std::string("admission queue full (")
                    + priorityName(item.request.priority) + ")");
            r.queue_depth = depth;
            r.retry_after_ms = static_cast<double>(depth)
                               * kRequestCostMs
                               / static_cast<double>(workers_);
            rendered[i] = renderResponse(r);
        } else {
            queues[cls].push_back(i);
            peaks[cls] = std::max(peaks[cls], queues[cls].size());
        }
        dispatch(clock);
    }
    report.sim_duration_ms = clock;
    report.peak_queue_interactive = peaks[0];
    report.peak_queue_bulk = peaks[1];

    std::vector<double> sojourns;
    sojourns.reserve(n);
    for (const Item &item : items) {
        if (!item.shed)
            sojourns.push_back(item.done_ms - item.arrival_ms);
    }

    // ------------------------------------------------------------------
    // Phase 2 — execute (parallel, real threads). Workers compute the
    // admitted requests' payloads on the pinned model into their own
    // pre-assigned response slots; payload content is a pure
    // function, so bytes match at any worker count.
    // ------------------------------------------------------------------
    std::vector<std::exception_ptr> failures(workers_);
    const auto work = [&](std::size_t w) noexcept {
        // Serving's one parallel layer: processBatch's loops run inline.
        const ParallelRegionGuard region;
        try {
            PredictionService &svc = *services_[w];
            std::vector<ServeRequest> reqs;
            std::vector<std::size_t> req_idx;
            for (const Batch &b : worker_batches[w]) {
                // A batch's well-formed items go to one processBatch.
                reqs.clear();
                req_idx.clear();
                for (const std::size_t idx : b.items) {
                    Item &item = items[idx];
                    if (!item.parse_error.empty()) {
                        rendered[idx] = renderResponse(
                            ServeResponse::failure(
                                item.request.id,
                                ServeErrorCode::BadRequest,
                                item.parse_error));
                        continue;
                    }
                    // Each item is in exactly one batch, and only
                    // `shed` and `ok` are read after this phase.
                    reqs.push_back(std::move(item.request));
                    req_idx.push_back(idx);
                }
                if (!reqs.empty()) {
                    const std::vector<ServeResponse> served =
                        svc.processBatch(reqs, active);
                    for (std::size_t k = 0; k < served.size(); ++k) {
                        items[req_idx[k]].ok = served[k].ok;
                        rendered[req_idx[k]] = renderResponse(served[k]);
                    }
                }
            }
        } catch (...) {
            failures[w] = std::current_exception();
        }
    };
    {
        std::vector<std::thread> threads;
        threads.reserve(workers_ > 0 ? workers_ - 1 : 0);
        for (std::size_t w = 1; w < workers_; ++w)
            threads.emplace_back(work, w);
        work(0); // the caller is worker 0, PR-2 pool style
        for (std::thread &t : threads)
            t.join();
    }
    for (const std::exception_ptr &e : failures) {
        if (e)
            std::rethrow_exception(e);
    }

    for (std::size_t i = 0; i < n; ++i) {
        if (items[i].shed)
            continue;
        if (items[i].ok)
            ++report.ok;
        else
            ++report.errors;
    }

    report.goodput_qps =
        report.sim_duration_ms > 0.0
            ? static_cast<double>(report.served()) * 1000.0
                  / report.sim_duration_ms
            : 0.0;
    report.shed_rate =
        n > 0 ? static_cast<double>(report.tier_shed)
                    / static_cast<double>(n)
              : 0.0;
    report.utilization =
        report.sim_duration_ms > 0.0
            ? busy_total
                  / (report.sim_duration_ms
                     * static_cast<double>(workers_))
            : 0.0;
    report.sojourn_p50_ms = percentile(sojourns, 50.0);
    report.sojourn_p95_ms = percentile(sojourns, 95.0);
    report.sojourn_p99_ms = percentile(sojourns, 99.0);
    report.cache = cache_->stats();

    obs::counterAdd("serve.frontend.offered", n);
    obs::counterAdd("serve.frontend.tier.shed", report.tier_shed);
    obs::gaugeSet("serve.frontend.workers",
                  static_cast<double>(workers_));
    obs::gaugeSet("serve.frontend.queue.interactive.peak",
                  static_cast<double>(peaks[0]));
    obs::gaugeSet("serve.frontend.queue.bulk.peak",
                  static_cast<double>(peaks[1]));
    obs::gaugeSet("serve.frontend.utilization", report.utilization);
    if (obs::enabled()) {
        for (const double s : sojourns)
            obs::histogramObserve("serve.frontend.sojourn_ms", s);
    }

    if (responses_out != nullptr)
        *responses_out = std::move(rendered);
    return report;
}

std::size_t
runFrontEndLoop(ServerFrontEnd &frontend, std::istream &in,
                std::ostream &out, double arrival_qps)
{
    const double qps =
        arrival_qps > 0.0 ? arrival_qps : frontend.capacityQps();
    const double step_ms = 1000.0 / qps;
    std::vector<Arrival> window;
    std::vector<std::string> responses;
    std::size_t window_bytes = 0;
    const auto serveWindow = [&] {
        frontend.run(window, &responses);
        for (const std::string &r : responses)
            out << r << '\n';
        out.flush(); // a window's responses are complete: hand them on
        window.clear();
        window_bytes = 0;
    };
    std::size_t consumed = 0;
    double t = 0.0;
    Arrival arrival;
    while (readRequestLine(in, arrival.line, arrival.bytes)) {
        ++consumed;
        arrival.time_ms = t;
        t += step_ms;
        window_bytes += arrival.line.size();
        window.push_back(std::move(arrival));
        if (window.size() == kServeWindowLines
            || window_bytes >= kServeWindowBytes)
            serveWindow();
    }
    if (!window.empty())
        serveWindow();
    return consumed;
}

} // namespace gcm::serve
