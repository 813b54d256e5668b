#include "util/parallel.hh"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "obs/obs.hh"

namespace gcm
{

namespace
{

/** One parallel loop in flight: chunk claiming + completion count. */
struct Batch
{
    std::size_t nchunks = 0;
    const std::function<void(std::size_t)> *chunk = nullptr;
    /** Next unclaimed chunk index; saturates at nchunks. */
    std::atomic<std::size_t> next{0};
    /** Set after the first failure so later chunks are skipped. */
    std::atomic<bool> failed{false};
    std::mutex m;
    std::condition_variable all_done;
    /** Chunks finished (run or skipped); guarded by m. */
    std::size_t completed = 0;
    /** First exception thrown by a chunk; guarded by m. */
    std::exception_ptr error;
    /** Observability snapshot taken at submission (see runBatch). */
    bool obs_on = false;
    void *obs_parent = nullptr;
    std::chrono::steady_clock::time_point posted_at;
};

/**
 * This thread's "chunks per thread" counter: pool worker i sets its
 * own when it starts, and every thread outside the pool shares one,
 * so the keys stay bounded by the pool size.
 */
thread_local std::string t_chunks_counter = "pool.thread.caller.chunks";

/** Whether this thread is in a parallel region (the nesting rule). */
thread_local bool t_in_region = false;

/**
 * Claim and execute chunks until the batch is exhausted. Every chunk
 * index is claimed by exactly one thread, so completed == nchunks
 * holds iff all work finished. A thread adds its chunks to `completed`
 * once, under the lock, after its last claim and after publishing its
 * obs counters: no chunk takes a lock, and a caller that sees the batch
 * done also sees every chunk counted. The thread is in a parallel
 * region meanwhile, so loops the chunks start run inline.
 */
void
drain(Batch &b)
{
    // Chunk-side spans nest under the submitting thread's open span;
    // chunk counts accumulate in a stack-local and merge into the
    // registry once per drained batch, keeping the hot loop free of
    // shared-state writes (and the TSan lane clean).
    obs::SpanParentScope obs_scope(b.obs_on ? b.obs_parent : nullptr);
    const ParallelRegionGuard region;
    std::size_t claimed = 0;
    std::size_t executed = 0;
    for (;;) {
        const std::size_t c =
            b.next.fetch_add(1, std::memory_order_relaxed);
        if (c >= b.nchunks)
            break;
        ++claimed;
        if (!b.failed.load(std::memory_order_relaxed)) {
            try {
                (*b.chunk)(c);
                ++executed;
            } catch (...) {
                std::lock_guard<std::mutex> lock(b.m);
                if (!b.error)
                    b.error = std::current_exception();
                b.failed.store(true, std::memory_order_relaxed);
            }
        }
    }
    if (b.obs_on && executed > 0) {
        obs::counterAdd("pool.chunks", executed);
        obs::counterAdd(t_chunks_counter, executed);
    }
    if (claimed > 0) {
        std::lock_guard<std::mutex> lock(b.m);
        b.completed += claimed;
        if (b.completed == b.nchunks)
            b.all_done.notify_all();
    }
}

/** Automatic size: GCM_THREADS env, else hardware_concurrency. */
std::size_t
autoThreads()
{
    if (const char *env = std::getenv("GCM_THREADS")) {
        char *end = nullptr;
        const unsigned long v = std::strtoul(env, &end, 10);
        if (end != env && *end == '\0' && v >= 1)
            return static_cast<std::size_t>(v);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

/**
 * The process-wide worker pool. Started on first use; numThreads()-1
 * workers, since the thread invoking a loop executes chunks itself.
 */
class Pool
{
  public:
    static Pool &
    instance()
    {
        static Pool pool;
        return pool;
    }

    std::size_t
    threads()
    {
        // Lock-free fast path: parallelFor asks on every invocation.
        const std::size_t cached =
            cached_.load(std::memory_order_relaxed);
        if (cached != 0)
            return cached;
        std::lock_guard<std::mutex> lock(m_);
        const std::size_t n = effectiveLocked();
        cached_.store(n, std::memory_order_relaxed);
        return n;
    }

    void
    configure(std::size_t n)
    {
        std::unique_lock<std::mutex> lock(m_);
        if (n == requested_)
            return;
        requested_ = n;
        cached_.store(effectiveLocked(), std::memory_order_relaxed);
        stopLocked(lock);
    }

    /** Post `copies` helper jobs that drain the batch. */
    void
    post(const std::shared_ptr<Batch> &batch, std::size_t copies)
    {
        std::lock_guard<std::mutex> lock(m_);
        startLocked();
        for (std::size_t i = 0; i < copies; ++i)
            jobs_.push_back(batch);
        wake_.notify_all();
    }

  private:
    Pool() = default;

    ~Pool()
    {
        std::unique_lock<std::mutex> lock(m_);
        stopLocked(lock);
    }

    std::size_t
    effectiveLocked() const
    {
        return requested_ != 0 ? requested_ : autoThreads();
    }

    void
    startLocked()
    {
        if (!workers_.empty())
            return;
        const std::size_t n = effectiveLocked();
        stop_ = false;
        for (std::size_t i = 0; i + 1 < n; ++i) {
            workers_.emplace_back([this, i] {
                t_chunks_counter =
                    "pool.thread." + std::to_string(i) + ".chunks";
                workerLoop();
            });
        }
    }

    void
    stopLocked(std::unique_lock<std::mutex> &lock)
    {
        if (workers_.empty())
            return;
        stop_ = true;
        wake_.notify_all();
        std::vector<std::thread> joining;
        joining.swap(workers_);
        lock.unlock();
        for (auto &t : joining)
            t.join();
        lock.lock();
        stop_ = false;
    }

    void
    workerLoop()
    {
        for (;;) {
            std::shared_ptr<Batch> batch;
            {
                std::unique_lock<std::mutex> lock(m_);
                wake_.wait(lock,
                           [this] { return stop_ || !jobs_.empty(); });
                if (stop_)
                    return;
                batch = std::move(jobs_.front());
                jobs_.pop_front();
            }
            if (batch->obs_on) {
                const std::chrono::duration<double, std::milli> wait =
                    std::chrono::steady_clock::now() - batch->posted_at;
                obs::histogramObserve("pool.queue_wait_ms",
                                      wait.count());
            }
            drain(*batch);
        }
    }

    std::mutex m_;
    std::condition_variable wake_;
    std::deque<std::shared_ptr<Batch>> jobs_;
    std::vector<std::thread> workers_;
    std::size_t requested_ = 0;
    std::atomic<std::size_t> cached_{0};
    bool stop_ = false;
};

} // namespace

std::size_t
numThreads()
{
    return Pool::instance().threads();
}

void
setThreads(std::size_t n)
{
    Pool::instance().configure(n);
}

ParallelRegionGuard::ParallelRegionGuard() : saved_(t_in_region)
{
    t_in_region = true;
}

ParallelRegionGuard::~ParallelRegionGuard()
{
    t_in_region = saved_;
}

namespace detail
{

bool
nestedLoopRunsInline()
{
    if (!t_in_region)
        return false;
    GCM_OBS_GUARDED(obs::counterAdd("pool.nested_inline"));
    return true;
}

void
runBatch(std::size_t nchunks,
         const std::function<void(std::size_t)> &chunk)
{
    if (nchunks == 0)
        return;
    auto batch = std::make_shared<Batch>();
    batch->nchunks = nchunks;
    batch->chunk = &chunk; // outlives the batch: we block below
    Pool &pool = Pool::instance();
    const std::size_t threads = pool.threads();
    if (obs::enabled()) {
        batch->obs_on = true;
        batch->obs_parent = obs::currentSpanHandle();
        batch->posted_at = std::chrono::steady_clock::now();
        obs::counterAdd("pool.batches");
        obs::gaugeSet("pool.threads",
                      static_cast<double>(threads));
    }
    const std::size_t helpers =
        threads - 1 < nchunks - 1 ? threads - 1 : nchunks - 1;
    if (helpers > 0)
        pool.post(batch, helpers);
    drain(*batch);
    std::unique_lock<std::mutex> lock(batch->m);
    batch->all_done.wait(
        lock, [&] { return batch->completed == batch->nchunks; });
    if (batch->error)
        std::rethrow_exception(batch->error);
}

} // namespace detail

} // namespace gcm
