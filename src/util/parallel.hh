/**
 * @file
 * Deterministic parallel execution layer.
 *
 * A lazily-started shared ThreadPool plus two loop primitives —
 * parallelFor and an ordered parallelMap. Every call chain has one
 * parallel layer, at the coarsest unit that pays:
 *
 *  - coarse units at grain 1: campaign devices, cross-validation
 *    folds, random-forest trees, search population members and the
 *    pairwise-MI rows of histogram MIS;
 *  - fine loops at grainFor(work per index): tree histograms and the
 *    split scan, GBT gradient and update sweeps, flat-ensemble row
 *    blocks, histogram-MIS variable binning and the serving batch's
 *    encode and tail phases. A loop whose whole range is under one
 *    chunk's worth of work runs inline.
 *
 * Determinism contract
 * --------------------
 * Results are bit-identical at any thread count, including 1:
 *
 *  - The iteration space is split into fixed-size chunks whose
 *    boundaries depend only on (range, grain), never on the thread
 *    count or on scheduling; a grain is a constant or grainFor() of
 *    data sizes. Within a chunk, indices run in ascending order, so
 *    every floating-point accumulation a task performs uses exactly
 *    the serial operation order.
 *  - Tasks may only write state owned by their own index (a slot in a
 *    pre-sized output vector, a disjoint histogram region, ...).
 *    Cross-task reductions are performed by the caller, serially, in
 *    index order after the loop completes.
 *  - Stochastic tasks never share a sequential Rng; each task derives
 *    its own stream with Rng::fork(task_id) (SplitMix64-style stream
 *    splitting), so the draws a task sees are a pure function of the
 *    parent seed and the task id.
 *
 * The pool size is taken from setThreads(), else the GCM_THREADS
 * environment variable, else std::thread::hardware_concurrency().
 * With one thread (or a single chunk) the loop body runs inline on
 * the calling thread and the pool is never started.
 *
 * Scheduling is caller-participates: the invoking thread claims and
 * executes chunks alongside the workers and can always finish the
 * whole batch by itself.
 *
 * Nesting rule: the outermost parallel loop owns the threads. While a
 * pool worker or the participating caller runs a chunk, and while a
 * ParallelRegionGuard is alive, the thread is "in a parallel region";
 * a parallelFor/parallelMap started there runs inline on that thread,
 * in index order, as one chunk (counted under pool.nested_inline).
 * A nested loop therefore never posts to the pool, cannot deadlock
 * and cannot flood the queue with fine chunks under coarse ones. By
 * the determinism contract its results are the same either way.
 */

#ifndef GCM_UTIL_PARALLEL_HH
#define GCM_UTIL_PARALLEL_HH

#include <cstddef>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

namespace gcm
{

/**
 * Effective worker count (>= 1) the next parallel loop will use:
 * the last setThreads() value, else GCM_THREADS, else
 * hardware_concurrency.
 */
std::size_t numThreads();

/**
 * Set the pool size. 0 restores the automatic default (GCM_THREADS
 * env, then hardware_concurrency). A running pool is drained and
 * restarted at the new size; must not be called concurrently with a
 * parallel loop.
 */
void setThreads(std::size_t n);

/**
 * Elementary steps (a histogram add, a bin scored, a tree node
 * visited) one pool chunk should carry: ~2^15, tens of microseconds,
 * so posting and claiming a chunk costs well under 1% of running it.
 */
inline constexpr std::size_t kChunkWork = std::size_t{1} << 15;

/**
 * Grain for a loop whose every index costs about `work_per_index`
 * elementary steps: enough indices to make one chunk's kChunkWork
 * (at least 1). Work 0 counts as 1.
 */
constexpr std::size_t
grainFor(std::size_t work_per_index)
{
    return work_per_index >= kChunkWork
        ? 1
        : kChunkWork / (work_per_index == 0 ? 1 : work_per_index);
}

/**
 * Marks the calling thread as inside a parallel region for the
 * guard's lifetime, so every parallel loop it starts runs inline (the
 * nesting rule above). For threads that are a parallel layer of their
 * own, such as the serving front end's workers. Restores the previous
 * state on destruction.
 */
class ParallelRegionGuard
{
  public:
    ParallelRegionGuard();
    ~ParallelRegionGuard();

    ParallelRegionGuard(const ParallelRegionGuard &) = delete;
    ParallelRegionGuard &operator=(const ParallelRegionGuard &) = delete;

  private:
    bool saved_;
};

namespace detail
{

/**
 * Whether the calling thread is in a parallel region, so a loop it
 * starts runs inline; counts each such loop under pool.nested_inline.
 */
bool nestedLoopRunsInline();

/**
 * Execute chunk(0..nchunks-1), each exactly once, across the pool and
 * the calling thread. Blocks until all chunks finished; rethrows the
 * first exception a chunk threw (remaining chunks are skipped once a
 * failure is recorded).
 */
void runBatch(std::size_t nchunks,
              const std::function<void(std::size_t)> &chunk);

} // namespace detail

/**
 * Apply fn(i) for i in [begin, end), split into chunks of `grain`
 * consecutive indices. fn must only write task-owned state (see the
 * determinism contract above). Runs inline when a single chunk covers
 * the range, the pool has one thread or the caller is already in a
 * parallel region.
 */
template <typename Fn>
void
parallelFor(std::size_t begin, std::size_t end, std::size_t grain, Fn &&fn)
{
    if (end <= begin)
        return;
    const std::size_t n = end - begin;
    const std::size_t g = grain == 0 ? 1 : grain;
    const std::size_t nchunks = (n + g - 1) / g;
    if (nchunks <= 1 || numThreads() == 1
        || detail::nestedLoopRunsInline()) {
        for (std::size_t i = begin; i < end; ++i)
            fn(i);
        return;
    }
    detail::runBatch(nchunks, [&](std::size_t c) {
        const std::size_t lo = begin + c * g;
        const std::size_t hi = lo + g < end ? lo + g : end;
        for (std::size_t i = lo; i < hi; ++i)
            fn(i);
    });
}

/**
 * Ordered map: out[i] = fn(i) for i in [0, n). Results land in index
 * order regardless of completion order, so downstream consumers see
 * exactly the serial sequence. R needs not be default-constructible.
 */
template <typename Fn>
auto
parallelMap(std::size_t n, std::size_t grain, Fn &&fn)
{
    using R = decltype(fn(std::size_t{0}));
    std::vector<std::optional<R>> slots(n);
    parallelFor(0, n, grain,
                [&](std::size_t i) { slots[i].emplace(fn(i)); });
    std::vector<R> out;
    out.reserve(n);
    for (auto &s : slots)
        out.push_back(std::move(*s));
    return out;
}

} // namespace gcm

#endif // GCM_UTIL_PARALLEL_HH
