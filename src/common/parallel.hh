/**
 * @file
 * ParallelRunner: a small fixed-size thread pool with an index-ordered
 * parallel-for, used to fan sweep and experiment evaluations across
 * cores.
 *
 * Determinism contract: forEach(n, fn) invokes fn(i) exactly once for
 * every i in [0, n) and map() stores each result at its own index, so
 * the assembled output is bit-identical to a serial loop regardless of
 * thread count or scheduling. Workers only race on the work counter,
 * never on results.
 */

#ifndef PDNSPOT_COMMON_PARALLEL_HH
#define PDNSPOT_COMMON_PARALLEL_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace pdnspot
{

class ParallelRunner
{
  public:
    /**
     * Upper bound on pool size: more threads bring no fan-out
     * benefit for the modeled workloads and risk exhausting OS
     * thread limits. Oversized requests (PDNSPOT_THREADS or CLI
     * flags) clamp here.
     */
    static constexpr unsigned maxThreadCount = 256;

    /**
     * @param threads worker count; 0 picks the value of the
     * PDNSPOT_THREADS environment variable if set, otherwise
     * std::thread::hardware_concurrency(). A count of 1 runs
     * everything inline on the calling thread (no pool).
     */
    explicit ParallelRunner(unsigned threads = 0);
    ~ParallelRunner();

    ParallelRunner(const ParallelRunner &) = delete;
    ParallelRunner &operator=(const ParallelRunner &) = delete;

    unsigned threadCount() const { return _threads; }

    /**
     * Run fn(i) for every i in [0, n); blocks until all complete.
     * The first exception thrown by any fn is rethrown here after
     * the remaining indices have drained. Reentrant calls (fn itself
     * calling forEach, or a second thread while a job is in flight)
     * degrade to an inline serial loop rather than deadlocking.
     */
    void forEach(size_t n, const std::function<void(size_t)> &fn) const;

    /**
     * Chunked range-claiming: workers claim contiguous ranges of up
     * to `grain` indices at a time and receive each claimed range as
     * one fn(begin, end) call. Claiming per range instead of per
     * index amortizes the work-counter contention when n is large
     * and fn is cheap; which indices land in which chunk depends
     * only on (n, grain), never on scheduling, so deterministic
     * callers stay deterministic. An exception thrown by fn skips
     * the rest of that chunk only; the first one is rethrown after
     * the job drains (as with forEach).
     */
    void forEachChunked(size_t n, size_t grain,
                        const std::function<void(size_t, size_t)> &fn)
        const;

    /**
     * Parallel map with deterministic ordering: out[i] == fn(i).
     * T must be default-constructible. `grain` sets the range-claim
     * size (see forEachChunked); 1 claims per index.
     */
    template <typename T, typename Fn>
    std::vector<T>
    map(size_t n, Fn &&fn, size_t grain = 1) const
    {
        std::vector<T> out(n);
        forEachChunked(n, grain, [&](size_t begin, size_t end) {
            for (size_t i = begin; i < end; ++i)
                out[i] = fn(i);
        });
        return out;
    }

    /**
     * A grain that splits n indices into roughly chunksPerThread
     * claims per worker — enough chunks for load balance, few enough
     * to amortize claiming. Always in [1, n].
     */
    size_t suggestedGrain(size_t n,
                          size_t chunksPerThread = 8) const;

    /**
     * Parse a PDNSPOT_THREADS value. Non-numeric, zero, negative,
     * empty or trailing-garbage values warn (naming the offending
     * value) and return `fallback`; values above the pool cap warn
     * and clamp. Exposed so the policy is unit-testable without
     * mutating the environment.
     */
    static unsigned parseThreadCount(const char *text,
                                     unsigned fallback);

  private:
    struct Job;

    static size_t drain(Job &job, std::mutex &mutex);
    void workerLoop();

    unsigned _threads;
    std::vector<std::thread> _workers;

    mutable std::mutex _mutex;
    mutable std::condition_variable _wake;     ///< workers wait here
    mutable std::condition_variable _done;     ///< forEach waits here
    mutable std::shared_ptr<Job> _job;         ///< in-flight job
    mutable std::uint64_t _generation = 0;     ///< job sequence number
    bool _stop = false;
};

} // namespace pdnspot

#endif // PDNSPOT_COMMON_PARALLEL_HH
