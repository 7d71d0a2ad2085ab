#include "common/parallel.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>

#include "common/logging.hh"
#include "obs/metrics.hh"

namespace pdnspot
{

/** One forEach invocation's shared state. */
struct ParallelRunner::Job
{
    std::uint64_t gen = 0;           ///< sequence number of this job
    size_t n = 0;
    const std::function<void(size_t)> *fn = nullptr;
    std::atomic<size_t> next{0};     ///< next index to claim
    size_t finished = 0;             ///< indices completed (under mutex)
    std::exception_ptr error;        ///< first exception thrown by fn
};

namespace
{

unsigned
defaultThreadCount()
{
    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0)
        hw = 1;
    if (const char *env = std::getenv("PDNSPOT_THREADS"))
        return ParallelRunner::parseThreadCount(env, hw);
    return hw;
}

} // namespace

unsigned
ParallelRunner::parseThreadCount(const char *text, unsigned fallback)
{
    char *end = nullptr;
    errno = 0;
    long v = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || v < 1) {
        warn(strprintf("PDNSPOT_THREADS=\"%s\" ignored: must be a "
                       "positive integer; using %u threads",
                       text, fallback));
        return fallback;
    }
    if (errno == ERANGE || v > static_cast<long>(maxThreadCount)) {
        warn(strprintf("PDNSPOT_THREADS=\"%s\" capped at %u", text,
                       maxThreadCount));
        v = maxThreadCount;
    }
    return static_cast<unsigned>(v);
}

/**
 * Claim and run indices until none remain; returns how many this
 * thread completed. The first exception is stashed in the job; later
 * indices still run so the finished count always reaches n.
 */
size_t
ParallelRunner::drain(Job &job, std::mutex &mutex)
{
    size_t ran = 0;
    for (;;) {
        size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
        if (i >= job.n)
            return ran;
        try {
            (*job.fn)(i);
        } catch (...) {
            std::lock_guard<std::mutex> lock(mutex);
            if (!job.error)
                job.error = std::current_exception();
        }
        ++ran;
    }
}

ParallelRunner::ParallelRunner(unsigned threads)
    : _threads(threads > 0 ? threads : defaultThreadCount())
{
    // With one thread forEach runs inline; no workers to spawn.
    for (unsigned t = 1; t < _threads; ++t)
        _workers.emplace_back([this] { workerLoop(); });
}

ParallelRunner::~ParallelRunner()
{
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _stop = true;
    }
    _wake.notify_all();
    for (std::thread &w : _workers)
        w.join();
}

void
ParallelRunner::workerLoop()
{
    std::uint64_t seen = 0;
    for (;;) {
        std::shared_ptr<Job> job;
        {
            std::unique_lock<std::mutex> lock(_mutex);
            _wake.wait(lock, [&] {
                return _stop || (_job && _job->gen != seen);
            });
            if (_stop)
                return;
            job = _job;
            seen = job->gen;
        }
        size_t ran = drain(*job, _mutex);
        // Reporting the indices finished (under _mutex) is the join:
        // once the caller sees finished == n, every effect of this
        // worker's calls — results, metrics — happened before it.
        {
            std::lock_guard<std::mutex> lock(_mutex);
            job->finished += ran;
            if (job->finished == job->n)
                _done.notify_all();
        }
    }
}

void
ParallelRunner::forEach(size_t n,
                        const std::function<void(size_t)> &fn) const
{
    auto serial = [&] {
        for (size_t i = 0; i < n; ++i)
            fn(i);
    };

    if (n == 0)
        return;
    metricAdd(Metric::RunnerJobs);
    metricSet(Metric::RunnerThreads, static_cast<double>(_threads));
    if (_workers.empty() || n == 1) {
        serial();
        return;
    }

    auto job = std::make_shared<Job>();
    job->n = n;
    job->fn = &fn;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        if (_job) {
            // Reentrant (nested or concurrent) use: fall back to an
            // inline serial loop instead of deadlocking the pool.
            job.reset();
        } else {
            job->gen = ++_generation;
            _job = job;
        }
    }
    if (!job) {
        serial();
        return;
    }

    // The calling thread participates too.
    _wake.notify_all();
    size_t ran = drain(*job, _mutex);
    {
        std::unique_lock<std::mutex> lock(_mutex);
        job->finished += ran;
        _done.wait(lock, [&] { return job->finished == job->n; });
        _job.reset();
    }

    if (job->error)
        std::rethrow_exception(job->error);
}

void
ParallelRunner::forEachChunked(
    size_t n, size_t grain,
    const std::function<void(size_t, size_t)> &fn) const
{
    if (grain == 0)
        fatal("ParallelRunner: chunk grain must be positive");
    if (n == 0)
        return;
    if (grain == 1) {
        forEach(n, [&](size_t i) {
            metricAdd(Metric::RunnerChunksClaimed);
            fn(i, i + 1);
        });
        return;
    }

    // Claim over the chunk index space; the per-index machinery
    // (ordering, reentrancy fallback, exception draining) carries
    // over unchanged.
    size_t chunks = (n + grain - 1) / grain;
    forEach(chunks, [&](size_t c) {
        metricAdd(Metric::RunnerChunksClaimed);
        size_t begin = c * grain;
        fn(begin, std::min(begin + grain, n));
    });
}

size_t
ParallelRunner::suggestedGrain(size_t n, size_t chunksPerThread) const
{
    if (n == 0)
        return 1;
    size_t target = std::max<size_t>(1, chunksPerThread) * _threads;
    return std::clamp<size_t>(n / target, 1, n);
}

const ParallelRunner &
ParallelRunner::global()
{
    static ParallelRunner runner;
    return runner;
}

} // namespace pdnspot
