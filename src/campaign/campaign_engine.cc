#include "campaign/campaign_engine.hh"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/span_trace.hh"
#include "pmu/pmu.hh"
#include "sim/interval_simulator.hh"

namespace pdnspot
{

namespace
{

/**
 * A trace materialized for simulation: the phase-by-phase form (the
 * PMU path steps it) plus its batch-evaluation SoA form (every other
 * path). Both derive deterministically from the TraceSpec.
 */
struct ResolvedTrace
{
    PhaseTrace trace;
    PhaseSoA soa;

    explicit ResolvedTrace(PhaseTrace t)
        : trace(std::move(t)), soa(trace)
    {}
};

SimResult
simulateCell(const Platform &platform, const ResolvedTrace &rt,
             PdnKind kind, const CampaignSpec &spec, Time tick,
             SignalProbe *probe)
{
    IntervalSimulator sim(platform.operatingPoints(),
                          platform.config().tdp, tick);
    if (kind == PdnKind::FlexWatts) {
        if (spec.mode == SimMode::Oracle)
            return sim.runOracle(rt.soa, platform.flexWatts(), probe);
        if (spec.mode == SimMode::Pmu) {
            PmuConfig cfg;
            cfg.tdp = platform.config().tdp;
            Pmu pmu(cfg, platform.predictor());
            return sim.run(rt.trace, platform.flexWatts(), pmu,
                           probe);
        }
    }
    // Non-hybrid PDNs have no mode logic: every mode simulates them
    // statically — through the batched SoA path.
    return sim.run(rt.soa, platform.pdn(kind), probe);
}

/** Collects streamed cells back into an in-memory CampaignResult. */
class CollectSink : public CampaignSink
{
  public:
    explicit CollectSink(std::vector<CampaignCellResult> &cells)
        : _cells(cells)
    {}

    void
    consume(CampaignCellResult cell) override
    {
        _cells.push_back(std::move(cell));
    }

  private:
    std::vector<CampaignCellResult> &_cells;
};

} // namespace

CampaignRunStats
campaignStatsSnapshot(const MetricsRegistry &registry)
{
    CampaignRunStats s;
    s.cells = registry.counterValue(Metric::CampaignCells);
    s.phases = registry.counterValue(Metric::CampaignPhases);
    return s;
}

CampaignEngine::CampaignEngine(const ParallelRunner &runner)
    : _runner(runner)
{}

CampaignResult
CampaignEngine::run(const CampaignSpec &spec) const
{
    CampaignResult result;
    result.cells.reserve(spec.cellCount());
    CollectSink sink(result.cells);
    run(spec, sink);
    return result;
}

void
CampaignEngine::run(const CampaignSpec &spec, CampaignSink &sink,
                    CampaignRunStats *stats) const
{
    run(spec, sink, 0, spec.cellCount(), stats);
}

void
CampaignEngine::run(const CampaignSpec &spec, CampaignSink &sink,
                    size_t firstCell, size_t endCell,
                    CampaignRunStats *stats) const
{
    spec.validate();
    if (firstCell > endCell || endCell > spec.cellCount())
        fatal(strprintf("CampaignEngine: cell range [%zu, %zu) "
                        "outside the campaign's %zu cells",
                        firstCell, endCell, spec.cellCount()));

    size_t nPdns = spec.pdns.size();
    size_t cellsPerPlatform = spec.traces.size() * nPdns;
    size_t n = endCell - firstCell;

    // Execution statistics flow through the metrics registry. When
    // the caller wants stats and no registry is installed (the
    // common library-use case), install a run-private one; when one
    // is already installed (pdnspot_campaign --report), report into
    // it and attribute this run's share by baseline subtraction.
    // Concurrent runs in one process share the installed registry,
    // so their per-run stats would mix — one campaign at a time is
    // the supported shape.
    std::optional<MetricsRegistry> localRegistry;
    std::optional<MetricsInstallation> localInstall;
    MetricsRegistry *registry = MetricsRegistry::current();
    if (stats && !registry) {
        localRegistry.emplace();
        localInstall.emplace(*localRegistry);
        registry = &*localRegistry;
    }
    CampaignRunStats baseline;
    if (stats)
        baseline = campaignStatsSnapshot(*registry);

    // The run's read-only inputs, built serially before any chunk:
    // each platform and trace the cell range touches, exactly once.
    // The range's platforms are contiguous; its traces are those of
    // its first (at most) cellsPerPlatform cells.
    std::vector<std::unique_ptr<const Platform>> platforms(
        spec.platforms.size());
    std::vector<std::unique_ptr<const ResolvedTrace>> traces(
        spec.traces.size());
    if (n > 0) {
        for (size_t p = firstCell / cellsPerPlatform;
             p <= (endCell - 1) / cellsPerPlatform; ++p) {
            SpanScope span("campaign.platform_build", "campaign");
            platforms[p] =
                std::make_unique<const Platform>(spec.platforms[p]);
            metricAdd(Metric::CampaignPlatformBuilds);
        }
        size_t traceEnd =
            std::min(endCell, firstCell + cellsPerPlatform);
        for (size_t cell = firstCell; cell < traceEnd; ++cell) {
            size_t t = cell % cellsPerPlatform / nPdns;
            if (!traces[t])
                traces[t] = std::make_unique<const ResolvedTrace>(
                    spec.traces[t].resolve());
        }
    }

    // Each completed chunk lands in `pending` as a shard keyed by
    // its begin index; the flush cursor drains the contiguous
    // prefix into the sink, so delivery order depends only on
    // (n, grain) — never on scheduling — and a shard's memory is
    // reclaimed as soon as every earlier cell is done.
    //
    // Backpressure: a worker whose shard is not next in line waits
    // while `pending` is full instead of parking it, so one slow
    // early chunk cannot make the reorder buffer grow toward the
    // campaign size. The worker holding the cursor chunk never
    // waits, and one chunk is processed per claim, so the cursor
    // always advances: no deadlock. `failed` releases every waiter
    // once any chunk or the sink has thrown (the campaign is
    // unwinding; shards are dropped).
    std::mutex flushMutex;
    std::condition_variable space;
    std::map<size_t, std::vector<CampaignCellResult>> pending;
    const size_t maxPending =
        4 * std::max<size_t>(1, _runner.threadCount());
    size_t cursor = 0;
    bool failed = false;

    auto markFailed = [&] {
        std::lock_guard<std::mutex> lock(flushMutex);
        failed = true;
        pending.clear();
        space.notify_all();
    };

    _runner.forEachChunked(
        n, _runner.suggestedGrain(n), [&](size_t begin, size_t end) {
            {
                // Once failing, surface the error instead of
                // spending the rest of the campaign's CPU time on
                // cells that will be dropped anyway.
                std::lock_guard<std::mutex> lock(flushMutex);
                if (failed)
                    return;
            }
            SpanScope chunkSpan("campaign.chunk", "campaign");
            // Cell timing costs two clock reads per cell; pay them
            // only while a registry is collecting.
            const bool timeCells =
                MetricsRegistry::current() != nullptr;
            std::vector<CampaignCellResult> shard;
            shard.reserve(end - begin);
            uint64_t chunkPhases = 0;
            try {
                for (size_t t = begin; t < end; ++t) {
                    SpanScope cellSpan("campaign.cell", "campaign");
                    std::chrono::steady_clock::time_point cellStart;
                    if (timeCells)
                        cellStart = std::chrono::steady_clock::now();
                    size_t cell = firstCell + t;
                    size_t p = cell / cellsPerPlatform;
                    size_t rest = cell % cellsPerPlatform;
                    size_t traceIdx = rest / nPdns;
                    const TraceSpec &traceSpec =
                        spec.traces[traceIdx];
                    const ResolvedTrace &rt = *traces[traceIdx];
                    CampaignCellResult c;
                    c.trace = traceSpec.name();
                    c.platform = spec.platforms[p].name;
                    c.pdn = spec.pdns[rest % nPdns];
                    c.mode = spec.mode;
                    // Probe binding is per cell and worker-private;
                    // the empty-probes check keeps unprobed
                    // campaigns on the exact PR-7 fast path.
                    std::unique_ptr<SignalProbe> probe;
                    if (!spec.probes.empty()) {
                        std::string pdnName = toString(c.pdn);
                        std::string modeName = toString(c.mode);
                        for (const ProbeSpec &ps : spec.probes) {
                            if (ps.matches(c.trace, c.platform,
                                           pdnName, modeName)) {
                                probe = std::make_unique<SignalProbe>(
                                    ps, spec.platforms[p].tdp);
                                break;
                            }
                        }
                    }
                    c.sim = simulateCell(
                        *platforms[p], rt, c.pdn, spec,
                        traceSpec.tickOverride().value_or(spec.tick),
                        probe.get());
                    if (probe) {
                        Waveform w = probe->take();
                        w.trace = c.trace;
                        w.platform = c.platform;
                        w.pdn = toString(c.pdn);
                        w.mode = toString(c.mode);
                        w.cellIndex = cell;
                        c.waveform =
                            std::make_shared<const Waveform>(
                                std::move(w));
                    }
                    chunkPhases += rt.soa.phaseCount();
                    shard.push_back(std::move(c));
                    if (timeCells) {
                        std::chrono::duration<double, std::micro>
                            us = std::chrono::steady_clock::now() -
                                 cellStart;
                        metricObserve(Metric::CampaignCellMicros,
                                      us.count());
                    }
                }
                metricAdd(Metric::CampaignCells, end - begin);
                metricAdd(Metric::CampaignChunks);
                metricAdd(Metric::CampaignPhases, chunkPhases);
                // The chunk boundary is the merge point: bank this
                // thread's buffered deltas so a snapshot taken
                // between chunks is at most one chunk stale.
                MetricsRegistry::flushThread();
            } catch (...) {
                // A stuck cursor must not strand waiting workers.
                markFailed();
                throw;
            }

            std::unique_lock<std::mutex> lock(flushMutex);
            space.wait(lock, [&] {
                return failed || begin == cursor ||
                       pending.size() < maxPending;
            });
            if (failed)
                return; // campaign is already failing; drop the rows
            pending.emplace(begin, std::move(shard));
            while (!pending.empty() &&
                   pending.begin()->first == cursor) {
                auto node = pending.extract(pending.begin());
                cursor += node.mapped().size();
                for (CampaignCellResult &cell : node.mapped()) {
                    try {
                        sink.consume(std::move(cell));
                    } catch (...) {
                        // Deliver nothing further after a sink
                        // error; the runner rethrows this to the
                        // caller once the job drains.
                        failed = true;
                        pending.clear();
                        space.notify_all();
                        throw;
                    }
                }
            }
            space.notify_all();
        });

    if (cursor != n || !pending.empty())
        panic("CampaignEngine: streamed cell count does not cover "
              "the campaign");

    if (stats) {
        // Every worker flushed at its last chunk boundary and again
        // after the runner drain (parallel.cc), so the registry
        // holds this run's complete totals.
        CampaignRunStats total = campaignStatsSnapshot(*registry);
        stats->cells = total.cells - baseline.cells;
        stats->phases = total.phases - baseline.phases;
    }
}

} // namespace pdnspot
