#include "campaign/campaign_engine.hh"

#include <algorithm>
#include <chrono>
#include <memory>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/span_trace.hh"
#include "pmu/pmu.hh"
#include "sim/interval_simulator.hh"

namespace pdnspot
{

namespace
{

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

SimResult
simulateCell(const Platform &platform, const PhaseSoA &soa,
             PdnKind kind, SimMode mode, Time tick,
             SignalProbe *probe)
{
    IntervalSimulator sim(platform.operatingPoints(),
                          platform.config().tdp, tick);
    if (kind == PdnKind::FlexWatts) {
        if (mode == SimMode::Oracle)
            return sim.runOracle(soa, platform.flexWatts(), probe);
        if (mode == SimMode::Pmu) {
            PmuConfig cfg;
            cfg.tdp = platform.config().tdp;
            Pmu pmu(cfg, platform.predictor());
            return sim.run(soa, platform.flexWatts(), pmu, probe);
        }
    }
    // Non-hybrid PDNs have no mode logic: every mode simulates them
    // statically.
    return sim.run(soa, platform.pdn(kind), probe);
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
CampaignEngine::run(const CampaignSpec &spec, CampaignSink &sink) const
{
    run(spec, sink, 0, spec.cellCount());
}

void
CampaignEngine::run(const CampaignSpec &spec, CampaignSink &sink,
                    size_t firstCell, size_t endCell) const
{
    spec.validate();
    if (firstCell > endCell || endCell > spec.cellCount())
        fatal(strprintf("CampaignEngine: cell range [%zu, %zu) "
                        "outside the campaign's %zu cells",
                        firstCell, endCell, spec.cellCount()));

    size_t nPdns = spec.pdns.size();
    size_t cellsPerPlatform = spec.traces.size() * nPdns;
    size_t n = endCell - firstCell;

    // The run's read-only inputs, built serially before any chunk:
    // each platform and trace the cell range touches, exactly once.
    // The range's platforms are contiguous; its traces are those of
    // its first (at most) cellsPerPlatform cells.
    std::vector<std::unique_ptr<const Platform>> platforms(
        spec.platforms.size());
    std::vector<std::unique_ptr<const PhaseSoA>> traces(
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
                traces[t] = std::make_unique<const PhaseSoA>(
                    spec.traces[t].resolve());
        }
    }

    // Cells run in waves: each wave is one runner job whose cells
    // land at their own index, and once the runner has joined, the
    // calling thread hands the wave to the sink in order. The join
    // is the only synchronisation, delivery order is the canonical
    // order by construction, and at most one wave of results is
    // held at a time — a fixed multiple of the thread count, never
    // the campaign size.
    const size_t waveCells = 256 * size_t{_runner.threadCount()};
    std::vector<CampaignCellResult> wave;
    for (size_t waveStart = 0; waveStart < n;
         waveStart += waveCells) {
        size_t m = std::min(waveCells, n - waveStart);
        wave.clear();
        wave.resize(m);
        _runner.forEachChunked(m, _runner.suggestedGrain(m),
                               [&](size_t begin, size_t end) {
            SpanScope chunkSpan("campaign.chunk", "campaign");
            // Cell timing costs two clock reads per cell; pay them
            // only while a registry is collecting.
            const bool timeCells =
                MetricsRegistry::current() != nullptr;
            uint64_t chunkPhases = 0;
            for (size_t i = begin; i < end; ++i) {
                SpanScope cellSpan("campaign.cell", "campaign");
                std::chrono::steady_clock::time_point cellStart;
                if (timeCells)
                    cellStart = std::chrono::steady_clock::now();
                size_t cell = firstCell + waveStart + i;
                size_t p = cell / cellsPerPlatform;
                size_t rest = cell % cellsPerPlatform;
                size_t traceIdx = rest / nPdns;
                const TraceSpec &traceSpec = spec.traces[traceIdx];
                const PhaseSoA &soa = *traces[traceIdx];
                CampaignCellResult &c = wave[i];
                c.trace = traceSpec.name();
                c.platform = spec.platforms[p].name;
                c.pdn = spec.pdns[rest % nPdns];
                c.mode = spec.mode;
                // Probe binding is per cell and worker-private; the
                // empty-probes check keeps unprobed campaigns off the
                // probe path entirely.
                std::unique_ptr<SignalProbe> probe;
                if (!spec.probes.empty()) {
                    std::string pdnName = toString(c.pdn);
                    std::string modeName = toString(c.mode);
                    for (const ProbeSpec &ps : spec.probes) {
                        if (ps.matches(c.trace, c.platform, pdnName,
                                       modeName)) {
                            probe = std::make_unique<SignalProbe>(
                                ps, spec.platforms[p].tdp);
                            break;
                        }
                    }
                }
                c.sim = simulateCell(
                    *platforms[p], soa, c.pdn, c.mode,
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
                        std::make_shared<const Waveform>(std::move(w));
                }
                chunkPhases += soa.phaseCount();
                if (timeCells) {
                    std::chrono::duration<double, std::micro> us =
                        std::chrono::steady_clock::now() - cellStart;
                    metricObserve(Metric::CampaignCellMicros,
                                  us.count());
                }
            }
            metricAdd(Metric::CampaignCells, end - begin);
            metricAdd(Metric::CampaignChunks);
            metricAdd(Metric::CampaignPhases, chunkPhases);
        });
        for (CampaignCellResult &cell : wave)
            sink.consume(std::move(cell));
    }
}

} // namespace pdnspot
