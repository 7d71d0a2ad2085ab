/**
 * @file
 * CampaignEngine: executes a CampaignSpec's trace × platform × PDN
 * cross-product across the ParallelRunner thread pool.
 *
 * Cells are flattened platform-major and claimed in chunked ranges
 * (ParallelRunner::forEachChunked). Before the first chunk, the
 * calling thread builds every Platform (operating-point model, five
 * PDNs, ETEE characterization) and resolves every TraceSpec into
 * one PhaseSoA (workload/phase_soa.hh) that the run's cell range
 * touches, each exactly once. Workers share these inputs read-only;
 * the models hold no mutable state. Each cell runs through
 * simulateCell(), which picks the one IntervalSimulator kernel for
 * its (PDN, mode) pair.
 *
 * Determinism contract: every cell's SimResult depends only on its
 * (trace spec, platform config, pdn, mode, tick) inputs and lands at
 * its own index, so a CampaignResult is bit-identical to the serial
 * run at any thread count.
 */

#ifndef PDNSPOT_CAMPAIGN_CAMPAIGN_ENGINE_HH
#define PDNSPOT_CAMPAIGN_CAMPAIGN_ENGINE_HH

#include "campaign/campaign_result.hh"
#include "campaign/campaign_spec.hh"
#include "common/parallel.hh"
#include "obs/metrics.hh"
#include "sim/sim_stats.hh"
#include "workload/phase_soa.hh"

namespace pdnspot
{

class SignalProbe;

/**
 * Simulate one (platform, trace, pdn, mode) cell — the one place
 * that decides which IntervalSimulator kernel a (PDN, mode) pair
 * runs: FlexWatts runs the oracle kernel in oracle mode and the PMU
 * kernel (a fresh Pmu at the platform's TDP) in pmu mode; every
 * other pair runs the static kernel, since only FlexWatts has
 * modes. The fleet's cohort profiles call it too.
 */
SimResult simulateCell(const Platform &platform, const PhaseSoA &soa,
                       PdnKind kind, SimMode mode, Time tick,
                       SignalProbe *probe = nullptr);

/**
 * Aggregate execution statistics of one CampaignEngine run, summed
 * across worker threads: the denominators of throughput figures
 * (cells and phases simulated). Purely observational —
 * filling them never perturbs results.
 *
 * Since the observability layer landed this is a thin view over the
 * well-known campaign metrics (obs/metrics.hh): the engine reports
 * into the installed MetricsRegistry (installing a run-private one
 * when the caller wants stats and none is active) and fills this
 * struct from counter deltas — see campaignStatsSnapshot().
 */
struct CampaignRunStats
{
    size_t cells = 0;     ///< cells simulated by this run
    uint64_t phases = 0;  ///< trace phases stepped, over all cells
};

/**
 * Project a registry's well-known campaign counters into a
 * CampaignRunStats. Totals since the registry's construction; the
 * engine attributes a single run by subtracting a baseline snapshot
 * taken at run start.
 */
CampaignRunStats campaignStatsSnapshot(
    const MetricsRegistry &registry);

/** Runs campaigns; stateless apart from the pool binding. */
class CampaignEngine
{
  public:
    /**
     * @param runner thread pool to fan cells across. Pass a
     * ParallelRunner(1) for a serial run.
     */
    explicit CampaignEngine(const ParallelRunner &runner);

    /** Binding a temporary runner would dangle; see SweepEngine. */
    explicit CampaignEngine(const ParallelRunner &&runner) = delete;

    /**
     * Simulate every (trace, platform, pdn) cell of the spec.
     * Results are ordered platform-major, then trace, then pdn —
     * the same order at any thread count.
     */
    CampaignResult run(const CampaignSpec &spec) const;

    /**
     * Streaming variant: cells are delivered to the sink in the same
     * canonical order, each as soon as every earlier cell has
     * completed. Workers emit finished chunks into per-thread shards
     * and a single flush cursor drains the contiguous prefix;
     * workers that run far ahead of the cursor wait for it, so the
     * reorder buffer is bounded by a small multiple of the thread
     * count — never the campaign size.
     *
     * When `stats` is non-null it is overwritten with this run's
     * aggregate execution statistics.
     */
    void run(const CampaignSpec &spec, CampaignSink &sink,
             CampaignRunStats *stats = nullptr) const;

    /**
     * Stream one contiguous range [firstCell, endCell) of the
     * spec's canonical cell order — the sharding primitive: n
     * processes running disjoint covering ranges produce outputs
     * whose concatenation is byte-identical to the full run (each
     * cell's result is independent of which range computes it).
     * fatal() unless firstCell <= endCell <= cellCount(). Only
     * the platforms and traces the range touches are built.
     */
    void run(const CampaignSpec &spec, CampaignSink &sink,
             size_t firstCell, size_t endCell,
             CampaignRunStats *stats = nullptr) const;

  private:
    const ParallelRunner &_runner;
};

} // namespace pdnspot

#endif // PDNSPOT_CAMPAIGN_CAMPAIGN_ENGINE_HH
