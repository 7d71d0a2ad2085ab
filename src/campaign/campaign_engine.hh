/**
 * @file
 * CampaignEngine: executes a CampaignSpec's trace × platform × PDN
 * cross-product across the ParallelRunner thread pool.
 *
 * Cells are flattened platform-major. Before the first cell, one
 * ParallelRunner job builds every Platform (operating-point model,
 * five PDNs, ETEE characterization) and resolves every TraceSpec
 * into one PhaseSoA (workload/phase_soa.hh) that the run's cell
 * range touches, each exactly once and into its own slot; a failed
 * build rethrows the first failure in platform-then-trace order,
 * whatever the scheduling. Workers share these inputs read-only;
 * the models hold no mutable state. Each cell runs through
 * simulateCell(), which picks the one IntervalSimulator kernel for
 * its (PDN, mode) pair.
 *
 * The range runs in waves of at most 256 cells per pool thread.
 * Each wave is one ParallelRunner::forEachChunked job whose cells
 * land at their own index; after the runner joins, the calling
 * thread hands the wave to the sink in order. The runner's join is
 * the engine's only synchronisation.
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
#include "sim/sim_stats.hh"
#include "workload/phase_soa.hh"

namespace pdnspot
{

/**
 * Simulate one (platform, trace, pdn, mode) cell — the one place
 * that decides which IntervalSimulator kernel a (PDN, mode) pair
 * runs: FlexWatts runs the oracle kernel in oracle mode and the PMU
 * kernel (a fresh Pmu at the platform's TDP) in pmu mode; every
 * other pair runs the static kernel, since only FlexWatts has
 * modes. A probed cell and the fleet's cohort profiles pass a record
 * for the kernel to fill.
 */
SimResult simulateCell(const Platform &platform, const PhaseSoA &soa,
                       PdnKind kind, SimMode mode, Time tick,
                       PhaseRecord *record = nullptr);

/** Runs campaigns; stateless apart from the pool binding. */
class CampaignEngine
{
  public:
    /**
     * @param runner thread pool to fan cells across. Pass a
     * ParallelRunner(1) for a serial run.
     */
    explicit CampaignEngine(const ParallelRunner &runner);

    /**
     * The engine keeps a reference to the runner; binding a
     * temporary would dangle after the full expression.
     */
    explicit CampaignEngine(const ParallelRunner &&runner) = delete;

    /**
     * Simulate every (trace, platform, pdn) cell of the spec.
     * Results are ordered platform-major, then trace, then pdn —
     * the same order at any thread count.
     */
    CampaignResult run(const CampaignSpec &spec) const;

    /**
     * Streaming variant: cells are delivered to the sink in the same
     * canonical order, on the calling thread, one wave at a time —
     * each wave as soon as all of its cells have completed. Results
     * are held for one wave only, so memory is bounded by a multiple
     * of the thread count, never the campaign size. An exception
     * from a cell is rethrown once its wave has finished, before
     * that wave is delivered; an exception from the sink propagates
     * directly and ends the run.
     */
    void run(const CampaignSpec &spec, CampaignSink &sink) const;

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
             size_t firstCell, size_t endCell) const;

  private:
    const ParallelRunner &_runner;
};

} // namespace pdnspot

#endif // PDNSPOT_CAMPAIGN_CAMPAIGN_ENGINE_HH
