/**
 * @file
 * FleetEngine: closed-form population simulation over the batched
 * inner loop.
 *
 * The engine simulates millions of lightweight device sessions on a
 * shared virtual clock of whole nanoseconds in fixed time buckets.
 * The expensive physics runs once per *cohort*, not per session:
 * each cohort's trace is resolved into PhaseSoA form and profiled
 * into dense per-phase supply-power / mode-switch arrays from the
 * PhaseRecord of one run of the campaign's cell kernel (simulateCell,
 * campaign/campaign_engine.hh), which the cohort replays
 * (fleet/cohort_profile.hh).
 *
 * A session is that profile from its own start offset with its own
 * battery capacity, so what it draws up to any time is a difference
 * of the cohort's cumulative energy at two shifted positions. Each
 * session is solved once, at set-up: where its charge runs out, and
 * so the bucket it dies in. Each cohort's offsets are sorted once,
 * and its live sessions are a bitmap over their ranks with an exact
 * offset sum per 64 ranks: per phase, how many live sessions sit in
 * it and their exact position sum are the blocks and bits between
 * two ranks. A bucket then costs one rank search per phase a live
 * session occupies, one pass over each cohort's bitmap, and O(1)
 * per session dying in it, which clears its bit and adds what it is
 * owed up to its death.
 *
 * Set-up runs on the runner: sessions in chunks, each one pure, and
 * every cohort's offset sort at once, a big one in per-worker
 * shares. The bucket loop and every reduction are serial in a fixed
 * order, so the aggregate CSV is byte-identical at any thread count.
 */

#ifndef PDNSPOT_FLEET_FLEET_ENGINE_HH
#define PDNSPOT_FLEET_FLEET_ENGINE_HH

#include <functional>

#include "common/parallel.hh"
#include "fleet/fleet_result.hh"
#include "fleet/fleet_spec.hh"

namespace pdnspot
{

/** Executes fleet specs; see the file comment for the model. */
class FleetEngine
{
  public:
    /** Uses the given pool (1 thread = fully serial). */
    explicit FleetEngine(const ParallelRunner &runner);

    /**
     * Called after each completed bucket with (buckets done, buckets
     * total) — the CLI progress heartbeat. Purely observational and
     * invoked on the calling thread, in bucket order.
     */
    using Progress = std::function<void(uint64_t, uint64_t)>;

    /**
     * Run the spec (validated first) to its horizon, or until every
     * session's battery is empty, whichever comes first.
     */
    FleetResult run(const FleetSpec &spec,
                    const Progress &progress = {}) const;

  private:
    const ParallelRunner &_runner;
};

} // namespace pdnspot

#endif // PDNSPOT_FLEET_FLEET_ENGINE_HH
