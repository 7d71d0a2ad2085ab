/**
 * @file
 * FleetEngine: event-stepped population simulation over the batched
 * inner loop.
 *
 * The engine advances millions of lightweight device sessions on a
 * shared virtual clock of whole nanoseconds in fixed time buckets.
 * The expensive physics runs once per *cohort*, not per session:
 * each cohort's trace is resolved into PhaseSoA form and profiled
 * into dense per-phase supply-power / mode-switch arrays by one
 * probed run of the campaign's cell kernel (simulateCell,
 * campaign/campaign_engine.hh) whose waveform the cohort replays
 * (fleet/cohort_profile.hh). Per-session mutable state is packed
 * structure-of-arrays — phase cursor, clock position in the cycle,
 * battery charge, accumulated energy, death time — 40 bytes per
 * session, no per-session Platform objects. A session steps a bucket
 * in O(log n) for an n-phase cycle: whole cycles in closed form,
 * the rest by binary search on the cohort's doubled-cycle prefix
 * sums.
 *
 * Parallelism follows the campaign discipline: sessions are chunked
 * with a *fixed* grain (thread-count independent), per-chunk partial
 * aggregates land in a slot keyed by chunk index, and the per-bucket
 * reduction walks chunks in canonical order — so the aggregate CSV
 * is byte-identical at any thread count.
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
     * Sessions are claimed in fixed-size ranges of this many
     * indices; the chunk partition depends only on the session
     * count, never on the thread count (the determinism contract).
     */
    static constexpr size_t sessionGrain = 1024;

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
