/**
 * @file
 * PhaseSoA: a phase trace resolved into structure-of-arrays form for
 * batch evaluation.
 *
 * The campaign inner loop evaluates operating-point and PDN (ETEE)
 * math per phase per cell, yet traces revisit the same few platform
 * states over and over — a battery-profile frame trace repeats its
 * residency states every frame. A PhaseSoA splits a PhaseTrace into
 * (a) the deduplicated list of distinct state inputs ("unique
 * phases", keyed on (cstate, type, canonical AR) and kept in
 * first-appearance order) and (b) dense per-phase arrays of
 * durations and unique-state indices. The dedupe is one pass over
 * the phases through an open-addressed hash table of unique indices
 * (linear probing, a power of two of at least two slots per phase),
 * each slot compared against its representative in uniquePhases().
 * It is the one input form of every IntervalSimulator kernel
 * (static, oracle, PMU): each resolves a unique state once and then
 * accumulates over the per-phase arrays, in trace order.
 *
 * AR values are canonicalized (canonicalActivityRatio) both in the
 * key and in the stored representative phase, so -0.0/NaN inputs
 * cannot split one logical state into several entries or make the
 * dedup order-dependent.
 */

#ifndef PDNSPOT_WORKLOAD_PHASE_SOA_HH
#define PDNSPOT_WORKLOAD_PHASE_SOA_HH

#include <cstdint>
#include <vector>

#include "common/units.hh"
#include "workload/trace.hh"

namespace pdnspot
{

/** A trace's phases, split for one-pass batch evaluation. */
class PhaseSoA
{
  public:
    PhaseSoA() = default;

    /**
     * Resolve a trace; phase order is preserved. Implicit, so the
     * simulator kernels take a PhaseTrace wherever they take a
     * PhaseSoA.
     */
    PhaseSoA(const PhaseTrace &trace);

    /** Phases in the source trace (== durations().size()). */
    size_t phaseCount() const { return _durations.size(); }

    /** Distinct (cstate, type, canonical AR) states in the trace. */
    size_t uniqueCount() const { return _uniquePhases.size(); }

    /** Per-phase durations, in trace order. */
    const std::vector<Time> &durations() const { return _durations; }

    /** Per-phase index into uniquePhases(), in trace order. */
    const std::vector<uint32_t> &
    uniqueIndex() const
    {
        return _uniqueIndex;
    }

    /**
     * One representative phase per distinct state, in first-
     * appearance order, with the AR canonicalized. Durations of
     * these representatives are meaningless to batch consumers —
     * per-phase time lives in durations().
     */
    const std::vector<TracePhase> &
    uniquePhases() const
    {
        return _uniquePhases;
    }

  private:
    std::vector<Time> _durations;
    std::vector<uint32_t> _uniqueIndex;
    std::vector<TracePhase> _uniquePhases;
};

} // namespace pdnspot

#endif // PDNSPOT_WORKLOAD_PHASE_SOA_HH
