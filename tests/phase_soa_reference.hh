/**
 * @file
 * Ordered-map reference for the PhaseSoA dedupe.
 *
 * PhaseSoA dedupes a trace's phases through an open-addressed hash
 * table. This reference does it the obvious way instead — a
 * std::map from (cstate, type, canonical AR bits) to the unique
 * index, assigned in first-appearance order — so tests can pin the
 * table's per-phase arrays and unique states exactly against an
 * independent dedupe.
 */

#ifndef PDNSPOT_TESTS_PHASE_SOA_REFERENCE_HH
#define PDNSPOT_TESTS_PHASE_SOA_REFERENCE_HH

#include <bit>
#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include "workload/trace.hh"

namespace pdnspot
{
namespace reference
{

/** The arrays a PhaseSoA exposes, built with an ordered map. */
struct PhaseSoAArrays
{
    std::vector<Time> durations;
    std::vector<uint32_t> uniqueIndex;
    std::vector<TracePhase> uniquePhases;
};

inline PhaseSoAArrays
mapDedupe(const PhaseTrace &trace)
{
    PhaseSoAArrays out;
    using Key = std::tuple<int, int, uint64_t>;
    std::map<Key, uint32_t> index;
    for (const TracePhase &phase : trace.phases()) {
        double ar = canonicalActivityRatio(phase.ar);
        Key key{static_cast<int>(phase.cstate),
                static_cast<int>(phase.type),
                std::bit_cast<uint64_t>(ar)};
        auto [it, inserted] = index.emplace(
            key, static_cast<uint32_t>(out.uniquePhases.size()));
        if (inserted) {
            TracePhase rep = phase;
            rep.ar = ar;
            out.uniquePhases.push_back(rep);
        }
        out.durations.push_back(phase.duration);
        out.uniqueIndex.push_back(it->second);
    }
    return out;
}

} // namespace reference
} // namespace pdnspot

#endif // PDNSPOT_TESTS_PHASE_SOA_REFERENCE_HH
