#include "workload/phase_soa.hh"

#include <algorithm>
#include <bit>

#include "common/noise.hh"

namespace pdnspot
{

PhaseSoA::PhaseSoA(const PhaseTrace &trace)
{
    const std::vector<TracePhase> &phases = trace.phases();
    _durations.reserve(phases.size());
    _uniqueIndex.reserve(phases.size());

    // Open addressing with linear probing over unique indices. At
    // least two slots per phase keep the load at or under one half,
    // and a slot compares against its representative, so the table
    // holds nothing but indices. The key is the canonical AR bit
    // pattern: canonicalization has already collapsed -0.0/+0.0 and
    // NaN payload variants, and bit equality matches NaN to NaN.
    constexpr uint32_t empty = UINT32_MAX;
    std::vector<uint32_t> slots(
        std::bit_ceil(std::max<size_t>(2 * phases.size(), 2)), empty);
    const size_t mask = slots.size() - 1;

    for (const TracePhase &phase : phases) {
        double ar = canonicalActivityRatio(phase.ar);
        uint64_t arBits = std::bit_cast<uint64_t>(ar);
        uint64_t stateClass =
            static_cast<uint64_t>(phase.cstate) << 8 |
            static_cast<uint64_t>(phase.type);
        size_t slot = HashNoise::mix(arBits ^ stateClass) & mask;
        uint32_t u;
        while ((u = slots[slot]) != empty) {
            const TracePhase &rep = _uniquePhases[u];
            if (rep.cstate == phase.cstate && rep.type == phase.type &&
                std::bit_cast<uint64_t>(rep.ar) == arBits)
                break;
            slot = (slot + 1) & mask;
        }
        if (u == empty) {
            u = static_cast<uint32_t>(_uniquePhases.size());
            slots[slot] = u;
            TracePhase rep = phase;
            rep.ar = ar;
            _uniquePhases.push_back(rep);
        }
        _durations.push_back(phase.duration);
        _uniqueIndex.push_back(u);
    }
}

} // namespace pdnspot
