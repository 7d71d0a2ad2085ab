/**
 * @file
 * Package power states (C-states).
 *
 * Battery-life workloads duty-cycle the processor between a
 * minimum-frequency active state (C0MIN) and package C-states
 * (C2...C8) in which progressively more of the SoC is clock- and
 * power-gated (paper Sec. 5, Observation 3). The paper's video
 * playback example: C0MIN 2.5 W for 10% of frame time, C2 1.2 W for
 * 5%, C8 0.13 W for 85%.
 */

#ifndef PDNSPOT_POWER_PACKAGE_CSTATE_HH
#define PDNSPOT_POWER_PACKAGE_CSTATE_HH

#include <array>

#include "common/names.hh"

namespace pdnspot
{

/** Package-level power state. */
enum class PackageCState
{
    C0,    ///< fully active at the workload's operating frequency
    C0Min, ///< active at minimum frequency (battery-life active state)
    C2,    ///< compute gated; display controller fetches from memory
    C3,    ///< LLC flushed and gated
    C6,    ///< compute context saved to SRAM, voltage removed
    C7,    ///< deeper C6 variant
    C8,    ///< display refresh from local buffer; memory self-refresh
};

/** Idle C-states used by battery-life residency profiles (Fig. 4j). */
inline constexpr std::array<PackageCState, 6> batteryLifeCStates = {
    PackageCState::C0Min, PackageCState::C2, PackageCState::C3,
    PackageCState::C6, PackageCState::C7, PackageCState::C8,
};

template <>
inline constexpr NameTable<PackageCState, 7> nameTable<PackageCState>{
    "C-state",
    {{{PackageCState::C0, "C0"},
      {PackageCState::C0Min, "C0MIN"},
      {PackageCState::C2, "C2"},
      {PackageCState::C3, "C3"},
      {PackageCState::C6, "C6"},
      {PackageCState::C7, "C7"},
      {PackageCState::C8, "C8"}}}};
static_assert(inEnumOrder(nameTable<PackageCState>));

/** True if the compute domains (cores, LLC, GFX) are power-gated. */
constexpr bool
computeGated(PackageCState state)
{
    return state != PackageCState::C0 && state != PackageCState::C0Min;
}

} // namespace pdnspot

#endif // PDNSPOT_POWER_PACKAGE_CSTATE_HH
