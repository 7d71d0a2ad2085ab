/**
 * @file
 * Voltage-regulator power states.
 *
 * Off-chip switching VRs in client platforms implement light-load
 * operating states (phase shedding, pulse skipping, diode emulation)
 * that trade peak-current capability for lower fixed losses. The paper
 * measures the V_IN VR in PS0, PS1, PS3 and PS4 (Sec. 4.2, Fig. 3) and
 * shows that efficiency at a given load current depends strongly on the
 * selected state.
 */

#ifndef PDNSPOT_VR_VR_POWER_STATE_HH
#define PDNSPOT_VR_VR_POWER_STATE_HH

#include <array>

#include "common/names.hh"

namespace pdnspot
{

/** Switching-VR power state, ordered from full power to deepest idle. */
enum class VrPowerState
{
    PS0, ///< all phases active, full current capability
    PS1, ///< phase shedding: single phase, light-load optimized
    PS3, ///< pulse skipping: very light load
    PS4, ///< deepest: microamp-class standby loads only
};

template <>
inline constexpr NameTable<VrPowerState, 4> nameTable<VrPowerState>{
    "VR power state",
    {{{VrPowerState::PS0, "PS0"},
      {VrPowerState::PS1, "PS1"},
      {VrPowerState::PS3, "PS3"},
      {VrPowerState::PS4, "PS4"}}}};
static_assert(inEnumOrder(nameTable<VrPowerState>));

/** All states in order, for iteration. */
inline constexpr std::array<VrPowerState, 4> allVrPowerStates =
    valuesOf(nameTable<VrPowerState>);

} // namespace pdnspot

#endif // PDNSPOT_VR_VR_POWER_STATE_HH
