/**
 * @file
 * FlexWatts hybrid-PDN operating modes.
 */

#ifndef PDNSPOT_FLEXWATTS_HYBRID_MODE_HH
#define PDNSPOT_FLEXWATTS_HYBRID_MODE_HH

#include <array>

#include "common/names.hh"

namespace pdnspot
{

/** The two modes of the FlexWatts hybrid compute rail (Sec. 6). */
enum class HybridMode
{
    IvrMode, ///< V_IN at 1.8 V, on-die buck converters regulate
    LdoMode, ///< V_IN at the max domain voltage, on-die LDOs regulate
};

template <>
inline constexpr NameTable<HybridMode, 2> nameTable<HybridMode>{
    "hybrid mode",
    {{{HybridMode::IvrMode, "IVR-Mode"},
      {HybridMode::LdoMode, "LDO-Mode"}}}};
static_assert(inEnumOrder(nameTable<HybridMode>));

inline constexpr std::array<HybridMode, 2> allHybridModes =
    valuesOf(nameTable<HybridMode>);

} // namespace pdnspot

#endif // PDNSPOT_FLEXWATTS_HYBRID_MODE_HH
