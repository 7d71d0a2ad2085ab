/**
 * @file
 * Processor power domains of the modeled client SoC.
 *
 * The platform follows the paper's Table 1: two CPU cores on one clock
 * domain, graphics engines (GFX), a last-level cache (LLC), the
 * system-agent (SA: memory controller, display controller, IO fabric),
 * and the IO domain (DDRIO, display IO). Each domain is an independent
 * voltage load on the PDN.
 */

#ifndef PDNSPOT_POWER_DOMAIN_HH
#define PDNSPOT_POWER_DOMAIN_HH

#include <array>
#include <cstddef>
#include <string>

#include "common/names.hh"
#include "common/units.hh"

namespace pdnspot
{

/** The six voltage loads of the modeled processor (paper Fig. 1). */
enum class DomainId : size_t
{
    Core0 = 0,
    Core1,
    LLC,
    GFX,
    SA,
    IO,
};

inline constexpr size_t numDomains = 6;

/** Domains with a wide power range (hybrid-PDN candidates in Sec. 6). */
inline constexpr std::array<DomainId, 4> computeDomains = {
    DomainId::Core0, DomainId::Core1, DomainId::LLC, DomainId::GFX,
};

/** Domains with a low, narrow power range (off-chip VRs in FlexWatts). */
inline constexpr std::array<DomainId, 2> uncoreDomains = {
    DomainId::SA, DomainId::IO,
};

template <>
inline constexpr NameTable<DomainId, numDomains> nameTable<DomainId>{
    "domain",
    {{{DomainId::Core0, "Core0"},
      {DomainId::Core1, "Core1"},
      {DomainId::LLC, "LLC"},
      {DomainId::GFX, "GFX"},
      {DomainId::SA, "SA"},
      {DomainId::IO, "IO"}}}};
static_assert(inEnumOrder(nameTable<DomainId>));

inline constexpr std::array<DomainId, numDomains> allDomains =
    valuesOf(nameTable<DomainId>);

constexpr size_t
domainIndex(DomainId id)
{
    return static_cast<size_t>(id);
}

constexpr bool
isComputeDomain(DomainId id)
{
    return id == DomainId::Core0 || id == DomainId::Core1 ||
           id == DomainId::LLC || id == DomainId::GFX;
}

/**
 * Electrical operating point of one domain at one instant: the inputs
 * each PDN model consumes (paper Sec. 3.1: a load's nominal power is a
 * function of power state, activity, frequency, voltage, temperature).
 * There is no per-domain AR: the activity ratio is platform-wide
 * (PlatformState::ar) and enters a PDN only at its load-lines.
 */
struct DomainState
{
    bool active = false;           ///< powered (false = power-gated)
    Voltage voltage;               ///< nominal supply voltage VNOM
    Power nominalPower;            ///< PNOM at this operating point
    double leakageFraction = 0.22; ///< FL: leakage share of PNOM
    Frequency frequency;           ///< clock (zero for fixed-freq doms)
};

} // namespace pdnspot

#endif // PDNSPOT_POWER_DOMAIN_HH
