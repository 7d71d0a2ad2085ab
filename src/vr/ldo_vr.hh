/**
 * @file
 * Low-dropout (LDO) linear voltage regulator model.
 *
 * The LDO VR of the paper (Sec. 2.2, Eq. 10) is a linear regulator
 * built from a power switch plus an error amplifier, as in AMD Zen
 * (Singh et al., ISSCC 2017) and Intel's dual-mode LDO/power-gate
 * (Luria et al., JSSC 2016). It has three operating modes:
 *
 *  - Regulation: Vout < Vin; efficiency is (Vout/Vin) * Ie where the
 *    current efficiency Ie is ~99.1% (paper Table 2).
 *  - Bypass: the input is connected straight to the output (Vout ==
 *    Vin); only the current-efficiency loss remains.
 *  - PowerGate: the switch is off and the domain is disconnected.
 */

#ifndef PDNSPOT_VR_LDO_VR_HH
#define PDNSPOT_VR_LDO_VR_HH

#include <string>

#include "common/names.hh"
#include "common/units.hh"

namespace pdnspot
{

/** Operating mode of an LDO VR. */
enum class LdoMode
{
    Regulation, ///< linear down-conversion
    Bypass,     ///< input shorted to output
    PowerGate,  ///< domain disconnected
};

template <>
inline constexpr NameTable<LdoMode, 3> nameTable<LdoMode>{
    "LDO mode",
    {{{LdoMode::Regulation, "regulation"},
      {LdoMode::Bypass, "bypass"},
      {LdoMode::PowerGate, "power-gate"}}}};
static_assert(inEnumOrder(nameTable<LdoMode>));

/** Parameters of an LDO VR. */
struct LdoParams
{
    std::string name;               ///< rail name, e.g. "V_GFX"
    double currentEfficiency = 0.991; ///< Iout / Iin (paper Table 2)
    Voltage dropout = millivolts(25.0); ///< min Vin - Vout in regulation
    Current maxCurrent = amps(45.0);  ///< switch design limit
};

/**
 * A low-dropout linear regulator. The efficiency model is exactly the
 * paper's Eq. 10: eta_LDO = (Vout / Vin) * Ie.
 */
class LdoVr
{
  public:
    explicit LdoVr(LdoParams params);

    const std::string &name() const { return _params.name; }
    const LdoParams &params() const { return _params; }

    /** The mode this LDO must use to produce vout from vin. */
    LdoMode modeFor(Voltage vin, Voltage vout) const;

    /** Eq. 10: (Vout/Vin) * Ie. Bypass keeps only the Ie loss. */
    double efficiency(Voltage vin, Voltage vout) const;

    /** Input power for a given output power. */
    Power inputPower(Voltage vin, Voltage vout, Power pout) const;

    /** Conversion loss for a given output power. */
    Power loss(Voltage vin, Voltage vout, Power pout) const;

  private:
    LdoParams _params;
};

} // namespace pdnspot

#endif // PDNSPOT_VR_LDO_VR_HH
