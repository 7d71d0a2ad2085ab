/**
 * @file
 * Abstract PDN model interface.
 *
 * Every concrete topology (MBVR, IVR, LDO, I+MBVR, FlexWatts) maps a
 * PlatformState to an EteeResult by walking the paper's Sec. 3.1
 * pipeline: nominal power -> tolerance-band guardband (Eq. 2) ->
 * power-gate drop -> load-line (Eq. 3/4) -> VR conversion losses ->
 * supply power. The shared pipeline lives in pdn/rail_chains.hh.
 */

#ifndef PDNSPOT_PDN_PDN_MODEL_HH
#define PDNSPOT_PDN_PDN_MODEL_HH

#include <array>
#include <string>
#include <vector>

#include "common/names.hh"
#include "common/units.hh"
#include "pdn/etee_result.hh"
#include "power/guardband.hh"
#include "power/platform_state.hh"

namespace pdnspot
{

/** The five PDN architectures evaluated in the paper. */
enum class PdnKind
{
    IVR,       ///< two-stage, integrated second stage (state of the art)
    MBVR,      ///< one-stage motherboard VRs
    LDO,       ///< two-stage with on-die LDO second stage (AMD Zen)
    IplusMBVR, ///< IVR for compute, off-chip VRs for SA/IO (Skylake-X)
    FlexWatts, ///< this paper: hybrid adaptive IVR/LDO
};

/** The three static PDNs the motivation study compares (Fig. 4/5). */
inline constexpr std::array<PdnKind, 3> classicPdnKinds = {
    PdnKind::IVR, PdnKind::MBVR, PdnKind::LDO,
};

/**
 * The canonical spelling of each PDN kind — the single source of
 * truth for every CSV export, spec-file binding and model name().
 */
template <>
inline constexpr NameTable<PdnKind, 5> nameTable<PdnKind>{
    "PDN kind",
    {{{PdnKind::IVR, "IVR"},
      {PdnKind::MBVR, "MBVR"},
      {PdnKind::LDO, "LDO"},
      {PdnKind::IplusMBVR, "I+MBVR"},
      {PdnKind::FlexWatts, "FlexWatts"}}}};
static_assert(inEnumOrder(nameTable<PdnKind>));

inline constexpr std::array<PdnKind, 5> allPdnKinds =
    valuesOf(nameTable<PdnKind>);

/** An off-chip rail description, consumed by the BOM/area models. */
struct OffChipRail
{
    std::string name;      ///< e.g. "V_Cores", "V_IN"
    Voltage outputVoltage; ///< worst-case (highest) setpoint
    Current iccMax;        ///< maximum design current
};

/** Platform-wide electrical constants shared by all topologies. */
struct PdnPlatformParams
{
    Voltage supplyVoltage = volts(7.2);   ///< PSU/battery rail
    Voltage ivrInputVoltage = volts(1.8); ///< first-stage output (IVR)
    Resistance gateResistance = milliohms(1.5); ///< RPG (Table 2)
    Power gateOffLeakage = milliwatts(1.0); ///< per gated-off domain
};

/** Base class for all PDN topologies. */
class PdnModel
{
  public:
    explicit PdnModel(PdnPlatformParams platform);
    virtual ~PdnModel() = default;

    PdnModel(const PdnModel &) = delete;
    PdnModel &operator=(const PdnModel &) = delete;

    virtual PdnKind kind() const = 0;

    /** The kind's canonical spelling (nameTable<PdnKind>). */
    std::string name() const { return nameOf(kind()); }

    /** Evaluate ETEE and the loss breakdown at one operating point. */
    virtual EteeResult evaluate(const PlatformState &state) const = 0;

    /**
     * The off-chip rails this topology needs, sized for the given
     * platform state's peak (power-virus, AR = 1) demand. Input to
     * the BOM and board-area models; callers merge rail lists over
     * the workloads the platform must support.
     */
    virtual std::vector<OffChipRail>
    offChipRails(const PlatformState &peak) const = 0;

    const PdnPlatformParams &platform() const { return _platform; }
    const GuardbandModel &guardband() const { return _guardband; }

  protected:
    PdnPlatformParams _platform;
    GuardbandModel _guardband;
};

} // namespace pdnspot

#endif // PDNSPOT_PDN_PDN_MODEL_HH
