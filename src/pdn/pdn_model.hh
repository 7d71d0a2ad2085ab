/**
 * @file
 * Abstract PDN model interface.
 *
 * Every concrete topology (MBVR, IVR, LDO, I+MBVR, FlexWatts) maps a
 * PlatformState to an EteeResult by walking the paper's Sec. 3.1
 * pipeline: nominal power -> tolerance-band guardband (Eq. 2) ->
 * power-gate drop -> on-die VR -> load-line (Eq. 3/4) -> board VR
 * conversion losses -> supply power. The pipeline's stages live in
 * pdn/rail_chains.hh; the static topologies are rail tables run by
 * RailTablePdn (pdn/rail_table.hh).
 *
 * The pipeline splits at the load-line. Everything before it is the
 * AR-free demand (PdnModel::demand); the load-line and the board VRs
 * are the delivery (PdnModel::deliver), and the activity ratio
 * reaches a PDN only as deliver's argument (Eq. 3: Ppeak = PD / AR).
 * Operating points that differ only in their AR therefore share one
 * demand.
 */

#ifndef PDNSPOT_PDN_PDN_MODEL_HH
#define PDNSPOT_PDN_PDN_MODEL_HH

#include <array>
#include <cstddef>
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

/** Aggregate outcome of one delivery chain. */
struct ChainResult
{
    Power nominalPower;    ///< sum of served domains' PNOM
    Power inputPower;      ///< power drawn from PSU for this chain
    Power vrLoss;          ///< on-chip + off-chip conversion loss
    Power conduction;      ///< load-line (I^2*R guardband) excess
    Power guardExcess;     ///< TOB + gate drop + rail over-volt + leaks
    Current chipCurrent;   ///< current entering the package
    bool railOn = false;   ///< false if every served domain was gated

    /** Power each domain pulled from this chain's rail. */
    std::array<Power, numDomains> domainShare{};

    void
    accumulate(const ChainResult &other)
    {
        nominalPower += other.nominalPower;
        inputPower += other.inputPower;
        vrLoss += other.vrLoss;
        conduction += other.conduction;
        guardExcess += other.guardExcess;
        chipCurrent += other.chipCurrent;
        railOn = railOn || other.railOn;
        for (size_t i = 0; i < numDomains; ++i)
            domainShare[i] += other.domainShare[i];
    }

    /** Fraction of the rail load drawn by the compute domains. */
    double
    computeShare() const
    {
        Power total, comp;
        for (size_t i = 0; i < numDomains; ++i) {
            total += domainShare[i];
            if (isComputeDomain(static_cast<DomainId>(i)))
                comp += domainShare[i];
        }
        return total > watts(0.0) ? comp / total : 0.0;
    }
};

/**
 * One rail's AR-free half: the chain result up to its load-line (no
 * conduction, input power or board-VR loss yet) and what the
 * load-line is applied to.
 */
struct RailDemand
{
    ChainResult partial;
    Voltage loadLineVoltage; ///< rail (or V_IN) voltage at the load-line
    Power loadLinePower;     ///< power the load-line carries
};

/**
 * A whole PDN's AR-free demand: one RailDemand per rail, in the
 * topology's own order. Fixed size and heap-free; FlexWatts holds
 * both modes' rails.
 */
struct PdnDemand
{
    static constexpr size_t maxRails = 6;
    std::array<RailDemand, maxRails> rails{};
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
    EteeResult
    evaluate(const PlatformState &state) const
    {
        return deliver(demand(state), state.ar);
    }

    /**
     * Everything the state asks of the rails before their
     * load-lines: guardbands, power-gate drops and on-die VRs. Reads
     * no AR, so states that differ only in their AR share it.
     */
    virtual PdnDemand demand(const PlatformState &state) const = 0;

    /**
     * The load-lines (Eq. 3/4) and board VRs of a demand at
     * application ratio `ar`: the full evaluation.
     */
    virtual EteeResult deliver(const PdnDemand &demand,
                               double ar) const = 0;

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
