/**
 * @file
 * The FlexWatts hybrid adaptive PDN (paper Sec. 6, Fig. 6).
 *
 * Topology: the compute domains (cores, LLC, GFX) sit on a hybrid
 * rail that operates either as an IVR chain (V_IN at 1.8 V, on-die
 * buck second stage) or as an LDO chain (V_IN at the max compute
 * voltage, on-die LDO second stage); SA and IO get dedicated one-stage
 * off-chip VRs behind power gates. In each mode the whole PDN is
 * therefore an existing topology, so FlexWattsPdn is two rail tables
 * (pdn/rail_table.hh) plus the mode choice: IVR-Mode runs the I+MBVR
 * table over rails 0-2 of its PdnDemand and LDO-Mode the LDO table
 * over rails 3-5. Resource sharing between the two modes slightly
 * raises the compute load-line relative to the pure IVR (1.1 vs
 * 1.0 mOhm) and pure LDO (1.4 vs 1.25 mOhm) PDNs, which is why
 * FlexWatts trails the per-TDP best static PDN by <1% (Sec. 7).
 *
 * The off-chip rail set is sized for IVR-Mode: whenever a high-current
 * workload arrives the predictor switches to IVR-Mode, so the shared
 * V_IN never needs LDO-Mode-level current (Sec. 7, "Why does FlexWatts
 * have better BOM and board area than LDO and MBVR?").
 */

#ifndef PDNSPOT_FLEXWATTS_FLEXWATTS_PDN_HH
#define PDNSPOT_FLEXWATTS_FLEXWATTS_PDN_HH

#include <vector>

#include "flexwatts/hybrid_mode.hh"
#include "pdn/pdn_model.hh"
#include "pdn/rail_table.hh"

namespace pdnspot
{

/** Topology parameters of the FlexWatts PDN. */
struct FlexWattsParams
{
    Voltage tobIvrMode = millivolts(21.0); ///< slightly above pure IVR
    Voltage tobLdoMode = millivolts(18.0); ///< slightly above pure LDO
    Resistance rllInIvrMode = milliohms(1.1);  ///< vs 1.0 for pure IVR
    Resistance rllInLdoMode = milliohms(1.4);  ///< vs 1.25 for pure LDO
    Resistance rllSa = milliohms(7.0);
    Resistance rllIo = milliohms(4.0);
};

/**
 * The hybrid adaptive PDN: an I+MBVR rail table for IVR-Mode and an
 * LDO rail table for LDO-Mode, both at FlexWatts' shared-resource TOBs
 * and load-lines, plus the choice between them.
 */
class FlexWattsPdn : public PdnModel
{
  public:
    /**
     * Extra die area of one hybrid rail's LDO mode at 14 nm: the LDO
     * reuses the IVR's high-side power switch, decoupling and routing
     * (Sec. 6, after Luria et al., JSSC 2016).
     */
    static Area ldoModeAreaOverhead() { return squareMillimetres(0.041); }

    explicit FlexWattsPdn(PdnPlatformParams platform = {},
                          FlexWattsParams params = {});

    PdnKind kind() const override { return PdnKind::FlexWatts; }

    /** Both modes' rails: IVR-Mode's, then LDO-Mode's. */
    PdnDemand demand(const PlatformState &state) const override;

    /**
     * Oracle delivery: the hybrid rail uses whichever mode yields
     * the higher ETEE at this operating point (what the paper's
     * evaluation assumes the predictor achieves at steady state).
     * evaluate(state) delivers this way too.
     */
    EteeResult deliver(const PdnDemand &demand, double ar) const override;

    /** Delivery pinned to one mode. */
    EteeResult deliver(const PdnDemand &demand, double ar,
                       HybridMode mode) const;

    using PdnModel::evaluate;

    /** Evaluation pinned to one mode (that mode's demand only). */
    EteeResult evaluate(const PlatformState &state,
                        HybridMode mode) const;

    /**
     * The oracle-best mode of a demand delivered at `ar`. Delivers
     * each mode once; when `winner` is given it receives the chosen
     * mode's evaluation.
     */
    HybridMode bestMode(const PdnDemand &demand, double ar,
                        EteeResult *winner = nullptr) const;

    /** The oracle-best mode at this operating point. */
    HybridMode bestMode(const PlatformState &state,
                        EteeResult *winner = nullptr) const;

    std::vector<OffChipRail>
    offChipRails(const PlatformState &peak) const override;

    const FlexWattsParams &params() const { return _params; }

  private:
    FlexWattsParams _params;
    RailTablePdn _ivrMode; ///< rails 0-2 of a FlexWatts demand
    RailTablePdn _ldoMode; ///< rails 3-5
};

} // namespace pdnspot

#endif // PDNSPOT_FLEXWATTS_FLEXWATTS_PDN_HH
