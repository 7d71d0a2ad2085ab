/**
 * @file
 * Per-TDP operating-point construction.
 *
 * The paper's PDNspot takes each domain's nominal power, voltage and
 * activity as inputs measured on real silicon (Sec. 4.2, Table 2).
 * OperatingPointModel reconstructs those inputs from the published
 * calibration anchors:
 *
 *  - nominal power ranges per domain over the 4-50 W TDP span
 *    (Table 2: cores 0.6-30 W, LLC 0.5-4 W, GFX 0.58-29.4 W),
 *  - baseline compute frequency per TDP (e.g. 0.9 GHz cores at 4 W,
 *    Sec. 7.1),
 *  - the battery-life power-state anchors (C0MIN 2.5 W, C2 1.2 W,
 *    C8 0.13 W, Sec. 5),
 *  - leakage fractions (GFX 45%, others 22%) and the V^2.8 leakage
 *    exponent,
 *  - the fan-less junction-temperature policy (80 C at 4-8 W TDP,
 *    100 C above, 50 C for battery-life workloads).
 *
 * Dynamic power scales with the workload's application ratio (AR)
 * relative to the AR=56% reference used throughout the paper (Fig. 5);
 * leakage scales with temperature, not AR. A frequency multiplier
 * supports the performance model's what-if question: what does the
 * platform draw if the compute clock moves off the TDP baseline?
 */

#ifndef PDNSPOT_POWER_OPERATING_POINT_HH
#define PDNSPOT_POWER_OPERATING_POINT_HH

#include <optional>

#include "common/interp.hh"
#include "common/units.hh"
#include "power/leakage.hh"
#include "power/platform_state.hh"
#include "power/vf_curve.hh"

namespace pdnspot
{

/** Builds PlatformState snapshots for any supported operating point. */
class OperatingPointModel
{
  public:
    /** The AR at which the Table 2 nominal powers are anchored. */
    static constexpr double referenceAr = 0.56;

    /** One operating-point request. */
    struct Query
    {
        Power tdp = watts(15.0);
        WorkloadType type = WorkloadType::MultiThread;
        double ar = referenceAr;
        PackageCState cstate = PackageCState::C0;
        std::optional<Celsius> tj;    ///< default: TDP/C-state policy
        double freqMultiplier = 1.0;  ///< compute-clock scaling
    };

    OperatingPointModel();

    /** Construct the full platform snapshot for a query. */
    PlatformState build(const Query &q) const;

    /**
     * The checks build() runs before it builds: TDP range, frequency
     * multiplier and, for C0, the AR. A caller that reuses one built
     * state for queries differing only in AR still checks each.
     */
    void validate(const Query &q) const;

    /** Baseline core frequency sustained at this TDP (CPU loads). */
    Frequency coreBaseFrequency(Power tdp) const;

    /** Baseline graphics frequency at this TDP (graphics loads). */
    Frequency gfxBaseFrequency(Power tdp) const;

    /** Fan-less junction-temperature policy for active workloads. */
    Celsius defaultTj(Power tdp) const;

    /** Both-cores nominal power at the TDP baseline (Table 2 row). */
    Power coresNominal(Power tdp) const;

    /** LLC nominal power at the TDP baseline (Table 2 row). */
    Power llcNominal(Power tdp) const;

    /** GFX nominal power at the TDP baseline (Table 2 row). */
    Power gfxNominal(Power tdp) const;

    const VfCurve &coreVf() const { return _coreVf; }
    const VfCurve &gfxVf() const { return _gfxVf; }
    const LeakageModel &leakage() const { return _leakage; }

    /** Supported TDP range (4-50 W). */
    static Power minTdp() { return watts(4.0); }
    static Power maxTdp() { return watts(50.0); }

  private:
    /** Fill one domain state with temperature scaling. */
    DomainState makeDomain(Power base_power, Voltage voltage,
                           double leak_fraction, double thermal_scale,
                           Frequency freq) const;

    /** Rescale a domain for a compute-clock multiplier. */
    void scaleFrequency(DomainState &d, const VfCurve &vf,
                        double multiplier) const;

    PlatformState buildActive(const Query &q) const;
    PlatformState buildCState(const Query &q) const;

    VfCurve _coreVf;
    VfCurve _gfxVf;
    LeakageModel _leakage;
    LinearTable _coresNom;   ///< both cores, multi-thread, W vs TDP(W)
    LinearTable _llcNom;     ///< W vs TDP(W)
    LinearTable _gfxNom;     ///< W vs TDP(W), graphics workload
    LinearTable _coreFreq;   ///< GHz vs TDP(W)
    LinearTable _gfxFreq;    ///< GHz vs TDP(W)
};

} // namespace pdnspot

#endif // PDNSPOT_POWER_OPERATING_POINT_HH
