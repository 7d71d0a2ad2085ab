/**
 * @file
 * End-to-end power-conversion efficiency (ETEE) evaluation result.
 *
 * ETEE is the ratio of the sum of all loads' nominal power to the
 * effective power drawn from the main supply (paper Sec. 2.4 and 3.1).
 * The loss breakdown follows Fig. 5's categories: VR conversion
 * inefficiencies, conduction (I^2*R) losses split into compute
 * (core/GFX/LLC) and uncore (SA/IO) paths, and "others" (tolerance-band
 * guardband excess, power-gate drops and off-state gate leakage).
 */

#ifndef PDNSPOT_PDN_ETEE_RESULT_HH
#define PDNSPOT_PDN_ETEE_RESULT_HH

#include "common/units.hh"

namespace pdnspot
{

/** Where the conversion losses went (Fig. 5 categories). */
struct LossBreakdown
{
    Power vrLoss;             ///< on-chip + off-chip VR inefficiency
    Power conductionCompute;  ///< I^2*R on core/GFX/LLC delivery paths
    Power conductionUncore;   ///< I^2*R on SA/IO delivery paths
    Power other;              ///< guardband excess, power gates, leaks

    Power
    total() const
    {
        return vrLoss + conductionCompute + conductionUncore + other;
    }

    bool operator==(const LossBreakdown &) const = default;
};

/** Result of evaluating one PDN at one platform operating point. */
struct EteeResult
{
    Power nominalPower;        ///< sum of active loads' PNOM
    Power inputPower;          ///< power drawn from PSU/battery
    LossBreakdown loss;
    Current chipInputCurrent;  ///< total current entering the package
    Resistance computeLoadLine; ///< RLL of the compute delivery path

    /** End-to-end power conversion efficiency in (0, 1]. */
    double
    etee() const
    {
        if (inputPower <= watts(0.0))
            return 0.0;
        return nominalPower / inputPower;
    }

    /** A loss category as a fraction of the input power (Fig. 5). */
    double
    lossFraction(Power category) const
    {
        if (inputPower <= watts(0.0))
            return 0.0;
        return category / inputPower;
    }
};

} // namespace pdnspot

#endif // PDNSPOT_PDN_ETEE_RESULT_HH
