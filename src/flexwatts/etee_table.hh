/**
 * @file
 * PMU-firmware ETEE curve tables (paper Sec. 6, Algorithm 1).
 *
 * FlexWatts's mode predictor does not evaluate the full PDN model at
 * runtime; like every other PMU algorithm it consults pre-characterized
 * firmware tables (footnote 11). EteeTable holds, for each hybrid mode
 * and workload type, a (TDP x AR) grid of ETEE values, plus one row of
 * ETEE per package C-state; lookups interpolate bilinearly. The tables
 * are generated offline by sampling the FlexWattsPdn model, exactly as
 * a vendor would fuse post-silicon characterization data.
 */

#ifndef PDNSPOT_FLEXWATTS_ETEE_TABLE_HH
#define PDNSPOT_FLEXWATTS_ETEE_TABLE_HH

#include <map>

#include "common/interp.hh"
#include "common/units.hh"
#include "flexwatts/flexwatts_pdn.hh"
#include "flexwatts/hybrid_mode.hh"
#include "power/operating_point.hh"

namespace pdnspot
{

/** Pre-characterized ETEE curves for both hybrid modes. */
class EteeTable
{
  public:
    /**
     * Characterize a FlexWatts PDN over the (TDP x AR) grid of the
     * paper's Fig. 4 axes, serially on the calling thread.
     */
    EteeTable(const FlexWattsPdn &pdn, const OperatingPointModel &opm);

    /** ETEE of one mode in an active (C0) state. */
    double lookupActive(HybridMode mode, WorkloadType type, Power tdp,
                        double ar) const;

    /** ETEE of one mode in a package C-state (Fig. 4j row). */
    double lookupCState(HybridMode mode, PackageCState state) const;

  private:
    static size_t modeIndex(HybridMode m);

    std::map<std::pair<size_t, WorkloadType>, BilinearGrid> _active;
    std::map<std::pair<size_t, PackageCState>, double> _cstates;
};

} // namespace pdnspot

#endif // PDNSPOT_FLEXWATTS_ETEE_TABLE_HH
