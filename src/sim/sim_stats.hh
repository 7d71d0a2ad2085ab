/**
 * @file
 * Aggregated statistics of one interval-simulation run, and the
 * per-phase record a run fills when asked.
 */

#ifndef PDNSPOT_SIM_SIM_STATS_HH
#define PDNSPOT_SIM_SIM_STATS_HH

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/units.hh"
#include "flexwatts/hybrid_mode.hh"
#include "pdn/etee_result.hh"

namespace pdnspot
{

/** Outcome of simulating one trace on one PDN. */
struct SimResult
{
    Time duration;
    Energy supplyEnergy;    ///< integral of supply power
    Energy nominalEnergy;   ///< integral of load nominal power

    /** Time spent in each hybrid mode (FlexWatts runs only). */
    std::array<Time, 2> modeResidency{};

    uint64_t modeSwitches = 0;
    Time switchOverheadTime;
    Energy switchOverheadEnergy;

    /** Average supply power over the run. */
    Power
    averagePower() const
    {
        if (duration <= seconds(0.0))
            return Power();
        return supplyEnergy / duration;
    }

    /** Energy-weighted average ETEE over the run. */
    double
    averageEtee() const
    {
        if (supplyEnergy <= joules(0.0))
            return 0.0;
        return nominalEnergy / supplyEnergy;
    }

    Time
    residency(HybridMode mode) const
    {
        return modeResidency[static_cast<size_t>(mode)];
    }

    /**
     * Exact (bit-level) comparison, used by the campaign determinism
     * and CSV round-trip guarantees.
     */
    bool operator==(const SimResult &) const = default;
};

/**
 * What one run saw in each trace phase, filled by a kernel only when
 * the caller passes one (the waveform probe, obs/probe.hh, and the
 * fleet's cohort profiles read it after the run). Powers are phase
 * averages: the static and oracle kernels' delivered powers, the PMU
 * kernel's energy deltas over the phase duration.
 */
struct PhaseRecord
{
    /** A hybrid mode switch, as the switch-flow observer reports it. */
    struct Switch
    {
        uint64_t phase = 0; ///< trace phase the switch started in
        Time t;             ///< simulated start time of the switch
        HybridMode target = HybridMode::IvrMode;

        bool operator==(const Switch &) const = default;
    };

    std::vector<Time> duration;   ///< phase durations
    std::vector<double> supplyW;  ///< mean supply power per phase
    std::vector<double> nominalW; ///< mean nominal power per phase

    /** The loss breakdown of the phase's last PDN evaluation; none
     * when the whole phase sat inside a mode-switch C6 flow. */
    std::vector<std::optional<LossBreakdown>> loss;

    /** The mode configured at phase end: -1 static, else a
     * HybridMode. */
    std::vector<int> mode;

    /** Every switch of the run, in time order. */
    std::vector<Switch> switches;

    size_t phases() const { return duration.size(); }

    /** Append a phase that ran at one evaluation's powers. */
    void
    push(Time phaseDuration, const EteeResult &e, int phaseMode)
    {
        duration.push_back(phaseDuration);
        supplyW.push_back(inWatts(e.inputPower));
        nominalW.push_back(inWatts(e.nominalPower));
        loss.push_back(e.loss);
        mode.push_back(phaseMode);
    }

    bool operator==(const PhaseRecord &) const = default;
};

} // namespace pdnspot

#endif // PDNSPOT_SIM_SIM_STATS_HH
