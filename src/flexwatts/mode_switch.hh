/**
 * @file
 * Voltage-noise-free mode-switching flow (paper Sec. 6).
 *
 * FlexWatts reconfigures the hybrid rail only while the compute
 * domains are idle. The flow leverages the package-C6 firmware path:
 *
 *   1. enter package C6 (context save, clocks/voltage off) ... 45 us
 *   2. retarget V_IN and reconfigure the hybrid VRs .......... 19 us
 *   3. exit package C6 and resume execution .................. 30 us
 *
 * for a total of ~94 us -- comfortably within the up-to-500 us DVFS
 * transitions client processors already absorb. The state machine
 * tracks in-flight switches, accumulates overhead statistics, and
 * models the energy spent idling through the flow.
 */

#ifndef PDNSPOT_FLEXWATTS_MODE_SWITCH_HH
#define PDNSPOT_FLEXWATTS_MODE_SWITCH_HH

#include <cstdint>
#include <functional>

#include "common/units.hh"
#include "flexwatts/hybrid_mode.hh"

namespace pdnspot
{

/** Latencies and energy of one mode switch. */
struct ModeSwitchParams
{
    Time enterC6 = microseconds(45.0);
    Time retargetVrs = microseconds(19.0);
    Time exitC6 = microseconds(30.0);

    /** Platform draw while idling through the flow (C6-like). */
    Power flowPower = milliwatts(600.0);

    Time
    totalLatency() const
    {
        return enterC6 + retargetVrs + exitC6;
    }
};

/** The mode-switch state machine used by the PMU/simulator. */
class ModeSwitchFlow
{
  public:
    explicit ModeSwitchFlow(HybridMode initial = HybridMode::IvrMode,
                            ModeSwitchParams params = {});

    /** Mode the rail is configured for (the target while switching). */
    HybridMode mode() const { return _mode; }

    /** True while the C6 flow is still in flight at `now`. */
    bool switching(Time now) const { return now < _busyUntil; }

    /**
     * Begin a switch at time `now`. Returns false (and does nothing)
     * if a switch is already in flight or the target equals the
     * current mode. The compute domains are implicitly gated by the
     * flow, so the switch is always voltage-noise-free.
     */
    bool requestSwitch(Time now, HybridMode target);

    /** Completion time of the most recent switch. */
    Time busyUntil() const { return _busyUntil; }

    /** Number of completed/in-flight switches so far. */
    uint64_t switchCount() const { return _switchCount; }

    /** Total time spent inside switch flows. */
    Time totalOverheadTime() const { return _totalOverhead; }

    /** Total energy spent idling through switch flows. */
    Energy totalOverheadEnergy() const;

    const ModeSwitchParams &params() const { return _params; }

    /**
     * Observe accepted switches: called from requestSwitch's success
     * path with (start time, target mode). Strictly observational —
     * the PMU kernel records switches for a PhaseRecord
     * (sim/sim_stats.hh) through it; pass an empty function to
     * detach.
     */
    void
    setObserver(std::function<void(Time, HybridMode)> observer)
    {
        _observer = std::move(observer);
    }

  private:
    ModeSwitchParams _params;
    HybridMode _mode;
    Time _busyUntil;
    uint64_t _switchCount = 0;
    Time _totalOverhead;
    std::function<void(Time, HybridMode)> _observer;
};

} // namespace pdnspot

#endif // PDNSPOT_FLEXWATTS_MODE_SWITCH_HH
