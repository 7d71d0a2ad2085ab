/**
 * @file
 * Phase traces: time-varying workload descriptions for the simulator.
 *
 * The interval simulator (src/sim) drives the PMU and the PDN through
 * a sequence of phases. Each phase pins the platform in one package
 * power state and (for active phases) one workload type and AR for a
 * duration; the PMU observes the phases through its activity sensors
 * and decides FlexWatts mode switches.
 */

#ifndef PDNSPOT_WORKLOAD_TRACE_HH
#define PDNSPOT_WORKLOAD_TRACE_HH

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/units.hh"
#include "power/package_cstate.hh"
#include "power/workload_type.hh"
#include "workload/battery_profiles.hh"

namespace pdnspot
{

/** One homogeneous stretch of execution. */
struct TracePhase
{
    Time duration;
    PackageCState cstate = PackageCState::C0;
    WorkloadType type = WorkloadType::MultiThread; ///< for C0 phases
    double ar = 0.56;                              ///< for C0 phases

    bool operator==(const TracePhase &) const = default;
};

/**
 * Canonical form of an activity-ratio value for state construction
 * and keying: collapses -0.0 into +0.0 and every NaN payload into
 * the canonical quiet NaN, so inputs that behave identically share
 * one bit pattern. PhaseSoA's unique-state dedup keys on the
 * canonical bits and IntervalSimulator::stateFor builds from the
 * canonical value, so a -0.0 phase and a +0.0 phase always share
 * one state and one result, whatever order they arrive in.
 */
inline double
canonicalActivityRatio(double ar)
{
    if (std::isnan(ar))
        return std::numeric_limits<double>::quiet_NaN();
    // `ar == 0.0` holds for both signed zeros; return the positive
    // one so the sign bit never reaches a key or a model query.
    return ar == 0.0 ? 0.0 : ar;
}

/**
 * Validity check shared by every import boundary (PhaseTrace
 * construction, trace CSV/JSON readers): empty string when the phase
 * is simulatable, otherwise a description of the first problem — a
 * non-positive or non-finite duration, or an AR outside [0, 1].
 * Importers prefix the returned message with their own position.
 */
std::string checkTracePhase(const TracePhase &phase);

/** A named sequence of phases. */
class PhaseTrace
{
  public:
    PhaseTrace() = default;
    PhaseTrace(std::string name, std::vector<TracePhase> phases);

    const std::string &name() const { return _name; }
    const std::vector<TracePhase> &phases() const { return _phases; }

    Time totalDuration() const;

    void append(TracePhase phase) { _phases.push_back(phase); }

    bool operator==(const PhaseTrace &) const = default;

  private:
    std::string _name;
    std::vector<TracePhase> _phases;
};

/**
 * Expand a battery-life residency profile into a repeating frame
 * trace: each frame of the given period visits the profile's states
 * in order, holding each for its residency share.
 */
PhaseTrace traceFromBatteryProfile(const BatteryProfile &profile,
                                   Time frame_period, size_t frames);

} // namespace pdnspot

#endif // PDNSPOT_WORKLOAD_TRACE_HH
