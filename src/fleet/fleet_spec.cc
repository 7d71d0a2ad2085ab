#include "fleet/fleet_spec.hh"

#include <cmath>

#include "common/csv.hh"
#include "common/logging.hh"

namespace pdnspot
{

uint64_t
FleetSpec::sessionCount() const
{
    uint64_t total = 0;
    for (const FleetCohort &cohort : cohorts)
        total += cohort.count;
    return total;
}

namespace
{

/** Whether t lies in [1 ns, maxClockNs] once on the clock. */
bool
onClock(Time t)
{
    double ns = inSeconds(t) * 1e9;
    return ns >= 0.5 && ns <= static_cast<double>(maxClockNs);
}

} // namespace

int64_t
toClockNs(Time t)
{
    return std::llround(inSeconds(t) * 1e9);
}

uint64_t
FleetSpec::bucketCount() const
{
    if (!onClock(bucket) || !onClock(horizon))
        return 0;
    int64_t b = bucketNs();
    return static_cast<uint64_t>((horizonNs() + b - 1) / b);
}

void
FleetSpec::validate() const
{
    if (cohorts.empty())
        fatal("FleetSpec: at least one cohort required");
    if (bucket <= seconds(0.0))
        fatal("FleetSpec: non-positive bucket");
    if (!onClock(bucket))
        fatal(strprintf("FleetSpec: bucket %g s is off the "
                        "nanosecond clock (1 ns to %g s)",
                        inSeconds(bucket), clockSeconds(maxClockNs)));
    if (!onClock(horizon))
        fatal(strprintf("FleetSpec: horizon %g s is off the "
                        "nanosecond clock (1 ns to %g s)",
                        inSeconds(horizon), clockSeconds(maxClockNs)));
    if (horizonNs() < bucketNs())
        fatal("FleetSpec: horizon shorter than one bucket");
    if (tick <= seconds(0.0))
        fatal("FleetSpec: non-positive tick");
    if (!std::isfinite(stormK) || stormK <= 0.0)
        fatal("FleetSpec: storm_k must be positive and finite");
    if (bucketCount() > 10000000)
        fatal(strprintf("FleetSpec: horizon spans %llu buckets "
                        "(limit 10000000); coarsen the bucket",
                        static_cast<unsigned long long>(
                            bucketCount())));

    uint64_t sessions = 0;
    for (size_t i = 0; i < cohorts.size(); ++i) {
        const FleetCohort &c = cohorts[i];
        if (c.name.empty())
            fatal("FleetSpec: unnamed cohort");
        if (!csvFieldSafe(c.name))
            fatal(strprintf("FleetSpec: cohort name \"%s\" contains "
                            "CSV metacharacters",
                            c.name.c_str()));
        for (size_t j = i + 1; j < cohorts.size(); ++j) {
            if (c.name == cohorts[j].name)
                fatal(strprintf("FleetSpec: duplicate cohort name "
                                "\"%s\"",
                                c.name.c_str()));
        }
        if (c.count < 1)
            fatal(strprintf("FleetSpec: cohort \"%s\" has zero "
                            "sessions",
                            c.name.c_str()));
        if (c.count > maxFleetSessions - sessions)
            fatal(strprintf("FleetSpec: more than %llu sessions in all",
                            static_cast<unsigned long long>(
                                maxFleetSessions)));
        sessions += c.count;
        c.trace.validate();
        if (!std::isfinite(c.batteryWh) || c.batteryWh <= 0.0)
            fatal(strprintf("FleetSpec: cohort \"%s\" battery_wh "
                            "must be positive and finite",
                            c.name.c_str()));
        if (!std::isfinite(c.batterySpread) || c.batterySpread < 0.0 ||
            c.batterySpread >= 1.0)
            fatal(strprintf("FleetSpec: cohort \"%s\" battery_spread "
                            "must lie in [0, 1)",
                            c.name.c_str()));
        if (c.startJitter < seconds(0.0))
            fatal(strprintf("FleetSpec: cohort \"%s\" has a negative "
                            "start jitter",
                            c.name.c_str()));
    }
}

} // namespace pdnspot
