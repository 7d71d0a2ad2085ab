#include "workload/battery_profiles.hh"

#include <cmath>

#include "common/logging.hh"

namespace pdnspot
{

double
BatteryProfile::residency(PackageCState state) const
{
    for (const auto &[s, r] : residencies) {
        if (s == state)
            return r;
    }
    return 0.0;
}

bool
BatteryProfile::valid() const
{
    double sum = 0.0;
    for (const auto &[s, r] : residencies) {
        if (r < 0.0)
            return false;
        sum += r;
    }
    return std::abs(sum - 1.0) < 1e-9;
}

BatteryProfile
videoPlayback()
{
    // Exactly the paper's Sec. 5 numbers.
    return BatteryProfile{
        "video-playback",
        {{PackageCState::C0Min, 0.10},
         {PackageCState::C2, 0.05},
         {PackageCState::C8, 0.85}},
    };
}

BatteryProfile
videoConferencing()
{
    return BatteryProfile{
        "video-conferencing",
        {{PackageCState::C0Min, 0.20},
         {PackageCState::C2, 0.08},
         {PackageCState::C8, 0.72}},
    };
}

BatteryProfile
webBrowsing()
{
    return BatteryProfile{
        "web-browsing",
        {{PackageCState::C0Min, 0.30},
         {PackageCState::C2, 0.10},
         {PackageCState::C6, 0.10},
         {PackageCState::C8, 0.50}},
    };
}

BatteryProfile
lightGaming()
{
    return BatteryProfile{
        "light-gaming",
        {{PackageCState::C0Min, 0.40},
         {PackageCState::C2, 0.12},
         {PackageCState::C6, 0.13},
         {PackageCState::C8, 0.35}},
    };
}

const std::vector<BatteryProfile> &
batteryLifeWorkloads()
{
    static const std::vector<BatteryProfile> workloads = {
        videoPlayback(),
        videoConferencing(),
        webBrowsing(),
        lightGaming(),
    };
    return workloads;
}

const BatteryProfile &
batteryProfileByName(const std::string &name)
{
    return parseName(batteryLifeWorkloads(), name, "battery profile");
}

} // namespace pdnspot
