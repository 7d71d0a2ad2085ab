#include "workload/trace_library.hh"

#include "common/csv.hh"
#include "common/logging.hh"
#include "workload/trace_generator.hh"

namespace pdnspot
{

void
TraceLibrary::add(PhaseTrace trace)
{
    if (trace.name().empty())
        fatal("TraceLibrary: traces must be named");
    if (!csvFieldSafe(trace.name()))
        fatal(strprintf("TraceLibrary: name \"%s\" contains CSV "
                        "metacharacters",
                        trace.name().c_str()));
    if (find(trace.name()))
        fatal(strprintf("TraceLibrary: duplicate trace name \"%s\"",
                        trace.name().c_str()));
    _traces.push_back(std::move(trace));
}

std::vector<std::string>
TraceLibrary::names() const
{
    std::vector<std::string> out;
    out.reserve(_traces.size());
    for (const PhaseTrace &t : _traces)
        out.push_back(t.name());
    return out;
}

const PhaseTrace *
TraceLibrary::find(const std::string &name) const
{
    for (const PhaseTrace &t : _traces) {
        if (t.name() == name)
            return &t;
    }
    return nullptr;
}

const PhaseTrace &
TraceLibrary::get(const std::string &name) const
{
    if (const PhaseTrace *t = find(name))
        return *t;
    fatal(unknownName("library trace", name, names()));
}

TraceLibrary
standardCampaignTraces(uint64_t seed)
{
    TraceLibrary lib;

    TraceGenerator bursty(seed);
    lib.add(bursty.burstyCompute(6, milliseconds(20.0),
                                 milliseconds(60.0)));
    lib.add(bursty.dayInTheLife());

    // Three random mixes from consecutive seeds; randomMix bakes its
    // seed into the trace name, keeping the three distinct.
    for (uint64_t s = 0; s < 3; ++s)
        lib.add(TraceGenerator(seed + s)
                    .randomMix(24, milliseconds(15.0)));

    for (const BatteryProfile &profile : batteryLifeWorkloads())
        lib.add(traceFromBatteryProfile(profile, milliseconds(33.3),
                                        4));

    return lib;
}

} // namespace pdnspot
