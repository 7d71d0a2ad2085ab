#include "campaign/campaign_spec.hh"

#include "common/csv.hh"
#include "common/logging.hh"
#include "power/operating_point.hh"

namespace pdnspot
{

CellRange
shardCellRange(size_t cells, size_t k, size_t n)
{
    if (k < 1 || k > n)
        fatal(strprintf("shard %zu/%zu: need 1 <= k <= n", k, n));
    return {cells * (k - 1) / n, cells * k / n};
}

namespace
{

void
checkName(const char *what, const std::string &name)
{
    if (name.empty())
        fatal(strprintf("CampaignSpec: unnamed %s", what));
    if (!csvFieldSafe(name))
        fatal(strprintf("CampaignSpec: %s name \"%s\" contains CSV "
                        "metacharacters",
                        what, name.c_str()));
}

} // namespace

void
CampaignSpec::validate() const
{
    if (traces.empty() || platforms.empty() || pdns.empty())
        fatal("CampaignSpec: traces, platforms and pdns must all be "
              "non-empty");
    if (tick <= seconds(0.0))
        fatal("CampaignSpec: non-positive tick");

    for (size_t i = 0; i < traces.size(); ++i) {
        traces[i].validate();
        checkName("trace", traces[i].name());
        for (size_t j = i + 1; j < traces.size(); ++j) {
            if (traces[i].name() == traces[j].name())
                fatal(strprintf("CampaignSpec: duplicate trace name "
                                "\"%s\"",
                                traces[i].name().c_str()));
        }
    }
    for (size_t i = 0; i < platforms.size(); ++i) {
        checkName("platform", platforms[i].name);
        for (size_t j = i + 1; j < platforms.size(); ++j) {
            if (platforms[i].name == platforms[j].name)
                fatal(strprintf("CampaignSpec: duplicate platform "
                                "name \"%s\"",
                                platforms[i].name.c_str()));
        }
        if (platforms[i].tdp < OperatingPointModel::minTdp() ||
            platforms[i].tdp > OperatingPointModel::maxTdp()) {
            fatal(strprintf("CampaignSpec: platform \"%s\" TDP "
                            "%.1f W outside the supported 4-50 W "
                            "span",
                            platforms[i].name.c_str(),
                            inWatts(platforms[i].tdp)));
        }
    }
    for (size_t i = 0; i < pdns.size(); ++i) {
        for (size_t j = i + 1; j < pdns.size(); ++j) {
            if (pdns[i] == pdns[j])
                fatal(strprintf("CampaignSpec: duplicate PDN kind "
                                "\"%s\"",
                                nameOf(pdns[i])));
        }
    }

    for (const ProbeSpec &probe : probes) {
        probe.validate();
        // A selector naming nothing in the spec would silently
        // capture nothing; fail it like any other config error.
        if (!probe.trace.empty()) {
            bool found = false;
            for (const TraceSpec &t : traces)
                found = found || t.name() == probe.trace;
            if (!found)
                fatal(strprintf("CampaignSpec: probe trace selector "
                                "\"%s\" matches no trace",
                                probe.trace.c_str()));
        }
        if (!probe.platform.empty()) {
            bool found = false;
            for (const PlatformConfig &p : platforms)
                found = found || p.name == probe.platform;
            if (!found)
                fatal(strprintf("CampaignSpec: probe platform "
                                "selector \"%s\" matches no "
                                "platform",
                                probe.platform.c_str()));
        }
        if (!probe.pdn.empty()) {
            bool found = false;
            for (PdnKind kind : pdns)
                found = found || toString(kind) == probe.pdn;
            if (!found)
                fatal(strprintf("CampaignSpec: probe pdn selector "
                                "\"%s\" matches no PDN in the spec",
                                probe.pdn.c_str()));
        }
        if (!probe.mode.empty() && probe.mode != toString(mode))
            fatal(strprintf("CampaignSpec: probe mode selector "
                            "\"%s\" does not match the campaign "
                            "mode \"%s\"",
                            probe.mode.c_str(),
                            nameOf(mode)));
    }
}

} // namespace pdnspot
