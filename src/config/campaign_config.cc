#include "config/campaign_config.hh"

#include "common/logging.hh"
#include "power/operating_point.hh"
#include "workload/battery_profiles.hh"

namespace pdnspot
{

void
rejectUnknownKeys(const JsonValue &obj, const char *what,
                  std::initializer_list<const char *> valid)
{
    for (const JsonValue::Member &m : obj.members()) {
        bool known = false;
        for (const char *key : valid)
            known = known || m.first == key;
        if (!known) {
            std::vector<std::string> names(valid.begin(),
                                           valid.end());
            m.second.fail(strprintf(
                "unknown %s key \"%s\" (valid keys: %s)", what,
                m.first.c_str(), joinStrings(names).c_str()));
        }
    }
}

SimMode
simModeFromJson(const JsonValue &v)
{
    const std::string &name = v.asString();
    for (SimMode mode :
         {SimMode::Static, SimMode::Pmu, SimMode::Oracle}) {
        if (toString(mode) == name)
            return mode;
    }
    v.fail(strprintf("unknown simulation mode \"%s\" (expected "
                     "static, pmu or oracle)",
                     name.c_str()));
}

PdnKind
pdnKindFromJson(const JsonValue &v)
{
    const std::string &name = v.asString();
    for (PdnKind kind : allPdnKinds) {
        if (pdnKindToString(kind) == name)
            return kind;
    }
    std::vector<std::string> names;
    for (PdnKind kind : allPdnKinds)
        names.push_back(pdnKindToString(kind));
    v.fail(strprintf("unknown PDN kind \"%s\" (expected one of %s)",
                     name.c_str(), joinStrings(names).c_str()));
}

namespace
{

std::vector<PdnKind>
pdnsFromJson(const JsonValue &v)
{
    if (v.kind() == JsonValue::Kind::String) {
        if (v.asString() == "all")
            return {allPdnKinds.begin(), allPdnKinds.end()};
        v.fail(strprintf("\"pdns\" must be \"all\" or an array of "
                         "PDN kind names, got \"%s\"",
                         v.asString().c_str()));
    }
    std::vector<PdnKind> out;
    for (const JsonValue &item : v.items()) {
        PdnKind kind = pdnKindFromJson(item);
        for (PdnKind seen : out) {
            if (seen == kind)
                item.fail(strprintf("duplicate PDN kind \"%s\"",
                                    pdnKindToString(kind).c_str()));
        }
        out.push_back(kind);
    }
    if (out.empty())
        v.fail("\"pdns\" must name at least one PDN kind");
    return out;
}

uint64_t
seedFromJson(const JsonValue &v)
{
    return static_cast<uint64_t>(
        v.asInteger("\"seed\"", 0, 1000000000L));
}

/** Whole-library object form: {"library": "standard", ...}. */
std::vector<TraceSpec>
libraryTracesFromJson(const JsonValue &v)
{
    rejectUnknownKeys(v, "\"traces\"", {"library", "seed", "names"});

    uint64_t seed = 42;
    if (const JsonValue *s = v.find("seed"))
        seed = seedFromJson(*s);

    if (const JsonValue *lib = v.find("library")) {
        if (lib->asString() != "standard")
            lib->fail(strprintf("unknown trace library \"%s\" (the "
                                "only library is \"standard\")",
                                lib->asString().c_str()));
    }
    TraceLibrary library = standardCampaignTraces(seed);

    std::vector<TraceSpec> out;
    const JsonValue *names = v.find("names");
    if (!names) {
        for (const std::string &name : library.names())
            out.push_back(TraceSpec::library(name, seed));
        return out;
    }

    for (const JsonValue &item : names->items()) {
        const std::string &name = item.asString();
        if (!library.find(name))
            item.fail(strprintf(
                "no trace \"%s\" in the standard library (available: "
                "%s)",
                name.c_str(), joinStrings(library.names()).c_str()));
        for (const TraceSpec &seen : out) {
            if (seen.name() == name)
                item.fail(strprintf("trace \"%s\" selected twice",
                                    name.c_str()));
        }
        out.push_back(TraceSpec::library(name, seed));
    }
    if (out.empty())
        names->fail("\"names\" must select at least one trace");
    return out;
}

TraceGeneratorSpec
generatorSpecFromJson(const JsonValue &v)
{
    rejectUnknownKeys(v, "generator",
                      {"kind", "seed", "bursts", "burst_ms",
                       "idle_ms", "phases", "mean_phase_ms",
                       "ar_min", "ar_max"});

    const JsonValue *kind = v.find("kind");
    if (!kind)
        v.fail("missing required generator key \"kind\"");

    TraceGeneratorSpec params;
    params.kind = kind->asString();
    bool known = false;
    for (const std::string &k : traceGeneratorKinds())
        known = known || params.kind == k;
    if (!known)
        kind->fail(strprintf(
            "unknown generator kind \"%s\" (expected one of %s)",
            params.kind.c_str(),
            joinStrings(traceGeneratorKinds()).c_str()));
    bool bursty = params.kind == "bursty-compute";
    bool mix = params.kind == "random-mix";

    // Parameters that do not apply to the chosen kind are rejected
    // rather than silently ignored.
    auto rejectForKind = [&](const char *key) {
        if (const JsonValue *stray = v.find(key))
            stray->fail(strprintf("\"%s\" does not apply to "
                                  "generator kind \"%s\"",
                                  key, params.kind.c_str()));
    };
    if (!bursty) {
        rejectForKind("bursts");
        rejectForKind("burst_ms");
        rejectForKind("idle_ms");
    }
    if (!mix) {
        rejectForKind("phases");
        rejectForKind("mean_phase_ms");
    }
    if (!bursty && !mix) {
        rejectForKind("ar_min");
        rejectForKind("ar_max");
    }

    if (const JsonValue *s = v.find("seed"))
        params.seed = seedFromJson(*s);

    auto positiveMs = [](const JsonValue &value, const char *what) {
        double ms = value.asNumber();
        if (!(ms > 0.0))
            value.fail(strprintf("\"%s\" must be positive, got %g",
                                 what, ms));
        return milliseconds(ms);
    };
    if (const JsonValue *b = v.find("bursts"))
        params.bursts = static_cast<size_t>(
            b->asInteger("\"bursts\"", 1, 1000000L));
    if (const JsonValue *len = v.find("burst_ms"))
        params.burstLen = positiveMs(*len, "burst_ms");
    if (const JsonValue *len = v.find("idle_ms"))
        params.idleLen = positiveMs(*len, "idle_ms");
    if (const JsonValue *p = v.find("phases"))
        params.phases = static_cast<size_t>(
            p->asInteger("\"phases\"", 1, 1000000L));
    if (const JsonValue *len = v.find("mean_phase_ms"))
        params.meanPhaseLen = positiveMs(*len, "mean_phase_ms");

    auto arBound = [](const JsonValue &value, const char *what) {
        double ar = value.asNumber();
        if (!(ar >= 0.0 && ar <= 1.0))
            value.fail(strprintf("\"%s\" must be in [0, 1], got %g",
                                 what, ar));
        return ar;
    };
    if (const JsonValue *ar = v.find("ar_min"))
        params.arMin = arBound(*ar, "ar_min");
    if (const JsonValue *ar = v.find("ar_max"))
        params.arMax = arBound(*ar, "ar_max");
    if (params.arMin > params.arMax)
        v.fail(strprintf("\"ar_min\" %g exceeds \"ar_max\" %g",
                         params.arMin, params.arMax));

    return params;
}

/**
 * One "transforms" array element: an object holding exactly one
 * transform key. Scalar-parameter transforms bind the key's value
 * directly ({"repeat": 3}); ar_perturb takes a parameter object and
 * concat nests a whole trace entry.
 */
TraceTransform
transformFromJson(const JsonValue &v, const std::string &traceDir)
{
    rejectUnknownKeys(v, "transform",
                      {"repeat", "time_scale", "truncate_ms",
                       "ar_perturb", "concat"});
    if (v.members().size() != 1)
        v.fail("a transform entry holds exactly one of \"repeat\", "
               "\"time_scale\", \"truncate_ms\", \"ar_perturb\" or "
               "\"concat\"");

    if (const JsonValue *n = v.find("repeat")) {
        return TraceTransform::repeat(static_cast<size_t>(
            n->asInteger("\"repeat\"", 1, 100000L)));
    }
    if (const JsonValue *f = v.find("time_scale")) {
        double factor = f->asNumber();
        if (!(factor > 0.0))
            f->fail(strprintf("\"time_scale\" must be positive, got "
                              "%g",
                              factor));
        return TraceTransform::timeScale(factor);
    }
    if (const JsonValue *d = v.find("truncate_ms")) {
        double ms = d->asNumber();
        if (!(ms > 0.0))
            d->fail(strprintf("\"truncate_ms\" must be positive, "
                              "got %g",
                              ms));
        return TraceTransform::truncate(milliseconds(ms));
    }
    if (const JsonValue *p = v.find("ar_perturb")) {
        rejectUnknownKeys(*p, "ar_perturb", {"delta", "seed"});
        const JsonValue *delta = p->find("delta");
        if (!delta)
            p->fail("missing required ar_perturb key \"delta\"");
        double d = delta->asNumber();
        if (!(d >= 0.0 && d <= 1.0))
            delta->fail(strprintf("\"delta\" must be in [0, 1], got "
                                  "%g",
                                  d));
        uint64_t seed = 0;
        if (const JsonValue *s = p->find("seed"))
            seed = seedFromJson(*s);
        return TraceTransform::arPerturb(d, seed);
    }
    // rejectUnknownKeys left only "concat" possible; a bare "{}"
    // entry fell through the exactly-one check above.
    const JsonValue &tail = *v.find("concat");
    return TraceTransform::concat(traceSpecFromJson(tail, traceDir));
}

std::vector<std::string>
profileNames()
{
    std::vector<std::string> out;
    for (const BatteryProfile &profile : batteryLifeWorkloads())
        out.push_back(profile.name);
    return out;
}

std::vector<TraceSpec>
tracesFromJson(const JsonValue &v, const std::string &traceDir)
{
    if (v.kind() != JsonValue::Kind::Array)
        return libraryTracesFromJson(v);

    std::vector<TraceSpec> out;
    for (const JsonValue &item : v.items()) {
        TraceSpec spec = traceSpecFromJson(item, traceDir);
        for (const TraceSpec &seen : out) {
            if (seen.name() == spec.name())
                item.fail(strprintf("duplicate trace name \"%s\" "
                                    "(use \"name\" to "
                                    "disambiguate)",
                                    spec.name().c_str()));
        }
        out.push_back(std::move(spec));
    }
    if (out.empty())
        v.fail("\"traces\" must hold at least one trace entry");
    return out;
}

ProbeSpec
probeFromJson(const JsonValue &v)
{
    rejectUnknownKeys(v, "probe",
                      {"trace", "platform", "pdn", "mode", "signals",
                       "decimate", "trigger", "battery_wh"});

    ProbeSpec probe;
    if (const JsonValue *t = v.find("trace"))
        probe.trace = t->asString();
    if (const JsonValue *p = v.find("platform"))
        probe.platform = p->asString();
    // Selector spellings are validated here (canonicalized through
    // the enum), existence in the spec's axes in
    // CampaignSpec::validate.
    if (const JsonValue *p = v.find("pdn"))
        probe.pdn = pdnKindToString(pdnKindFromJson(*p));
    if (const JsonValue *m = v.find("mode"))
        probe.mode = toString(simModeFromJson(*m));

    if (const JsonValue *signals = v.find("signals")) {
        if (signals->items().empty())
            signals->fail("\"signals\" must name at least one "
                          "signal (omit the key to capture all)");
        for (const JsonValue &item : signals->items()) {
            const std::string &name = item.asString();
            bool known = false;
            ProbeSignal signal = ProbeSignal::SupplyPowerW;
            for (ProbeSignal s : allProbeSignals) {
                if (toString(s) == name) {
                    signal = s;
                    known = true;
                }
            }
            if (!known) {
                std::vector<std::string> names;
                for (ProbeSignal s : allProbeSignals)
                    names.push_back(toString(s));
                item.fail(strprintf(
                    "unknown probe signal \"%s\" (expected one of "
                    "%s)",
                    name.c_str(), joinStrings(names).c_str()));
            }
            for (ProbeSignal seen : probe.signals) {
                if (seen == signal)
                    item.fail(strprintf("duplicate probe signal "
                                        "\"%s\"",
                                        name.c_str()));
            }
            probe.signals.push_back(signal);
        }
    }

    if (const JsonValue *d = v.find("decimate"))
        probe.decimate = static_cast<uint64_t>(
            d->asInteger("\"decimate\"", 1, 1000000000L));

    if (const JsonValue *trigger = v.find("trigger")) {
        rejectUnknownKeys(*trigger, "trigger", {"on", "window"});
        ProbeTriggerSpec t;
        if (const JsonValue *on = trigger->find("on")) {
            const std::string &name = on->asString();
            bool known = false;
            for (ProbeTriggerSpec::On o :
                 {ProbeTriggerSpec::On::ModeSwitch,
                  ProbeTriggerSpec::On::BudgetClip,
                  ProbeTriggerSpec::On::Any}) {
                if (toString(o) == name) {
                    t.on = o;
                    known = true;
                }
            }
            if (!known)
                on->fail(strprintf(
                    "unknown trigger \"%s\" (expected mode_switch, "
                    "budget_clip or any)",
                    name.c_str()));
        }
        const JsonValue *window = trigger->find("window");
        if (!window)
            trigger->fail("missing required trigger key \"window\"");
        t.window = static_cast<uint64_t>(
            window->asInteger("\"window\"", 1, 1000000000L));
        probe.trigger = t;
    }

    if (const JsonValue *wh = v.find("battery_wh")) {
        double capacity = wh->asNumber();
        if (!(capacity > 0.0))
            wh->fail(strprintf("\"battery_wh\" must be positive, "
                               "got %g",
                               capacity));
        probe.batteryWh = capacity;
    }
    return probe;
}

std::vector<std::string>
presetNames()
{
    std::vector<std::string> out;
    for (const PlatformConfig &cfg : allPlatformPresets())
        out.push_back(cfg.name);
    return out;
}

PlatformConfig
presetFromJson(const JsonValue &v)
{
    const std::string &name = v.asString();
    for (const PlatformConfig &cfg : allPlatformPresets()) {
        if (cfg.name == name)
            return cfg;
    }
    v.fail(strprintf("unknown platform preset \"%s\" (available: "
                     "%s)",
                     name.c_str(),
                     joinStrings(presetNames()).c_str()));
}

} // namespace

TraceSpec
traceSpecFromJson(const JsonValue &value, const std::string &traceDir)
{
    rejectUnknownKeys(value, "trace",
                      {"library", "generator", "profile", "file",
                       "seed", "frame_ms", "frames", "name",
                       "tick_us", "transforms"});

    const JsonValue *library = value.find("library");
    const JsonValue *generator = value.find("generator");
    const JsonValue *profile = value.find("profile");
    const JsonValue *file = value.find("file");
    int sources = (library ? 1 : 0) + (generator ? 1 : 0) +
                  (profile ? 1 : 0) + (file ? 1 : 0);
    if (sources != 1)
        value.fail("a trace entry needs exactly one source key: "
                   "\"library\", \"generator\", \"profile\" or "
                   "\"file\"");

    // Source-specific keys on the wrong source kind are mistakes,
    // not extensions.
    if (!library && !generator) {
        if (const JsonValue *stray = value.find("seed"))
            stray->fail("\"seed\" only applies to \"library\" "
                        "entries (generators take a nested "
                        "\"seed\")");
    }
    if (generator) {
        if (const JsonValue *stray = value.find("seed"))
            stray->fail("put \"seed\" inside the \"generator\" "
                        "object");
    }
    if (!profile) {
        for (const char *key : {"frame_ms", "frames"}) {
            if (const JsonValue *stray = value.find(key))
                stray->fail(strprintf("\"%s\" only applies to "
                                      "\"profile\" entries",
                                      key));
        }
    }

    TraceSpec spec;
    if (library) {
        uint64_t seed = 42;
        if (const JsonValue *s = value.find("seed"))
            seed = seedFromJson(*s);
        TraceLibrary lib = standardCampaignTraces(seed);
        if (!lib.find(library->asString()))
            library->fail(strprintf(
                "no trace \"%s\" in the standard library "
                "(available: %s)",
                library->asString().c_str(),
                joinStrings(lib.names()).c_str()));
        spec = TraceSpec::library(library->asString(), seed);
    } else if (generator) {
        spec = TraceSpec::generator(generatorSpecFromJson(*generator));
    } else if (profile) {
        bool known = false;
        for (const BatteryProfile &p : batteryLifeWorkloads())
            known = known || p.name == profile->asString();
        if (!known)
            profile->fail(strprintf(
                "unknown battery profile \"%s\" (available: %s)",
                profile->asString().c_str(),
                joinStrings(profileNames()).c_str()));
        Time framePeriod = milliseconds(33.3);
        size_t frames = 4;
        if (const JsonValue *ms = value.find("frame_ms")) {
            double v = ms->asNumber();
            if (!(v > 0.0))
                ms->fail(strprintf("\"frame_ms\" must be positive, "
                                   "got %g",
                                   v));
            framePeriod = milliseconds(v);
        }
        if (const JsonValue *f = value.find("frames"))
            frames = static_cast<size_t>(
                f->asInteger("\"frames\"", 1, 1000000L));
        spec = TraceSpec::profile(profile->asString(), framePeriod,
                                  frames);
    } else {
        std::string path = file->asString();
        if (path.empty())
            file->fail("\"file\" must name a trace file");
        if (path[0] != '/' && !traceDir.empty())
            path = traceDir + "/" + path;
        spec = TraceSpec::file(std::move(path));
    }

    // Apply the common overrides before the eager file check below,
    // so a "name" can rescue a file whose stem is CSV-unsafe.
    if (const JsonValue *name = value.find("name")) {
        if (name->asString().empty())
            name->fail("\"name\" must be non-empty");
        spec.rename(name->asString());
    }
    if (const JsonValue *tick = value.find("tick_us")) {
        double us = tick->asNumber();
        if (!(us > 0.0))
            tick->fail(strprintf("\"tick_us\" must be positive, got "
                                 "%g",
                                 us));
        spec.tick(microseconds(us));
    }
    if (const JsonValue *chain = value.find("transforms")) {
        if (chain->items().empty())
            chain->fail("\"transforms\" must hold at least one "
                        "transform entry");
        for (const JsonValue &step : chain->items())
            spec.transform(transformFromJson(step, traceDir));
    }

    if (file) {
        // Load the file once now so a missing or invalid trace fails
        // at this spec value with the nested positional error; the
        // engine resolves it again at run time.
        try {
            spec.resolve();
        } catch (const ConfigError &e) {
            file->fail(e.what());
        }
    }

    // Anything the targeted checks above missed (a CSV-unsafe
    // "name", ...) still fails at this entry's position.
    try {
        spec.validate();
    } catch (const ConfigError &e) {
        value.fail(e.what());
    }
    return spec;
}

PlatformConfig
platformConfigFromJson(const JsonValue &value)
{
    if (value.kind() == JsonValue::Kind::String)
        return presetFromJson(value);

    rejectUnknownKeys(value, "platform",
                      {"preset", "name", "tdp_w", "supply_v",
                       "predictor_hysteresis"});

    PlatformConfig cfg;
    const JsonValue *preset = value.find("preset");
    if (preset)
        cfg = presetFromJson(*preset);
    else if (!value.find("name"))
        value.fail("inline platforms need a \"name\" (or start from "
                   "a \"preset\")");

    if (const JsonValue *name = value.find("name"))
        cfg.name = name->asString();
    if (const JsonValue *tdp = value.find("tdp_w")) {
        double w = tdp->asNumber();
        if (watts(w) < OperatingPointModel::minTdp() ||
            watts(w) > OperatingPointModel::maxTdp()) {
            tdp->fail(strprintf(
                "\"tdp_w\" must be within the supported %g-%g W "
                "span, got %g",
                inWatts(OperatingPointModel::minTdp()),
                inWatts(OperatingPointModel::maxTdp()), w));
        }
        cfg.tdp = watts(w);
    }
    if (const JsonValue *supply = value.find("supply_v")) {
        double v = supply->asNumber();
        if (!(v > 0.0))
            supply->fail(strprintf("\"supply_v\" must be positive, "
                                   "got %g",
                                   v));
        cfg.pdnParams.supplyVoltage = volts(v);
    }
    if (const JsonValue *h = value.find("predictor_hysteresis")) {
        double margin = h->asNumber();
        // An absolute ETEE margin: a full unit would mean "never
        // switch"; anything at or past it is a typo.
        if (!(margin >= 0.0 && margin < 1.0))
            h->fail(strprintf("\"predictor_hysteresis\" must be in "
                              "[0, 1), got %g",
                              margin));
        cfg.predictorHysteresis = margin;
    }
    return cfg;
}

CampaignSpec
campaignSpecFromJson(const JsonValue &root,
                     const std::string &traceDir)
{
    // "launch" belongs to pdnspot_launch (launch_config.hh); the
    // campaign itself ignores it so a spec with fan-out knobs still
    // runs unchanged under plain pdnspot_campaign.
    rejectUnknownKeys(root, "spec",
                      {"traces", "platforms", "pdns", "mode",
                       "tick_us", "probes", "launch"});
    for (const char *required : {"traces", "platforms", "pdns"}) {
        if (!root.find(required))
            root.fail(strprintf("missing required key \"%s\"",
                                required));
    }

    CampaignSpec spec;
    spec.traces = tracesFromJson(*root.find("traces"), traceDir);
    for (const JsonValue &item : root.find("platforms")->items()) {
        PlatformConfig cfg = platformConfigFromJson(item);
        for (const PlatformConfig &seen : spec.platforms) {
            if (seen.name == cfg.name)
                item.fail(strprintf(
                    "duplicate platform name \"%s\"",
                    cfg.name.c_str()));
        }
        spec.platforms.push_back(std::move(cfg));
    }
    spec.pdns = pdnsFromJson(*root.find("pdns"));
    if (const JsonValue *mode = root.find("mode"))
        spec.mode = simModeFromJson(*mode);
    if (const JsonValue *tick = root.find("tick_us")) {
        double us = tick->asNumber();
        if (!(us > 0.0))
            tick->fail(strprintf("\"tick_us\" must be positive, got "
                                 "%g",
                                 us));
        spec.tick = microseconds(us);
    }
    if (const JsonValue *probes = root.find("probes")) {
        if (probes->items().empty())
            probes->fail("\"probes\" must hold at least one probe "
                         "entry (omit the key for no capture)");
        for (const JsonValue &item : probes->items()) {
            ProbeSpec probe = probeFromJson(item);
            // Cross-check the selectors against the axes parsed
            // above, here, so the error carries this entry's
            // position (CampaignSpec::validate repeats the check
            // with a plain fatal() for programmatic callers).
            if (!probe.trace.empty()) {
                bool found = false;
                for (const TraceSpec &t : spec.traces)
                    found = found || t.name() == probe.trace;
                if (!found)
                    item.fail(strprintf(
                        "probe trace selector \"%s\" matches no "
                        "trace in the spec",
                        probe.trace.c_str()));
            }
            if (!probe.platform.empty()) {
                bool found = false;
                for (const PlatformConfig &p : spec.platforms)
                    found = found || p.name == probe.platform;
                if (!found)
                    item.fail(strprintf(
                        "probe platform selector \"%s\" matches no "
                        "platform in the spec",
                        probe.platform.c_str()));
            }
            if (!probe.pdn.empty()) {
                bool found = false;
                for (PdnKind kind : spec.pdns)
                    found = found || toString(kind) == probe.pdn;
                if (!found)
                    item.fail(strprintf(
                        "probe pdn selector \"%s\" matches no PDN "
                        "in the spec",
                        probe.pdn.c_str()));
            }
            if (!probe.mode.empty() &&
                probe.mode != toString(spec.mode)) {
                item.fail(strprintf(
                    "probe mode selector \"%s\" does not match the "
                    "campaign mode \"%s\"",
                    probe.mode.c_str(),
                    toString(spec.mode).c_str()));
            }
            spec.probes.push_back(std::move(probe));
        }
    }

    spec.validate();
    return spec;
}

CampaignSpec
loadCampaignSpec(const std::string &text,
                 const std::string &sourceName,
                 const std::string &traceDir)
{
    return campaignSpecFromJson(parseJson(text, sourceName),
                                traceDir);
}

CampaignSpec
loadCampaignSpecFile(const std::string &path,
                     const std::string &traceDir)
{
    std::string dir = traceDir;
    if (dir.empty()) {
        size_t slash = path.find_last_of("/\\");
        if (slash != std::string::npos)
            dir = path.substr(0, slash);
    }
    return campaignSpecFromJson(parseJsonFile(path), dir);
}

} // namespace pdnspot
