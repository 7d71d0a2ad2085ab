#include "config/fleet_config.hh"

#include "common/logging.hh"
#include "config/campaign_config.hh"

namespace pdnspot
{

namespace
{

/** A positive finite number bound as a duration of `unit` scale. */
double
positiveNumber(const JsonValue &v, const char *what)
{
    double value = v.asNumber();
    if (!(value > 0.0))
        v.fail(strprintf("\"%s\" must be positive, got %g", what,
                         value));
    return value;
}

FleetCohort
cohortFromJson(const JsonValue &v, const std::string &traceDir)
{
    rejectUnknownKeys(v, "cohort",
                      {"name", "count", "platform", "pdn", "mode",
                       "trace", "start_jitter_ms", "battery_wh",
                       "battery_spread"});
    for (const char *required :
         {"name", "count", "platform", "trace"}) {
        if (!v.find(required))
            v.fail(strprintf("missing required cohort key \"%s\"",
                             required));
    }

    FleetCohort cohort;
    cohort.name = v.find("name")->asString();
    if (cohort.name.empty())
        v.find("name")->fail("\"name\" must be non-empty");
    cohort.count = static_cast<uint64_t>(v.find("count")->asInteger(
        "\"count\"", 1, 100000000L));
    cohort.platform = platformConfigFromJson(*v.find("platform"));
    if (const JsonValue *pdn = v.find("pdn"))
        cohort.pdn = nameFromJson<PdnKind>(*pdn);
    if (const JsonValue *mode = v.find("mode"))
        cohort.mode = nameFromJson<SimMode>(*mode);
    cohort.trace = traceSpecFromJson(*v.find("trace"), traceDir);

    if (const JsonValue *jitter = v.find("start_jitter_ms")) {
        double ms = jitter->asNumber();
        if (!(ms >= 0.0))
            jitter->fail(strprintf("\"start_jitter_ms\" must be "
                                   "non-negative, got %g",
                                   ms));
        cohort.startJitter = milliseconds(ms);
    }
    if (const JsonValue *wh = v.find("battery_wh"))
        cohort.batteryWh = positiveNumber(*wh, "battery_wh");
    if (const JsonValue *spread = v.find("battery_spread")) {
        double s = spread->asNumber();
        if (!(s >= 0.0 && s < 1.0))
            spread->fail(strprintf("\"battery_spread\" must be in "
                                   "[0, 1), got %g",
                                   s));
        cohort.batterySpread = s;
    }
    return cohort;
}

} // namespace

FleetSpec
fleetSpecFromJson(const JsonValue &root, const std::string &traceDir)
{
    rejectUnknownKeys(root, "fleet spec",
                      {"cohorts", "bucket_ms", "horizon_s", "tick_us",
                       "seed", "storm_k"});
    const JsonValue *cohorts = root.find("cohorts");
    if (!cohorts)
        root.fail("missing required key \"cohorts\"");
    if (cohorts->items().empty())
        cohorts->fail("\"cohorts\" must hold at least one cohort");

    FleetSpec spec;
    for (const JsonValue &item : cohorts->items()) {
        FleetCohort cohort = cohortFromJson(item, traceDir);
        for (const FleetCohort &seen : spec.cohorts) {
            if (seen.name == cohort.name)
                item.fail(strprintf("duplicate cohort name \"%s\"",
                                    cohort.name.c_str()));
        }
        spec.cohorts.push_back(std::move(cohort));
    }

    if (const JsonValue *bucket = root.find("bucket_ms"))
        spec.bucket =
            milliseconds(positiveNumber(*bucket, "bucket_ms"));
    if (const JsonValue *horizon = root.find("horizon_s"))
        spec.horizon =
            seconds(positiveNumber(*horizon, "horizon_s"));
    if (const JsonValue *tick = root.find("tick_us"))
        spec.tick = microseconds(positiveNumber(*tick, "tick_us"));
    if (const JsonValue *seed = root.find("seed"))
        spec.seed = static_cast<uint64_t>(
            seed->asInteger("\"seed\"", 0, 1000000000L));
    if (const JsonValue *k = root.find("storm_k"))
        spec.stormK = positiveNumber(*k, "storm_k");

    // Cross-field checks (horizon vs bucket, bucket-count cap, ...)
    // fail at the document root with the FleetSpec message.
    try {
        spec.validate();
    } catch (const ConfigError &e) {
        root.fail(e.message());
    }
    return spec;
}

FleetSpec
loadFleetSpec(const std::string &text, const std::string &sourceName,
              const std::string &traceDir)
{
    return fleetSpecFromJson(parseJson(text, sourceName), traceDir);
}

FleetSpec
loadFleetSpecFile(const std::string &path,
                  const std::string &traceDir)
{
    std::string dir = traceDir;
    if (dir.empty()) {
        size_t slash = path.find_last_of("/\\");
        if (slash != std::string::npos)
            dir = path.substr(0, slash);
    }
    return fleetSpecFromJson(parseJsonFile(path), dir);
}

} // namespace pdnspot
