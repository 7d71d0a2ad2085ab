#include "config/launch_config.hh"

#include "common/logging.hh"
#include "config/campaign_config.hh"

namespace pdnspot
{

void
LaunchSpec::validate() const
{
    if (shards < 1)
        fatal("launch shards must be at least 1");
    if (!(timeoutS >= 0.0))
        fatal(strprintf("launch timeout must be non-negative, got "
                        "%g s",
                        timeoutS));
    if (!(backoffMs >= 0.0))
        fatal(strprintf("launch backoff must be non-negative, got "
                        "%g ms",
                        backoffMs));
}

LaunchSpec
launchSpecFromJson(const JsonValue &root)
{
    LaunchSpec spec;
    if (root.kind() != JsonValue::Kind::Object)
        return spec;
    const JsonValue *launch = root.find("launch");
    if (!launch)
        return spec;
    rejectUnknownKeys(*launch, "\"launch\"",
                      {"shards", "jobs", "timeout_s", "retries",
                       "backoff_ms", "seed"});

    if (const JsonValue *shards = launch->find("shards"))
        spec.shards = static_cast<size_t>(
            shards->asInteger("\"shards\"", 1, 100000L));
    if (const JsonValue *jobs = launch->find("jobs"))
        spec.jobs = static_cast<size_t>(
            jobs->asInteger("\"jobs\"", 0, 100000L));
    if (const JsonValue *timeout = launch->find("timeout_s")) {
        double s = timeout->asNumber();
        if (!(s >= 0.0))
            timeout->fail(strprintf("\"timeout_s\" must be "
                                    "non-negative, got %g",
                                    s));
        spec.timeoutS = s;
    }
    if (const JsonValue *retries = launch->find("retries"))
        spec.retries = static_cast<unsigned>(
            retries->asInteger("\"retries\"", 0, 1000L));
    if (const JsonValue *backoff = launch->find("backoff_ms")) {
        double ms = backoff->asNumber();
        if (!(ms >= 0.0))
            backoff->fail(strprintf("\"backoff_ms\" must be "
                                    "non-negative, got %g",
                                    ms));
        spec.backoffMs = ms;
    }
    if (const JsonValue *seed = launch->find("seed"))
        spec.seed = static_cast<uint64_t>(
            seed->asInteger("\"seed\"", 0, 1000000000L));

    spec.validate();
    return spec;
}

LaunchSpec
loadLaunchSpecFile(const std::string &path)
{
    return launchSpecFromJson(parseJsonFile(path));
}

} // namespace pdnspot
