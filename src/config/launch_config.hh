/**
 * @file
 * Launcher knobs for distributed campaign runs (pdnspot_launch).
 *
 * A campaign spec file may carry an optional top-level "launch"
 * object declaring how the study wants to be fanned out:
 *
 *   "launch": {
 *     "shards": 8,        // shard count (pdnspot_campaign --shard)
 *     "jobs": 4,          // concurrent shard processes (0 = auto)
 *     "timeout_s": 300,   // per-attempt wall clock (0 = none,
 *                         // at most maxLaunchTimeoutS)
 *     "retries": 2,       // retries per shard after the 1st attempt
 *     "backoff_ms": 200,  // retry backoff base (0 = immediate)
 *     "seed": 7           // seeds the deterministic backoff jitter
 *   }
 *
 * The campaign parser itself ignores the section (a spec with a
 * "launch" block still runs unchanged under plain pdnspot_campaign);
 * pdnspot_launch binds it here and lets command-line flags override
 * individual knobs.
 */

#ifndef PDNSPOT_CONFIG_LAUNCH_CONFIG_HH
#define PDNSPOT_CONFIG_LAUNCH_CONFIG_HH

#include <cstdint>
#include <string>

#include "config/json.hh"

namespace pdnspot
{

/**
 * The longest per-attempt timeout, in seconds (~32 years). A
 * steady_clock deadline holds at most ~9.2e9 s, so a longer timeout
 * would overflow into a deadline in the past.
 */
constexpr double maxLaunchTimeoutS = 1e9;

/**
 * Whether `seconds` is a valid per-attempt timeout, in
 * [0, maxLaunchTimeoutS] (0 = none); false for NaN. The spec binder
 * and pdnspot_launch --timeout both reject anything else.
 */
inline bool
launchTimeoutInRange(double seconds)
{
    return seconds >= 0.0 && seconds <= maxLaunchTimeoutS;
}

/** Launcher parameters (spec defaults; CLI flags override). */
struct LaunchSpec
{
    size_t shards = 4;       ///< shard subprocess count
    size_t jobs = 0;         ///< concurrency cap; 0 = auto
    double timeoutS = 0.0;   ///< per-attempt timeout; 0 = none
    unsigned retries = 2;    ///< retries after the first attempt
    double backoffMs = 200.0; ///< backoff base; 0 = immediate
    uint64_t seed = 0;       ///< backoff jitter seed

    /** fatal() (ConfigError) on out-of-range values. */
    void validate() const;
};

/**
 * Bind the optional "launch" member of a parsed spec document;
 * absent members keep their defaults, unknown keys and out-of-range
 * values fail with the value's file:line:col position.
 */
LaunchSpec launchSpecFromJson(const JsonValue &root);

/** launchSpecFromJson over a spec file's parsed contents. */
LaunchSpec loadLaunchSpecFile(const std::string &path);

} // namespace pdnspot

#endif // PDNSPOT_CONFIG_LAUNCH_CONFIG_HH
