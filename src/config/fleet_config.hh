/**
 * @file
 * Load-and-validate bindings from spec-file JSON to FleetSpec.
 *
 * A fleet spec file describes a population study for the
 * pdnspot_fleet CLI (tools/): cohorts of identically-configured
 * device sessions plus the shared-clock parameters:
 *
 * {
 *   "bucket_ms":  1000.0,
 *   "horizon_s":  3600.0,
 *   "tick_us":    50.0,
 *   "seed":       1,
 *   "storm_k":    4.0,
 *   "cohorts": [
 *     {"name": "tablets",
 *      "count": 250000,
 *      "platform": "fanless-tablet-4w",
 *      "pdn": "FlexWatts",
 *      "mode": "oracle",
 *      "trace": {"library": "web-browsing", "seed": 42},
 *      "start_jitter_ms": 30000.0,
 *      "battery_wh": 28.0,
 *      "battery_spread": 0.15}
 *   ]
 * }
 *
 * - "cohorts" is the only required key; each entry needs "name",
 *   "count", "platform" and "trace".
 * - "platform" takes the campaign grammar (a preset name or an
 *   override object — platformConfigFromJson); "trace" takes one
 *   declarative trace entry (traceSpecFromJson), transforms and
 *   "tick_us" overrides included. Relative "file" trace paths
 *   resolve against the spec file's directory unless a trace
 *   directory is passed explicitly (the CLI's --trace-dir).
 * - "pdn" is one PDN kind name (nameTable<PdnKind>, default
 *   FlexWatts); "mode" is one simulation mode (nameTable<SimMode>,
 *   default static). Non-FlexWatts cohorts always profile
 *   statically (campaign semantics).
 * - "start_jitter_ms" (default 0) bounds the seeded per-session
 *   start offset into the cyclic trace; "battery_wh" (default 50)
 *   and "battery_spread" (default 0, in [0, 1)) shape the capacity
 *   distribution.
 * - Top-level "bucket_ms" (default 1000), "horizon_s" (default
 *   3600), "tick_us" (default 50), "seed" (default 1) and "storm_k"
 *   (default 4) tune the shared clock and the storm detector.
 *
 * Names are bound from their vocabulary's one name table
 * (common/names.hh), as in campaign specs. Every binding error —
 * unknown key, unknown name, missing trace — is a single-line
 * ConfigError carrying the offending value's file:line:col position;
 * an unknown name reads "unknown <what> \"<name>\" (expected one of
 * ...)".
 */

#ifndef PDNSPOT_CONFIG_FLEET_CONFIG_HH
#define PDNSPOT_CONFIG_FLEET_CONFIG_HH

#include <string>

#include "config/json.hh"
#include "fleet/fleet_spec.hh"

namespace pdnspot
{

/**
 * Bind a parsed spec document to a validated FleetSpec (the result
 * has passed FleetSpec::validate()). `traceDir` anchors relative
 * "file" trace paths ("" = the process working directory).
 */
FleetSpec fleetSpecFromJson(const JsonValue &root,
                            const std::string &traceDir = "");

/** Parse and bind spec text; `sourceName` labels error positions. */
FleetSpec loadFleetSpec(const std::string &text,
                        const std::string &sourceName,
                        const std::string &traceDir = "");

/**
 * Parse and bind a spec file. Relative "file" trace paths resolve
 * against `traceDir` when given, else against the spec file's own
 * directory.
 */
FleetSpec loadFleetSpecFile(const std::string &path,
                            const std::string &traceDir = "");

} // namespace pdnspot

#endif // PDNSPOT_CONFIG_FLEET_CONFIG_HH
