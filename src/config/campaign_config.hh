/**
 * @file
 * Load-and-validate bindings from spec-file JSON to CampaignSpec.
 *
 * A campaign spec file describes the same cross-product a C++ caller
 * would build by hand (campaign_spec.hh) — traces × platforms × PDN
 * kinds plus a simulation mode — as one JSON object, so studies can
 * be driven by the pdnspot_campaign CLI (tools/) without writing C++:
 *
 * {
 *   "traces":    {"library": "standard", "seed": 42},
 *   "platforms": ["fanless-tablet-4w", "ultraportable-15w"],
 *   "pdns":      "all",
 *   "mode":      "pmu",
 *   "tick_us":   50.0
 * }
 *
 * - "traces" is either the whole-library object above ("standard" =
 *   standardCampaignTraces(seed), an optional "names" array selects
 *   a subset by trace name), or an array of declarative trace-source
 *   entries (workload/trace_source.hh), one object per trace:
 *
 *     {"library": "bursty-compute", "seed": 42}
 *     {"generator": {"kind": "random-mix", "seed": 7, "phases": 24,
 *                    "mean_phase_ms": 15.0, "ar_min": 0.4,
 *                    "ar_max": 0.8}}
 *     {"profile": "video-playback", "frame_ms": 33.3, "frames": 4}
 *     {"file": "traces/office.csv"}
 *
 *   Every entry also accepts "name" (rename the trace — the campaign
 *   cell address), "tick_us" (per-cell simulator-tick override), and
 *   a "transforms" array of derivation steps
 *   (workload/trace_transform.hh) applied in order after the base
 *   trace materializes:
 *
 *     "transforms": [{"repeat": 3},
 *                    {"time_scale": 1.5},
 *                    {"truncate_ms": 500.0},
 *                    {"ar_perturb": {"delta": 0.1, "seed": 7}},
 *                    {"concat": {"file": "traces/tail.csv"}}]
 *
 *   Each step is an object holding exactly one transform key;
 *   "concat" nests a full trace entry (any source kind, transforms
 *   included). "file" paths are resolved against the spec file's
 *   directory unless a trace directory is passed explicitly (the
 *   CLI's --trace-dir).
 * - "platforms" entries are either preset names
 *   (platformPresetByName) or objects: {"preset": ..., "name": ...,
 *   "tdp_w": ..., "supply_v": ..., "predictor_hysteresis": ...},
 *   starting from the named preset (or defaults) and overriding the
 *   given fields.
 * - "pdns" is "all" or an array of PDN kind names
 *   (nameTable<PdnKind>, pdn/pdn_model.hh).
 * - "mode" is a simulation mode (nameTable<SimMode>,
 *   campaign/campaign_spec.hh; default static); "tick_us" is the
 *   simulator step in microseconds (default 50).
 * - "probes" (optional) binds waveform probes (obs/probe.hh) to
 *   matching cells; each entry is an object of cell selectors and
 *   capture parameters, all optional:
 *
 *     {"trace": "day-in-the-life", "platform": "ultraportable-15w",
 *      "pdn": "FlexWatts", "mode": "pmu",
 *      "signals": ["supply_power_w", "etee", "mode"],
 *      "decimate": 4,
 *      "trigger": {"on": "mode_switch", "window": 16},
 *      "battery_wh": 50.0}
 *
 *   Omitted selectors match every value on that axis (but non-empty
 *   selectors must name something the spec's axes carry); "signals"
 *   names nameTable<ProbeSignal> entries (omitted = all signals);
 *   "decimate" keeps every Nth phase; "trigger" bounds capture to
 *   ±window phases around each event its "on" names
 *   (nameTable<ProbeTriggerSpec::On>, default any). The
 *   first matching probe binds to a cell. Probes only produce
 *   output through surfaces that ask for it (the CLI's
 *   --probe-out); see docs/observability.md for the full grammar.
 *
 * Every value a spec spells from a fixed vocabulary — generator
 * "kind" (nameTable<TraceGeneratorKind>), battery "profile"
 * (batteryLifeWorkloads()), platform preset (allPlatformPresets()),
 * PDN kind, mode, probe signal and trigger — is bound from that
 * vocabulary's one name table (common/names.hh). Every binding error
 * — unknown key, unknown name, missing trace — is a single-line
 * ConfigError carrying the offending value's file:line:col position;
 * an unknown name reads "unknown <what> \"<name>\" (expected one of
 * ...)".
 */

#ifndef PDNSPOT_CONFIG_CAMPAIGN_CONFIG_HH
#define PDNSPOT_CONFIG_CAMPAIGN_CONFIG_HH

#include <initializer_list>
#include <string>

#include "campaign/campaign_spec.hh"
#include "config/json.hh"

namespace pdnspot
{

/**
 * Bind a parsed spec document to a validated CampaignSpec (the
 * result has passed CampaignSpec::validate()). `traceDir` anchors
 * relative "file" trace paths ("" = the process working directory).
 */
CampaignSpec campaignSpecFromJson(const JsonValue &root,
                                  const std::string &traceDir = "");

/** Parse and bind spec text; `sourceName` labels error positions. */
CampaignSpec loadCampaignSpec(const std::string &text,
                              const std::string &sourceName,
                              const std::string &traceDir = "");

/**
 * Parse and bind a spec file. Relative "file" trace paths resolve
 * against `traceDir` when given, else against the spec file's own
 * directory.
 */
CampaignSpec loadCampaignSpecFile(const std::string &path,
                                  const std::string &traceDir = "");

/**
 * Bind one declarative trace entry (array-form "traces" element) to
 * a TraceSpec. File-backed entries are loaded once here so a broken
 * trace file fails at the spec value's position with the nested
 * trace error; the engine resolves it again at run time.
 */
TraceSpec traceSpecFromJson(const JsonValue &value,
                            const std::string &traceDir = "");

/**
 * Bind one "platforms" entry: a preset-name string, or an object
 * starting from {"preset": name} (or PlatformConfig defaults) with
 * field overrides. Exposed for reuse by future tool surfaces.
 */
PlatformConfig platformConfigFromJson(const JsonValue &value);

/*
 * Binding helpers shared by the campaign, fleet and launch spec
 * binders; each fails at the offending value's position.
 */

/**
 * Reject members of `obj` outside `valid`, pointing at the stray
 * value and listing the valid keys: "unknown <what> key ...".
 */
void rejectUnknownKeys(const JsonValue &obj, const char *what,
                       std::initializer_list<const char *> valid);

/**
 * Bind a "tick_us" value: positive, and no finer than minTick (1 ns),
 * below which the PMU kernel's clock cannot advance.
 */
Time tickFromJson(const JsonValue &v);

} // namespace pdnspot

#endif // PDNSPOT_CONFIG_CAMPAIGN_CONFIG_HH
