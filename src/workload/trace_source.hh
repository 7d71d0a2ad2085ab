/**
 * @file
 * Declarative trace provenance: where a campaign trace comes from.
 *
 * A TraceSpec is a small value object that *describes* a campaign
 * trace — a standard-corpus reference, generator parameters, a
 * battery-profile expansion, a trace file on disk, or an inline
 * PhaseTrace for compatibility — and resolve() materializes the
 * PhaseTrace on demand. Resolution is a pure function of the
 * spec (plus, for file-backed traces, the file contents), so a
 * campaign resolves each trace once per run and stays bit-identical
 * at any thread count.
 */

#ifndef PDNSPOT_WORKLOAD_TRACE_SOURCE_HH
#define PDNSPOT_WORKLOAD_TRACE_SOURCE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/units.hh"
#include "workload/trace.hh"
#include "workload/trace_generator.hh"
#include "workload/trace_transform.hh"

namespace pdnspot
{

/**
 * Parameters for one synthetic-generator trace
 * (workload/trace_generator.hh). `kind` selects the generator; the
 * other fields parameterize the kinds that take them. The standard
 * corpus (standardCampaignTraces) runs every generator at these
 * defaults.
 */
struct TraceGeneratorSpec
{
    TraceGeneratorKind kind = TraceGeneratorKind::BurstyCompute;
    uint64_t seed = 42;

    size_t bursts = 6;                      ///< bursty-compute
    Time burstLen = milliseconds(20.0);     ///< bursty-compute
    Time idleLen = milliseconds(60.0);      ///< bursty-compute

    size_t phases = 24;                     ///< random-mix
    Time meanPhaseLen = milliseconds(15.0); ///< random-mix

    /** AR range for bursty-compute and random-mix active phases. */
    double arMin = 0.4;
    double arMax = 0.8;

    bool operator==(const TraceGeneratorSpec &) const = default;
};

/**
 * One trace of a campaign, by provenance. Construct through the
 * factories; resolve() materializes the PhaseTrace. The spec's
 * name() is known without resolving (campaign validation and cell
 * addressing need it), and resolve() always returns a trace carrying
 * exactly that name.
 */
class TraceSpec
{
  public:
    enum class Kind
    {
        Inline,    ///< wraps a materialized PhaseTrace
        Library,   ///< standard-corpus entry by name and seed
        Generator, ///< synthesized from TraceGeneratorSpec
        Profile,   ///< battery-profile frame expansion
        File,      ///< CSV/JSON trace file (workload/trace_io.hh)
    };

    TraceSpec() = default;

    /**
     * Compatibility: a PhaseTrace converts implicitly, so code that
     * pushed eager traces into CampaignSpec::traces keeps working.
     */
    TraceSpec(PhaseTrace trace);

    /**
     * An entry of the standard corpus at `seed`, referenced by name
     * (see standardCampaignTraces). It resolves to that one entry's
     * base spec.
     */
    static TraceSpec library(std::string traceName,
                             uint64_t seed = 42);

    /** A synthetic trace described by generator parameters. */
    static TraceSpec generator(TraceGeneratorSpec params);

    /**
     * A battery-life residency profile (by name, see
     * workload/battery_profiles.hh) expanded to `frames` frames of
     * `framePeriod` each.
     */
    static TraceSpec profile(std::string profileName,
                             Time framePeriod = milliseconds(33.3),
                             size_t frames = 4);

    /**
     * A trace file (.csv or .json, workload/trace_io.hh). The trace
     * is named after the file stem unless rename() overrides it;
     * resolution reads the file, so resolve() errors name the path.
     */
    static TraceSpec file(std::string path);

    /** Override the resolved trace's name (campaign cell address). */
    TraceSpec &rename(std::string name);

    /**
     * Per-cell tick override: cells of this trace simulate at this
     * tick instead of the campaign-wide CampaignSpec::tick.
     */
    TraceSpec &tick(Time tick);

    /**
     * Append a derivation step (workload/trace_transform.hh) to the
     * spec's transform chain. resolve() applies the chain in append
     * order after the base trace materializes, so any provenance
     * kind can carry repeat/time-scale/truncate/ar-perturb/concat
     * steps — the declarative form of a sensitivity-study variant.
     */
    TraceSpec &transform(TraceTransform step);

    Kind kind() const { return _kind; }

    /** The trace name cells of this spec are addressed by. */
    const std::string &name() const { return _name; }

    const std::optional<Time> &tickOverride() const { return _tick; }

    /** The transform chain, in application order. */
    const std::vector<TraceTransform> &
    transforms() const
    {
        return _transforms;
    }

    /**
     * Materialize the trace: resolve the base provenance, then apply
     * the transform chain in order. Deterministic: equal specs
     * resolve to equal traces (file-backed specs additionally depend
     * on the file contents). fatal() on unresolvable specs — an
     * unknown library trace or profile name, bad generator or
     * transform parameters, or an unreadable/invalid trace file.
     */
    PhaseTrace resolve() const;

    /**
     * One-line provenance description ("library \"bursty-compute\"
     * (seed 42)", "file \"traces/office.csv\" | ar-perturb(0.1,
     * seed 7)", ...) for listings and error messages; transform
     * chains appear as "| step" suffixes in application order.
     */
    std::string describe() const;

    /**
     * fatal() unless the spec is well-formed without resolving it:
     * a non-empty CSV-safe name, known generator kind, valid AR
     * range and counts, valid transform parameters, and a positive
     * tick override if any. File existence/content errors surface
     * at resolve() time.
     */
    void validate() const;

    bool operator==(const TraceSpec &) const = default;

  private:
    /** The base trace, before the transform chain and rename. */
    PhaseTrace base() const;

    Kind _kind = Kind::Inline;
    std::string _name;

    PhaseTrace _inline;           ///< Inline
    std::string _ref;             ///< Library trace / Profile name
    uint64_t _seed = 42;          ///< Library
    TraceGeneratorSpec _params;   ///< Generator
    Time _framePeriod;            ///< Profile
    size_t _frames = 0;           ///< Profile
    std::string _path;            ///< File

    std::vector<TraceTransform> _transforms;
    std::optional<Time> _tick;
};

/**
 * The standard nine-trace campaign corpus at `seed`, as
 * TraceSpec::library references (what the spec file's {"library":
 * "standard", "seed": seed} binds): bursty-compute and
 * day-in-the-life at `seed`, three random mixes at seed, seed+1 and
 * seed+2 (all at the TraceGeneratorSpec defaults), and the four
 * battery-life profiles at the TraceSpec::profile defaults.
 */
std::vector<TraceSpec> standardCampaignTraces(uint64_t seed);

} // namespace pdnspot

#endif // PDNSPOT_WORKLOAD_TRACE_SOURCE_HH
