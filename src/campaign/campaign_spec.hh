/**
 * @file
 * Declarative description of one batch-simulation campaign.
 *
 * The paper's evaluation is a cross-product: many workload traces,
 * run on platforms of several power classes, across the five PDN
 * architectures (Figs. 7/8). A CampaignSpec names exactly that
 * product — traces × platform configs × PDN kinds — plus the
 * simulation mode, and CampaignEngine (campaign_engine.hh) executes
 * every cell in parallel.
 */

#ifndef PDNSPOT_CAMPAIGN_CAMPAIGN_SPEC_HH
#define PDNSPOT_CAMPAIGN_CAMPAIGN_SPEC_HH

#include <string>
#include <vector>

#include "obs/probe.hh"
#include "pdn/pdn_model.hh"
#include "pdnspot/platform.hh"
#include "workload/trace.hh"
#include "workload/trace_source.hh"

namespace pdnspot
{

/** How each (trace, platform, pdn) cell is simulated. */
enum class SimMode
{
    /**
     * Every PDN evaluated statically, FlexWatts pinned to its
     * default mode logic (no PMU, no switch overheads).
     */
    Static,

    /**
     * FlexWatts cells run under realistic PMU control: the predictor
     * sees the workload only through sensors and pays the C6 switch
     * flow. Non-hybrid PDNs have no mode logic and run statically.
     */
    Pmu,

    /**
     * FlexWatts cells use the oracle (instant, free, always-right
     * mode choice) — the predictor-quality upper bound.
     */
    Oracle,
};

template <>
inline constexpr NameTable<SimMode, 3> nameTable<SimMode>{
    "simulation mode",
    {{{SimMode::Static, "static"},
      {SimMode::Pmu, "pmu"},
      {SimMode::Oracle, "oracle"}}}};
static_assert(inEnumOrder(nameTable<SimMode>));

/**
 * One campaign: the cell cross-product and how to simulate it.
 *
 * The trace axis is declarative: each entry is a TraceSpec
 * (workload/trace_source.hh) describing where the trace comes from,
 * and the engine materializes it once per run. A PhaseTrace
 * converts implicitly to an inline TraceSpec, so eager callers keep
 * working unchanged.
 */
struct CampaignSpec
{
    std::vector<TraceSpec> traces;
    std::vector<PlatformConfig> platforms;
    std::vector<PdnKind> pdns;
    SimMode mode = SimMode::Static;

    /**
     * Waveform probes (obs/probe.hh): cells matching a probe's
     * selectors capture a per-phase waveform delivered on
     * CampaignCellResult::waveform (first matching probe wins).
     * Empty = no capture, and the simulators run entirely unprobed
     * (the zero-overhead contract).
     */
    std::vector<ProbeSpec> probes;

    /**
     * Interval-simulator step (bounds switch-flow resolution).
     * Individual traces may carry a per-cell override
     * (TraceSpec::tick); cells of such traces simulate at that tick
     * instead.
     */
    Time tick = microseconds(50.0);

    /** Total number of (trace, platform, pdn) cells. */
    size_t
    cellCount() const
    {
        return traces.size() * platforms.size() * pdns.size();
    }

    /**
     * fatal() unless the spec is runnable: non-empty axes, a
     * positive tick, well-formed trace specs (TraceSpec::validate)
     * with unique CSV-safe names, unique platform names, and every
     * platform TDP within the operating-point model's span. Trace
     * specs are not resolved: file-backed trace errors surface at
     * resolution time. Probe specs must be intrinsically sane and
     * their non-empty selectors must name values the spec's axes
     * actually carry (a silently-never-matching probe is a config
     * error).
     */
    void validate() const;
};

/** Cells [first, end) of a campaign's canonical cell order. */
struct CellRange
{
    size_t first = 0;
    size_t end = 0;
};

/**
 * Shard k of n (1 <= k <= n) over `cells` cells: [(k-1)*cells/n,
 * k*cells/n). The n shards are contiguous, disjoint and jointly
 * cover [0, cells); when n > cells some of them are empty. fatal()
 * unless 1 <= k <= n.
 */
CellRange shardCellRange(size_t cells, size_t k, size_t n);

} // namespace pdnspot

#endif // PDNSPOT_CAMPAIGN_CAMPAIGN_SPEC_HH
