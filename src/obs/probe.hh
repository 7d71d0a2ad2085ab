/**
 * @file
 * SignalProbe: per-phase waveform capture of the *simulated* system.
 *
 * The metrics/span layer (obs/metrics.hh, obs/span_trace.hh) makes
 * the tool observable; this layer makes the simulation observable. A
 * SignalProbe is a passive sink the IntervalSimulator feeds with one
 * ProbeFrame per trace phase — supply and nominal power, loss
 * breakdown, the active hybrid mode — plus discrete events: hybrid
 * mode switches (flexwatts/mode_switch.hh) and power-budget clips
 * from a shadow PowerBudgetManager (pmu/power_budget.hh) the probe
 * drives with the sampled supply power. The probe derives ETEE,
 * budget state, and a battery state-of-charge from each frame, so
 * "what did the PDN look like around that mode switch?" is a
 * waveform query instead of printf archaeology.
 *
 * The probe is strictly observational: it never feeds anything back
 * into the simulation, so a probed run produces bit-identical
 * SimResults to an unprobed one. Simulator run methods take the
 * probe as an optional trailing pointer; the only cost when unbound
 * is one null check per phase.
 *
 * Memory stays bounded on million-phase traces via decimation (keep
 * every Nth phase) and trigger windows ("±N phases around each mode
 * switch / budget clip"): candidate rows sit in a ring buffer until
 * a trigger fires, which admits the lookback window and arms a
 * lookahead window. Events are always recorded (they are sparse).
 *
 * Serialization (columnar CSV, Perfetto counter tracks) lives in
 * obs/waveform_io.hh.
 */

#ifndef PDNSPOT_OBS_PROBE_HH
#define PDNSPOT_OBS_PROBE_HH

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "common/units.hh"
#include "flexwatts/hybrid_mode.hh"
#include "pdn/etee_result.hh"
#include "pmu/power_budget.hh"

namespace pdnspot
{

/**
 * The signals a probe can capture, in canonical (column) order.
 * Their nameTable spellings are the waveform CSV column names.
 */
enum class ProbeSignal
{
    SupplyPowerW,        ///< supply (wall) power over the phase
    NominalPowerW,       ///< load nominal power over the phase
    Etee,                ///< nominal / supply (EteeResult::etee)
    Mode,                ///< active HybridMode (-1 static, 0 IVR, 1 LDO)
    VrLossW,             ///< per-rail VR conversion loss
    ConductionComputeW,  ///< compute-rail conduction loss
    ConductionUncoreW,   ///< uncore-rail conduction loss
    OtherLossW,          ///< remaining loss terms
    BudgetAvgPowerW,     ///< shadow RAPL governor's EWMA power
    BudgetMultiplier,    ///< shadow governor's clock multiplier
    BatterySoc,          ///< 1.0 - supply energy / battery capacity
};

inline constexpr size_t probeSignalCount = 11;

template <>
inline constexpr NameTable<ProbeSignal, probeSignalCount>
    nameTable<ProbeSignal>{
        "probe signal",
        {{{ProbeSignal::SupplyPowerW, "supply_power_w"},
          {ProbeSignal::NominalPowerW, "nominal_power_w"},
          {ProbeSignal::Etee, "etee"},
          {ProbeSignal::Mode, "mode"},
          {ProbeSignal::VrLossW, "vr_loss_w"},
          {ProbeSignal::ConductionComputeW, "conduction_compute_w"},
          {ProbeSignal::ConductionUncoreW, "conduction_uncore_w"},
          {ProbeSignal::OtherLossW, "other_loss_w"},
          {ProbeSignal::BudgetAvgPowerW, "budget_avg_power_w"},
          {ProbeSignal::BudgetMultiplier, "budget_multiplier"},
          {ProbeSignal::BatterySoc, "battery_soc"}}}};
static_assert(inEnumOrder(nameTable<ProbeSignal>));

inline constexpr std::array<ProbeSignal, probeSignalCount> allProbeSignals =
    valuesOf(nameTable<ProbeSignal>);

/**
 * Bounds capture to "±window phases around each trigger". Without a
 * trigger spec the probe keeps every (decimated) phase.
 */
struct ProbeTriggerSpec
{
    /** Which discrete events arm the window. */
    enum class On
    {
        ModeSwitch,
        BudgetClip,
        Any,
    };

    On on = On::Any;

    /** Phases kept before and after each trigger. */
    uint64_t window = 8;

    bool operator==(const ProbeTriggerSpec &) const = default;
};

/**
 * Trigger spellings; ModeSwitch and BudgetClip double as the
 * WaveformEvent kinds.
 */
template <>
inline constexpr NameTable<ProbeTriggerSpec::On, 3>
    nameTable<ProbeTriggerSpec::On>{
        "trigger",
        {{{ProbeTriggerSpec::On::ModeSwitch, "mode_switch"},
          {ProbeTriggerSpec::On::BudgetClip, "budget_clip"},
          {ProbeTriggerSpec::On::Any, "any"}}}};
static_assert(inEnumOrder(nameTable<ProbeTriggerSpec::On>));

/**
 * One declaratively-bound probe: which campaign cells it attaches to
 * and what it keeps. Selectors are names (empty = match any value on
 * that axis); CampaignSpec::validate cross-checks them against the
 * spec's axes so a typo fails loudly instead of capturing nothing.
 */
struct ProbeSpec
{
    std::string trace;    ///< trace-name selector ("" = any)
    std::string platform; ///< platform-name selector ("" = any)
    std::string pdn;      ///< PdnKind name selector ("" = any)
    std::string mode;     ///< SimMode name selector ("" = any)

    /** Signals to keep, any order; empty = all of them. */
    std::vector<ProbeSignal> signals;

    /** Keep every Nth phase (1 = all). */
    uint64_t decimate = 1;

    std::optional<ProbeTriggerSpec> trigger;

    /** Battery capacity backing the battery_soc signal. */
    double batteryWh = 50.0;

    /** True when this probe attaches to the named cell. */
    bool matches(const std::string &traceName,
                 const std::string &platformName,
                 const std::string &pdnName,
                 const std::string &modeName) const;

    /** The signal list normalized: canonical order, deduplicated. */
    std::vector<ProbeSignal> selectedSignals() const;

    /** fatal() unless the intrinsic fields are sane. */
    void validate() const;
};

/** One discrete event on a waveform timeline. */
struct WaveformEvent
{
    std::string kind;   ///< nameOf(On::ModeSwitch or On::BudgetClip)
    uint64_t phase = 0; ///< trace phase index the event fell in
    Time t;             ///< simulated time of the event
    std::string detail; ///< target mode / clip multiplier

    bool operator==(const WaveformEvent &) const = default;
};

/** One admitted sample: the selected signals at one trace phase. */
struct WaveformRow
{
    uint64_t phase = 0;
    Time start;    ///< simulated start time of the phase
    Time duration; ///< phase duration

    /** One value per Waveform::signals entry, same order. */
    std::vector<double> values;

    bool operator==(const WaveformRow &) const = default;
};

/**
 * A captured per-cell waveform: cell identity, the signal columns,
 * admitted sample rows (phase order), and discrete events.
 */
struct Waveform
{
    std::string trace;
    std::string platform;
    std::string pdn;  ///< nameTable<PdnKind> spelling
    std::string mode; ///< nameTable<SimMode> spelling

    /** Global (unsharded) campaign cell index; keys counter pids. */
    uint64_t cellIndex = 0;

    std::vector<ProbeSignal> signals;
    std::vector<WaveformRow> rows;
    std::vector<WaveformEvent> events;

    bool operator==(const Waveform &) const = default;

    /**
     * "trace__platform__pdn__mode" with characters outside
     * [A-Za-z0-9._-] replaced by '_' (cell names may contain '+',
     * '(' etc.) — the per-cell file stem under --probe-out.
     */
    std::string cellName() const;
};

/**
 * What the simulator hands the probe once per trace phase. Powers
 * are phase averages (the PMU path averages over its ticks); loss is
 * null when no PDN evaluation happened inside the phase (a phase
 * spent entirely inside a mode-switch C6 flow).
 */
struct ProbeFrame
{
    uint64_t phase = 0;
    Time start;
    Time duration;
    double supplyPowerW = 0.0;
    double nominalPowerW = 0.0;
    const LossBreakdown *loss = nullptr;
    int mode = -1; ///< -1 none/static, else static_cast<HybridMode>
};

/**
 * The capture state machine for one (probe spec, cell) pair. Not
 * thread-safe; the campaign engine creates one per matching cell on
 * the worker simulating it.
 */
class SignalProbe
{
  public:
    /** @param tdp the probed platform's TDP (shadow budget governor) */
    SignalProbe(const ProbeSpec &spec, Power tdp);

    /** Ingest one phase sample (call once per phase, in order). */
    void samplePhase(const ProbeFrame &frame);

    /** Record a hybrid mode switch starting at `t` in `phase`. */
    void modeSwitch(uint64_t phase, Time t, HybridMode target);

    /**
     * The captured waveform; rows still in the trigger ring (no
     * trigger fired near them) are discarded. Cell identity fields
     * are left for the caller to stamp.
     */
    Waveform take();

  private:
    void buildRow(const ProbeFrame &frame);
    void fireTrigger(ProbeTriggerSpec::On cause, uint64_t phase);

    ProbeSpec _spec;
    std::vector<ProbeSignal> _signals;
    PowerBudgetManager _budget;
    bool _wasClamped = false;
    Energy _capacity;
    Energy _consumed;

    bool _triggered = false;     ///< a trigger window is armed
    uint64_t _admitThrough = 0;  ///< last phase the window admits
    std::deque<WaveformRow> _ring;

    std::vector<WaveformRow> _rows;
    std::vector<WaveformEvent> _events;
};

} // namespace pdnspot

#endif // PDNSPOT_OBS_PROBE_HH
