/**
 * @file
 * Waveform probes: per-phase capture of the *simulated* system.
 *
 * The metrics/span layer (obs/metrics.hh, obs/span_trace.hh) makes
 * the tool observable; this layer makes the simulation observable. A
 * probed campaign cell runs its kernel with a PhaseRecord
 * (sim/sim_stats.hh) — each phase's supply and nominal power, loss
 * breakdown and hybrid mode, plus the mode switches — and
 * captureWaveform turns the finished record into the waveform its
 * ProbeSpec asks for: the selected signals, ETEE and a battery
 * state-of-charge derived per phase, and one event per mode switch.
 * So "what did the PDN look like around that mode switch?" is a
 * waveform query instead of printf archaeology. The simulation never
 * reads a record, so a probed run produces bit-identical SimResults
 * to an unprobed one.
 *
 * Memory stays bounded on million-phase traces via decimation (keep
 * every Nth phase) and trigger windows ("±N phases around each mode
 * switch"): candidate rows sit in a ring buffer until a switch fires
 * the trigger, which admits the lookback window and arms a lookahead
 * window. Events are always recorded (they are sparse).
 *
 * Serialization (columnar CSV, Perfetto counter tracks) lives in
 * obs/waveform_io.hh.
 */

#ifndef PDNSPOT_OBS_PROBE_HH
#define PDNSPOT_OBS_PROBE_HH

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/names.hh"
#include "common/units.hh"
#include "sim/sim_stats.hh"

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
    BatterySoc,          ///< 1.0 - supply energy / battery capacity
};

inline constexpr size_t probeSignalCount = 9;

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
          {ProbeSignal::BatterySoc, "battery_soc"}}}};
static_assert(inEnumOrder(nameTable<ProbeSignal>));

inline constexpr std::array<ProbeSignal, probeSignalCount> allProbeSignals =
    valuesOf(nameTable<ProbeSignal>);

/**
 * Bounds capture to "±window phases around each mode switch".
 * Without a trigger spec the probe keeps every (decimated) phase.
 */
struct ProbeTriggerSpec
{
    /** Phases kept before and after each switch. */
    uint64_t window = 8;

    bool operator==(const ProbeTriggerSpec &) const = default;
};

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

/** One mode switch on a waveform timeline. */
struct WaveformEvent
{
    uint64_t phase = 0; ///< trace phase index the switch fell in
    Time t;             ///< simulated start time of the switch
    std::string detail; ///< target mode

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
 * One pass over a finished run's record: the waveform `spec` keeps
 * of it. Each phase's switches replay before its sample, the order
 * in which they happened. Rows a trigger spec holds back that no
 * switch comes near are dropped. Cell identity fields are left for
 * the caller to stamp. fatal() unless the spec is sane.
 */
Waveform captureWaveform(const ProbeSpec &spec,
                         const PhaseRecord &record);

} // namespace pdnspot

#endif // PDNSPOT_OBS_PROBE_HH
