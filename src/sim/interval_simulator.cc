#include "sim/interval_simulator.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/metrics.hh"

namespace pdnspot
{

namespace
{

constexpr size_t workloadTypes = nameTable<WorkloadType>.rows.size();

/** Classes of stateFor queries that differ only in AR: one per
 * workload type in C0, then one per other C-state. */
constexpr size_t demandClasses =
    workloadTypes + nameTable<PackageCState>.rows.size() - 1;

/** A query's class (C-states ignore the workload type). */
size_t
demandClass(const OperatingPointModel::Query &q)
{
    return q.cstate == PackageCState::C0
               ? static_cast<size_t>(q.type)
               : workloadTypes + static_cast<size_t>(q.cstate) - 1;
}

/**
 * One run's rail demands, one per class of its stateFor queries. A
 * query's platform state differs from its class's only in the AR
 * (C-states ignore the workload type and pin their own AR), and the
 * AR reaches a PDN only at delivery, so each class builds one state
 * and one demand on first use, and each unique state delivers that
 * demand at its own AR.
 */
class DemandTable
{
  public:
    /** A unique state's class demand and the AR it delivers at. */
    struct Delivery
    {
        const PdnDemand *demand = nullptr;
        double ar = 0.0;
    };

    DemandTable(const OperatingPointModel &opm, const PdnModel &pdn)
        : _opm(opm), _pdn(pdn)
    {}

    /**
     * The delivery of one query. It runs build()'s checks first, so
     * every unique state is checked — its C0 AR too — as if it were
     * built.
     */
    Delivery
    lookup(const OperatingPointModel::Query &q)
    {
        _opm.validate(q);
        Class &c = _classes[demandClass(q)];
        if (!c.built) {
            PlatformState state = _opm.build(q);
            c.demand = _pdn.demand(state);
            c.pinnedAr = state.ar;
            c.built = true;
        }
        return {&c.demand,
                q.cstate == PackageCState::C0 ? q.ar : c.pinnedAr};
    }

  private:
    struct Class
    {
        bool built = false;
        double pinnedAr = 0.0; ///< a C-state's own AR
        PdnDemand demand;
    };

    const OperatingPointModel &_opm;
    const PdnModel &_pdn;
    std::array<Class, demandClasses> _classes{};
};

} // namespace

IntervalSimulator::IntervalSimulator(const OperatingPointModel &opm,
                                     Power tdp, Time tick)
    : _opm(opm), _tdp(tdp), _tick(tick)
{
    if (tick <= seconds(0.0))
        fatal("IntervalSimulator: non-positive tick");
    if (tick < minTick)
        fatal(strprintf("IntervalSimulator: tick %g us is below the "
                        "1 ns minimum",
                        inMicroseconds(tick)));
}

OperatingPointModel::Query
IntervalSimulator::queryFor(const TracePhase &phase) const
{
    OperatingPointModel::Query q;
    q.tdp = _tdp;
    q.cstate = phase.cstate;
    q.type = phase.type;
    q.ar = canonicalActivityRatio(phase.ar);
    return q;
}

PlatformState
IntervalSimulator::stateFor(const TracePhase &phase) const
{
    return _opm.build(queryFor(phase));
}

SimResult
IntervalSimulator::run(const PhaseSoA &soa, const PdnModel &pdn,
                       PhaseRecord *record) const
{
    metricAdd(Metric::SimRunsStatic);

    // One delivery per unique state, from its class's demand.
    const std::vector<TracePhase> &unique = soa.uniquePhases();
    std::vector<EteeResult> etee(unique.size());
    DemandTable demands(_opm, pdn);
    for (size_t u = 0; u < unique.size(); ++u) {
        DemandTable::Delivery d = demands.lookup(queryFor(unique[u]));
        etee[u] = pdn.deliver(*d.demand, d.ar);
    }

    // Dense accumulation over the per-phase arrays, in trace order.
    SimResult result;
    const std::vector<Time> &durations = soa.durations();
    const std::vector<uint32_t> &index = soa.uniqueIndex();
    if (record)
        *record = PhaseRecord();
    for (size_t p = 0; p < durations.size(); ++p) {
        const EteeResult &e = etee[index[p]];
        if (record)
            record->push(durations[p], e, -1);
        result.duration += durations[p];
        result.supplyEnergy += e.inputPower * durations[p];
        result.nominalEnergy += e.nominalPower * durations[p];
    }
    return result;
}

SimResult
IntervalSimulator::runOracle(const PhaseSoA &soa,
                             const FlexWattsPdn &pdn,
                             PhaseRecord *record) const
{
    metricAdd(Metric::SimRunsOracle);

    const std::vector<TracePhase> &unique = soa.uniquePhases();
    std::vector<HybridMode> modes(unique.size());
    std::vector<EteeResult> etee(unique.size());
    DemandTable demands(_opm, pdn);
    for (size_t u = 0; u < unique.size(); ++u) {
        DemandTable::Delivery d = demands.lookup(queryFor(unique[u]));
        modes[u] = pdn.bestMode(*d.demand, d.ar, &etee[u]);
    }

    SimResult result;
    const std::vector<Time> &durations = soa.durations();
    const std::vector<uint32_t> &index = soa.uniqueIndex();
    if (record)
        *record = PhaseRecord();
    for (size_t p = 0; p < durations.size(); ++p) {
        const EteeResult &e = etee[index[p]];
        if (record)
            record->push(durations[p], e,
                         static_cast<int>(modes[index[p]]));
        result.duration += durations[p];
        result.supplyEnergy += e.inputPower * durations[p];
        result.nominalEnergy += e.nominalPower * durations[p];
        result.modeResidency[static_cast<size_t>(modes[index[p]])] +=
            durations[p];
    }
    return result;
}

SimResult
IntervalSimulator::run(const PhaseSoA &soa, const FlexWattsPdn &pdn,
                       Pmu &pmu, PhaseRecord *record) const
{
    metricAdd(Metric::SimRunsPmu);
    SimResult result;

    // Per-(unique state, mode) evaluation cache: every phase of a
    // unique state runs in the same platform state, so at most 2
    // deliveries per unique state are ever needed regardless of
    // tick resolution or how often the trace revisits the state.
    // A state is looked up (and checked) on its first evaluation.
    struct StateEval
    {
        DemandTable::Delivery delivery;
        std::array<bool, 2> valid{};
        std::array<EteeResult, 2> etee;
    };
    const std::vector<TracePhase> &unique = soa.uniquePhases();
    const std::vector<Time> &durations = soa.durations();
    const std::vector<uint32_t> &index = soa.uniqueIndex();
    std::vector<StateEval> cache(unique.size());
    DemandTable demands(_opm, pdn);

    // The record's phase powers average over the phase's ticks
    // (supply/nominal energy deltas divided by the duration), its
    // loss is the phase's last PDN evaluation (none if the whole
    // phase sat inside a C6 switch flow) and its mode the one
    // configured at phase end. Switches arrive through the
    // switch-flow observer as they happen.
    size_t pi = 0;
    if (record) {
        *record = PhaseRecord();
        pmu.setSwitchObserver(
            [record, &pi](Time t, HybridMode target) {
                record->switches.push_back({pi, t, target});
            });
    }

    auto evaluate = [&](uint32_t u, HybridMode mode)
        -> const EteeResult & {
        StateEval &se = cache[u];
        size_t m = static_cast<size_t>(mode);
        if (!se.valid[m]) {
            if (!se.valid[0] && !se.valid[1])
                se.delivery = demands.lookup(queryFor(unique[u]));
            se.etee[m] = pdn.deliver(*se.delivery.demand,
                                     se.delivery.ar, mode);
            se.valid[m] = true;
        }
        return se.etee[m];
    };

    Time now;
    uint64_t switches_before = 0;
    for (pi = 0; pi < durations.size(); ++pi) {
        uint32_t u = index[pi];
        const TracePhase &phase = unique[u];
        Time duration = durations[pi];
        Time phase_start = now;
        Time phase_end = now + duration;
        Energy phaseSupplyStart = result.supplyEnergy;
        Energy phaseNominalStart = result.nominalEnergy;
        // Cache entries never move, so the last evaluation is a
        // pointer into the cache.
        const EteeResult *lastEval = nullptr;

        // Step times are derived from the phase start and an integer
        // tick count (one rounding each) rather than accumulated, so
        // `now` does not drift from the nominal boundaries and the
        // PMU sees cadence ticks at the same times for any tick size.
        uint64_t tick_idx = 0;
        while (now < phase_end) {
            Time next = std::min(
                phase_start +
                    _tick * static_cast<double>(tick_idx + 1),
                phase_end);
            Time step = next - now;
            pmu.advanceTo(now, phase);

            HybridMode mode = pmu.configuredMode();
            if (pmu.switching(now)) {
                // Compute domains idle through the C6 flow; the
                // platform draws the flow power instead of the
                // workload power. Nominal (useful) energy is zero.
                Time overlap = std::min(
                    step, pmu.switchFlow().busyUntil() - now);
                Power flow_power =
                    pmu.switchFlow().params().flowPower;
                result.supplyEnergy += flow_power * overlap;
                Time rest = step - overlap;
                if (rest > seconds(0.0)) {
                    const EteeResult &e = evaluate(u, mode);
                    result.supplyEnergy += e.inputPower * rest;
                    result.nominalEnergy += e.nominalPower * rest;
                    lastEval = &e;
                }
            } else {
                const EteeResult &e = evaluate(u, mode);
                result.supplyEnergy += e.inputPower * step;
                result.nominalEnergy += e.nominalPower * step;
                lastEval = &e;
            }
            result.modeResidency[static_cast<size_t>(mode)] += step;
            now = next;
            ++tick_idx;
        }
        if (record) {
            record->duration.push_back(duration);
            record->supplyW.push_back(inWatts(
                (result.supplyEnergy - phaseSupplyStart) / duration));
            record->nominalW.push_back(inWatts(
                (result.nominalEnergy - phaseNominalStart) / duration));
            record->loss.push_back(
                lastEval ? std::optional(lastEval->loss) : std::nullopt);
            record->mode.push_back(
                static_cast<int>(pmu.configuredMode()));
        }
    }
    if (record)
        pmu.setSwitchObserver({});

    result.duration = now;
    result.modeSwitches = pmu.switchFlow().switchCount() -
                          switches_before;
    result.switchOverheadTime = pmu.switchFlow().totalOverheadTime();
    result.switchOverheadEnergy =
        pmu.switchFlow().totalOverheadEnergy();
    return result;
}

} // namespace pdnspot
