#include "fleet/fleet_engine.hh"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "campaign/campaign_engine.hh"
#include "common/logging.hh"
#include "common/noise.hh"
#include "obs/probe.hh"
#include "obs/span_trace.hh"
#include "sim/battery_model.hh"
#include "workload/phase_soa.hh"

namespace pdnspot
{

namespace
{

/**
 * One cohort's immutable replay profile: dense per-phase arrays the
 * session inner loop indexes, built once through the full simulator
 * stack. A whole trace cycle from *any* starting position consumes
 * cycleEnergyJ over cycleS with cycleSwitches switches (the sums are
 * position-independent), which the bucket stepper exploits to jump
 * whole cycles without walking phases.
 */
struct CohortProfile
{
    std::vector<double> powerW; ///< mean supply power per phase
    std::vector<double> durS;   ///< phase durations
    std::vector<uint32_t> switchesIn; ///< switches on entering phase
    std::vector<double> prefixS;      ///< duration prefix sums, n+1

    /** The mode the cell kernel ran: Static for every PDN but
     * FlexWatts, whatever the cohort asked for. */
    SimMode mode = SimMode::Static;

    double cycleS = 0.0;
    double cycleEnergyJ = 0.0;
    uint64_t cycleSwitches = 0;

    double capacityJ = 0.0; ///< nominal battery capacity
    double spread = 0.0;
    double jitterS = 0.0;
};

CohortProfile
buildProfile(const FleetCohort &cohort, Time tick)
{
    SpanScope span("fleet.profile", "fleet");
    CohortProfile profile;

    Platform platform(cohort.platform);
    PhaseSoA soa(cohort.trace.resolve());
    size_t phases = soa.phaseCount();
    if (phases == 0)
        fatal(strprintf("FleetEngine: cohort \"%s\" trace \"%s\" "
                        "resolved to zero phases",
                        cohort.name.c_str(),
                        cohort.trace.name().c_str()));

    // Run the cohort trace once through the campaign's cell kernel
    // with a probe capturing per-phase supply power and mode (plus
    // mode-switch events); every session replays this waveform
    // cyclically from its own offset.
    ProbeSpec ps;
    ps.signals = {ProbeSignal::SupplyPowerW, ProbeSignal::Mode};
    SignalProbe probe(ps, platform.config().tdp);
    simulateCell(platform, soa, cohort.pdn, cohort.mode,
                 cohort.trace.tickOverride().value_or(tick), &probe);
    Waveform w = probe.take();

    size_t powerCol = 0, modeCol = 0;
    for (size_t s = 0; s < w.signals.size(); ++s) {
        if (w.signals[s] == ProbeSignal::SupplyPowerW)
            powerCol = s;
        if (w.signals[s] == ProbeSignal::Mode)
            modeCol = s;
    }
    if (w.rows.size() != phases)
        panic(strprintf("FleetEngine: cohort profile captured %zu "
                        "rows for %zu phases",
                        w.rows.size(), phases));

    profile.powerW.resize(phases);
    profile.durS.resize(phases);
    profile.switchesIn.assign(phases, 0);
    for (size_t p = 0; p < phases; ++p) {
        profile.powerW[p] = w.rows[p].values[powerCol];
        profile.durS[p] = inSeconds(soa.durations()[p]);
    }
    // Switches: the PMU kernel reports each one as it happens; the
    // oracle switches instantly wherever consecutive phases run in
    // different modes (static rows all carry mode -1).
    if (cohort.mode == SimMode::Pmu) {
        for (const WaveformEvent &event : w.events) {
            if (event.kind == "mode_switch" && event.phase < phases)
                ++profile.switchesIn[event.phase];
        }
    } else {
        for (size_t p = 1; p < phases; ++p) {
            if (w.rows[p].values[modeCol] !=
                w.rows[p - 1].values[modeCol])
                profile.switchesIn[p] = 1;
        }
    }
    // Cyclic wrap: replaying the waveform back-to-back incurs one
    // more switch when it ends in the other mode than it began in.
    double first = w.rows.front().values[modeCol];
    double last = w.rows.back().values[modeCol];
    if (phases > 1 && first != last)
        ++profile.switchesIn[0];
    profile.mode = first < 0.0 ? SimMode::Static : cohort.mode;

    profile.prefixS.resize(phases + 1);
    profile.prefixS[0] = 0.0;
    for (size_t p = 0; p < phases; ++p) {
        profile.prefixS[p + 1] =
            profile.prefixS[p] + profile.durS[p];
        profile.cycleEnergyJ +=
            profile.powerW[p] * profile.durS[p];
        profile.cycleSwitches += profile.switchesIn[p];
    }
    profile.cycleS = profile.prefixS[phases];
    if (profile.cycleS <= 0.0)
        fatal(strprintf("FleetEngine: cohort \"%s\" trace has a "
                        "zero-length cycle",
                        cohort.name.c_str()));

    profile.capacityJ = cohort.batteryWh * 3600.0;
    profile.spread = cohort.batterySpread;
    profile.jitterS = inSeconds(cohort.startJitter);
    return profile;
}

/** Per-session mutable state, structure-of-arrays. ~44 bytes per
 * session all told — the only allocation that scales with the
 * population. */
struct SessionSoA
{
    std::vector<uint32_t> cohort;  ///< owning cohort index
    std::vector<uint32_t> cursor;  ///< current phase in the cycle
    std::vector<double> residueS;  ///< time left in current phase
    std::vector<double> socJ;      ///< remaining battery charge
    std::vector<double> energyJ;   ///< supply energy drawn so far
    std::vector<double> emptyAtS;  ///< death time; < 0 while alive

    void
    resize(size_t n)
    {
        cohort.resize(n);
        cursor.resize(n);
        residueS.resize(n);
        socJ.resize(n);
        energyJ.resize(n);
        emptyAtS.resize(n);
    }
};

/** One chunk's bucket-local aggregate contribution. */
struct BucketPartial
{
    double energyJ = 0.0;
    uint64_t switches = 0;
    uint64_t deaths = 0;
    uint64_t alive = 0;
};

/** Dynamically-registered fleet.* metric ids (obs/metrics.hh). */
struct FleetMetrics
{
    bool active = false;
    size_t sessions = 0;
    size_t bucketsDone = 0;
    size_t deaths = 0;
    size_t switches = 0;
    size_t stormBuckets = 0;
    size_t bucketUs = 0;

    static FleetMetrics
    install()
    {
        FleetMetrics m;
        MetricsRegistry *r = MetricsRegistry::current();
        if (!r)
            return m;
        m.active = true;
        m.sessions =
            r->registerMetric("fleet.sessions", MetricKind::Counter);
        m.bucketsDone =
            r->registerMetric("fleet.buckets", MetricKind::Counter);
        m.deaths =
            r->registerMetric("fleet.deaths", MetricKind::Counter);
        m.switches = r->registerMetric("fleet.mode_switches",
                                       MetricKind::Counter);
        m.stormBuckets = r->registerMetric("fleet.storm_buckets",
                                           MetricKind::Counter);
        m.bucketUs = r->registerMetric("fleet.bucket_us",
                                       MetricKind::Histogram);
        return m;
    }
};

/**
 * Advance one session across one bucket of `dtS` starting at
 * `startS` on the virtual clock, accumulating into the chunk
 * partial. Pure per-session math: identical at any thread count.
 */
void
advanceSession(const CohortProfile &cp, size_t s, SessionSoA &state,
               double startS, double dtS, BucketPartial &partial)
{
    if (state.emptyAtS[s] >= 0.0)
        return;

    double remaining = dtS;
    double elapsed = 0.0;
    uint32_t cur = state.cursor[s];
    double rem = state.residueS[s];
    double soc = state.socJ[s];
    double energy = 0.0;
    uint64_t switches = 0;
    bool died = false;

    // Whole-cycle fast path: a full cycle from any phase position
    // returns to that position having consumed the cycle totals, so
    // all complete cycles inside the bucket are jumped in one step —
    // capped below the charge actually left, so any death still
    // falls to the exact-phase walk below.
    if (remaining >= cp.cycleS) {
        double n = std::floor(remaining / cp.cycleS);
        if (cp.cycleEnergyJ > 0.0) {
            double byCharge = std::floor(soc / cp.cycleEnergyJ);
            while (byCharge > 0.0 &&
                   byCharge * cp.cycleEnergyJ >= soc)
                byCharge -= 1.0;
            n = std::min(n, byCharge);
        }
        if (n > 0.0) {
            double spent = n * cp.cycleEnergyJ;
            soc -= spent;
            energy += spent;
            switches +=
                static_cast<uint64_t>(n) * cp.cycleSwitches;
            remaining -= n * cp.cycleS;
            elapsed += n * cp.cycleS;
        }
    }

    size_t phases = cp.powerW.size();
    while (remaining > 0.0) {
        double step = rem < remaining ? rem : remaining;
        double power = cp.powerW[cur];
        double stepEnergy = power * step;
        if (power > 0.0 && stepEnergy >= soc) {
            // The battery empties inside this step; the death time
            // comes from the shared SoC-integration helper (the
            // same math BatteryModel::life runs over a full
            // capacity).
            elapsed += inSeconds(
                drainTime(joules(soc), watts(power)));
            energy += soc;
            soc = 0.0;
            state.emptyAtS[s] = startS + elapsed;
            ++partial.deaths;
            died = true;
            break;
        }
        soc -= stepEnergy;
        energy += stepEnergy;
        remaining -= step;
        elapsed += step;
        rem -= step;
        if (rem <= 0.0) {
            cur = cur + 1 == phases ? 0 : cur + 1;
            rem = cp.durS[cur];
            switches += cp.switchesIn[cur];
        }
    }

    state.cursor[s] = cur;
    state.residueS[s] = rem;
    state.socJ[s] = soc;
    state.energyJ[s] += energy;
    partial.energyJ += energy;
    partial.switches += switches;
    if (!died)
        ++partial.alive;
}

} // namespace

FleetEngine::FleetEngine(const ParallelRunner &runner)
    : _runner(runner)
{}

FleetResult
FleetEngine::run(const FleetSpec &spec,
                 const Progress &progress) const
{
    spec.validate();
    SpanScope runSpan("fleet.run", "fleet");
    FleetMetrics metrics = FleetMetrics::install();

    // Phase 1: cohort profiles — the only place Platform objects and
    // simulator runs exist, one per cohort regardless of population.
    std::vector<CohortProfile> profiles(spec.cohorts.size());
    _runner.forEach(spec.cohorts.size(), [&](size_t c) {
        profiles[c] = buildProfile(spec.cohorts[c], spec.tick);
    });

    size_t nSessions = static_cast<size_t>(spec.sessionCount());
    std::vector<size_t> cohortStart(spec.cohorts.size() + 1, 0);
    for (size_t c = 0; c < spec.cohorts.size(); ++c)
        cohortStart[c + 1] =
            cohortStart[c] +
            static_cast<size_t>(spec.cohorts[c].count);

    // Phase 2: seed the session SoA. Jitter and capacity keys are
    // the *global* session index, so the population is reproducible
    // independent of chunking, threads, or cohort order changes that
    // preserve index ranges.
    SessionSoA state;
    state.resize(nSessions);
    HashNoise noise(spec.seed);
    for (size_t c = 0; c < spec.cohorts.size(); ++c) {
        for (size_t s = cohortStart[c]; s < cohortStart[c + 1]; ++s)
            state.cohort[s] = static_cast<uint32_t>(c);
    }
    _runner.forEachChunked(
        nSessions, sessionGrain, [&](size_t begin, size_t end) {
            for (size_t s = begin; s < end; ++s) {
                const CohortProfile &cp = profiles[state.cohort[s]];
                uint64_t g = static_cast<uint64_t>(s);
                double pos = 0.0;
                if (cp.jitterS > 0.0) {
                    pos = std::fmod(noise.unit(2 * g) * cp.jitterS,
                                    cp.cycleS);
                    if (!(pos >= 0.0) || pos >= cp.cycleS)
                        pos = 0.0;
                }
                // First phase whose end lies past pos.
                size_t idx = static_cast<size_t>(
                    std::upper_bound(cp.prefixS.begin() + 1,
                                     cp.prefixS.end(), pos) -
                    (cp.prefixS.begin() + 1));
                if (idx >= cp.durS.size())
                    idx = cp.durS.size() - 1;
                state.cursor[s] = static_cast<uint32_t>(idx);
                state.residueS[s] = cp.prefixS[idx + 1] - pos;
                double capacity =
                    cp.capacityJ *
                    (1.0 + cp.spread * noise.signedUnit(2 * g + 1));
                state.socJ[s] = capacity;
                state.energyJ[s] = 0.0;
                state.emptyAtS[s] = -1.0;
            }
        });

    // Phase 3: the shared-clock bucket loop. Partials land in slots
    // keyed by chunk index (begin / grain) and reduce in canonical
    // chunk order — bit-identical aggregates at any thread count.
    FleetResult result;
    result.sessions = nSessions;
    result.bucketS = inSeconds(spec.bucket);
    result.horizonS = inSeconds(spec.horizon);
    result.stormK = spec.stormK;
    uint64_t nBuckets = spec.bucketCount();
    size_t nChunks = nSessions == 0
                         ? 0
                         : (nSessions + sessionGrain - 1) /
                               sessionGrain;
    std::vector<BucketPartial> partials(nChunks);
    result.buckets.reserve(
        std::min<uint64_t>(nBuckets, 1 << 20));

    for (uint64_t b = 0; b < nBuckets; ++b) {
        SpanScope bucketSpan("fleet.bucket", "fleet");
        std::chrono::steady_clock::time_point wallStart;
        if (metrics.active)
            wallStart = std::chrono::steady_clock::now();

        double startS =
            static_cast<double>(b) * result.bucketS;
        double dtS =
            std::min(result.bucketS, result.horizonS - startS);
        partials.assign(nChunks, BucketPartial{});
        _runner.forEachChunked(
            nSessions, sessionGrain,
            [&](size_t begin, size_t end) {
                BucketPartial partial;
                for (size_t s = begin; s < end; ++s)
                    advanceSession(profiles[state.cohort[s]], s,
                                   state, startS, dtS, partial);
                partials[begin / sessionGrain] = partial;
            });

        FleetBucketRow row;
        row.index = b;
        row.tEndS = startS + dtS;
        for (const BucketPartial &partial : partials) {
            row.energyJ += partial.energyJ;
            row.modeSwitches += partial.switches;
            row.deaths += partial.deaths;
            row.alive += partial.alive;
        }
        row.powerW = dtS > 0.0 ? row.energyJ / dtS : 0.0;
        result.totalEnergyJ += row.energyJ;
        result.totalSwitches += row.modeSwitches;
        result.deaths += row.deaths;
        result.simulatedS = row.tEndS;
        result.buckets.push_back(row);

        if (metrics.active) {
            MetricsRegistry *r = MetricsRegistry::current();
            if (r) {
                r->add(metrics.bucketsDone);
                double us =
                    std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() -
                        wallStart)
                        .count();
                r->observe(metrics.bucketUs, us);
            }
        }

        if (progress)
            progress(b + 1, nBuckets);

        // The whole fleet is dark; further buckets are all zeros.
        if (row.alive == 0)
            break;
    }

    // Storm verdict: a bucket switches more than stormK × the mean.
    if (!result.buckets.empty())
        result.stormBaseline =
            static_cast<double>(result.totalSwitches) /
            static_cast<double>(result.buckets.size());
    for (FleetBucketRow &row : result.buckets) {
        row.storm =
            row.modeSwitches > 0 &&
            static_cast<double>(row.modeSwitches) >
                spec.stormK * result.stormBaseline;
        if (row.storm)
            ++result.stormBuckets;
    }

    // Distributions, built serially in global session order (thread
    // count can't reorder histogram accumulation). Battery life
    // records actual deaths; time-to-empty projects survivors from
    // their mean draw via the shared drainTime helper.
    result.batteryLifeH.name = "fleet.battery_life_h";
    result.batteryLifeH.kind = MetricKind::Histogram;
    result.timeToEmptyH.name = "fleet.time_to_empty_h";
    result.timeToEmptyH.kind = MetricKind::Histogram;
    for (size_t s = 0; s < nSessions; ++s) {
        if (state.emptyAtS[s] >= 0.0) {
            double hours = state.emptyAtS[s] / 3600.0;
            histogramObserve(result.batteryLifeH, hours);
            histogramObserve(result.timeToEmptyH, hours);
        } else if (state.energyJ[s] > 0.0 &&
                   result.simulatedS > 0.0) {
            double meanW =
                state.energyJ[s] / result.simulatedS;
            double hours =
                (result.simulatedS +
                 inSeconds(drainTime(joules(state.socJ[s]),
                                     watts(meanW)))) /
                3600.0;
            histogramObserve(result.timeToEmptyH, hours);
        }
    }

    for (size_t c = 0; c < spec.cohorts.size(); ++c) {
        const FleetCohort &cohort = spec.cohorts[c];
        FleetCohortInfo info;
        info.name = cohort.name;
        info.count = cohort.count;
        info.platform = cohort.platform.name;
        info.pdn = pdnKindToString(cohort.pdn);
        info.mode = toString(profiles[c].mode);
        info.trace = cohort.trace.name();
        info.phases = profiles[c].powerW.size();
        info.cycleS = profiles[c].cycleS;
        result.cohorts.push_back(std::move(info));
    }

    if (metrics.active) {
        MetricsRegistry *r = MetricsRegistry::current();
        if (r) {
            r->add(metrics.sessions, result.sessions);
            r->add(metrics.deaths, result.deaths);
            r->add(metrics.switches, result.totalSwitches);
            r->add(metrics.stormBuckets, result.stormBuckets);
        }
    }

    return result;
}

} // namespace pdnspot
