#include "fleet/fleet_engine.hh"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/noise.hh"
#include "fleet/cohort_profile.hh"
#include "obs/span_trace.hh"
#include "sim/battery_model.hh"

namespace pdnspot
{

namespace
{

/** Per-session mutable state, structure-of-arrays. 40 bytes per
 * session all told — the only allocation that scales with the
 * population. */
struct SessionSoA
{
    std::vector<uint32_t> cohort; ///< owning cohort index
    std::vector<uint32_t> cursor; ///< phase holding posNs
    std::vector<int64_t> posNs;   ///< clock position in the cycle
    std::vector<double> socJ;     ///< remaining battery charge
    std::vector<double> energyJ;  ///< supply energy drawn so far
    std::vector<double> emptyAtS; ///< death time; < 0 while alive

    void
    resize(size_t n)
    {
        cohort.resize(n);
        cursor.resize(n);
        posNs.resize(n);
        socJ.resize(n);
        energyJ.resize(n);
        emptyAtS.resize(n);
    }
};

/**
 * One bucket's span split for one cohort: the whole trace cycles it
 * holds, with their totals, and the partial cycle left over. Every
 * session of the cohort shares it.
 */
struct CohortStep
{
    int64_t cycles = 0;
    int64_t wholeNs = 0;
    double wholeJ = 0.0;
    uint64_t wholeSwitches = 0;
    int64_t restNs = 0;

    CohortStep(const CohortProfile &cp, int64_t dtNs)
        : cycles(dtNs / cp.cycleNs), wholeNs(cycles * cp.cycleNs),
          wholeJ(static_cast<double>(cycles) * cp.cycleEnergyJ),
          wholeSwitches(static_cast<uint64_t>(cycles) *
                        cp.cycleSwitches),
          restNs(dtNs - wholeNs)
    {}
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
    size_t sessionBuckets = 0;
    size_t deaths = 0;
    size_t switches = 0;
    size_t stormBuckets = 0;
    size_t bucketUs = 0;
    size_t nsPerSessionBucket = 0;

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
        m.sessionBuckets = r->registerMetric("fleet.session_buckets",
                                             MetricKind::Counter);
        m.deaths =
            r->registerMetric("fleet.deaths", MetricKind::Counter);
        m.switches = r->registerMetric("fleet.mode_switches",
                                       MetricKind::Counter);
        m.stormBuckets = r->registerMetric("fleet.storm_buckets",
                                           MetricKind::Counter);
        m.bucketUs = r->registerMetric("fleet.bucket_us",
                                       MetricKind::Histogram);
        m.nsPerSessionBucket = r->registerMetric(
            "fleet.ns_per_session_bucket", MetricKind::Gauge);
        return m;
    }
};

/**
 * Advance one session across one bucket that starts at `startNs` on
 * the clock, accumulating into the chunk partial. Pure per-session
 * math: identical at any thread count.
 *
 * Whole cycles cost nothing to step — a cycle from any position
 * returns there having consumed the cycle totals — so the bucket's
 * whole cycles are taken at once while the charge covers them. What
 * is left is stepped in spans of at most one cycle on the
 * doubled-cycle prefix arrays: an upper_bound on tNs finds the phase
 * the span ends in, prefix differences give its energy and
 * switches, and when the span's energy reaches the charge, a
 * lower_bound on eJ finds the phase the battery empties in.
 *
 * Tie rule: a phase entered exactly at the bucket's end belongs to
 * this bucket — its switches count here and the session's cursor
 * rests on it.
 */
void
advanceSession(const CohortProfile &cp, const CohortStep &step,
               size_t s, SessionSoA &state, int64_t startNs,
               BucketPartial &partial)
{
    if (state.emptyAtS[s] >= 0.0)
        return;

    double soc = state.socJ[s];
    double energy = 0.0;
    uint64_t switches = 0;
    int64_t elapsedNs = 0;
    int64_t leftNs = step.restNs;
    if (step.wholeJ < soc) {
        soc -= step.wholeJ;
        energy = step.wholeJ;
        switches = step.wholeSwitches;
        elapsedNs = step.wholeNs;
    } else {
        // The charge runs out inside the whole cycles: jump the
        // cycles it covers (strictly below the charge left), and the
        // death falls to the stepping below.
        double n = std::floor(soc / cp.cycleEnergyJ);
        while (n > 0.0 && n * cp.cycleEnergyJ >= soc)
            n -= 1.0;
        int64_t cycles =
            std::min(static_cast<int64_t>(n), step.cycles);
        double spent = static_cast<double>(cycles) * cp.cycleEnergyJ;
        soc -= spent;
        energy = spent;
        switches = static_cast<uint64_t>(cycles) * cp.cycleSwitches;
        elapsedNs = cycles * cp.cycleNs;
        leftNs += step.wholeNs - elapsedNs;
    }

    size_t n = cp.phases();
    size_t c = state.cursor[s];
    int64_t pos = state.posNs[s];
    const int64_t *t = cp.tNs.data();
    const double *e = cp.eJ.data();
    bool died = false;
    while (leftNs > 0) {
        int64_t span = std::min(leftNs, cp.cycleNs);
        int64_t end = pos + span;
        // end < tNs[c + 1] + cycleNs = tNs[c + n + 1], so the phase
        // holding it lies in [c, c + n].
        size_t d = static_cast<size_t>(
            std::upper_bound(t + c + 1, t + c + n + 1, end) - t - 1);
        double baseJ = cp.energyAt(c, pos);
        double targetJ = baseJ + soc;
        double endJ = cp.energyAt(d, end);
        if (endJ >= targetJ) {
            size_t q = static_cast<size_t>(
                std::lower_bound(e + c + 1, e + d + 1, targetJ) - e -
                1);
            double leftJ = q == c ? soc : soc - (e[q] - baseJ);
            int64_t atNs = q == c ? pos : t[q];
            Power power = watts(cp.powerW[q < n ? q : q - n]);
            state.emptyAtS[s] =
                clockSeconds(startNs + elapsedNs + (atNs - pos)) +
                inSeconds(
                    drainTime(joules(std::max(leftJ, 0.0)), power));
            energy += soc;
            soc = 0.0;
            switches += cp.sw[q] - cp.sw[c];
            ++partial.deaths;
            died = true;
            break;
        }
        soc -= endJ - baseJ;
        energy += endJ - baseJ;
        switches += cp.sw[d] - cp.sw[c];
        c = d;
        pos = end;
        if (c >= n) {
            c -= n;
            pos -= cp.cycleNs;
        }
        leftNs -= span;
        elapsedNs += span;
    }

    state.cursor[s] = static_cast<uint32_t>(c);
    state.posNs[s] = pos;
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
                SessionStart start =
                    sessionStart(profiles[state.cohort[s]], noise,
                                 static_cast<uint64_t>(s));
                state.cursor[s] = start.cursor;
                state.posNs[s] = start.posNs;
                state.socJ[s] = start.socJ;
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
    int64_t bucketNs = spec.bucketNs();
    int64_t horizonNs = spec.horizonNs();
    std::vector<CohortStep> steps;
    steps.reserve(profiles.size());
    uint64_t sessionBuckets = 0;
    double steppingUs = 0.0;

    for (uint64_t b = 0; b < nBuckets; ++b) {
        SpanScope bucketSpan("fleet.bucket", "fleet");
        std::chrono::steady_clock::time_point wallStart;
        if (metrics.active)
            wallStart = std::chrono::steady_clock::now();

        int64_t startNs = static_cast<int64_t>(b) * bucketNs;
        int64_t endNs = std::min(startNs + bucketNs, horizonNs);
        steps.clear();
        for (const CohortProfile &cp : profiles)
            steps.emplace_back(cp, endNs - startNs);
        partials.assign(nChunks, BucketPartial{});
        _runner.forEachChunked(
            nSessions, sessionGrain,
            [&](size_t begin, size_t end) {
                BucketPartial partial;
                for (size_t s = begin; s < end; ++s) {
                    uint32_t c = state.cohort[s];
                    advanceSession(profiles[c], steps[c], s, state,
                                   startNs, partial);
                }
                partials[begin / sessionGrain] = partial;
            });

        FleetBucketRow row;
        row.index = b;
        row.tEndS = clockSeconds(endNs);
        for (const BucketPartial &partial : partials) {
            row.energyJ += partial.energyJ;
            row.modeSwitches += partial.switches;
            row.deaths += partial.deaths;
            row.alive += partial.alive;
        }
        row.powerW = row.energyJ / clockSeconds(endNs - startNs);
        result.totalEnergyJ += row.energyJ;
        result.totalSwitches += row.modeSwitches;
        result.deaths += row.deaths;
        result.simulatedS = row.tEndS;
        result.buckets.push_back(row);

        // Sessions stepped in this bucket: those alive at its start.
        sessionBuckets += row.alive + row.deaths;
        if (metrics.active) {
            MetricsRegistry *r = MetricsRegistry::current();
            if (r) {
                r->add(metrics.bucketsDone);
                r->add(metrics.sessionBuckets, row.alive + row.deaths);
                double us =
                    std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() -
                        wallStart)
                        .count();
                r->observe(metrics.bucketUs, us);
                steppingUs += us;
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
        info.pdn = toString(cohort.pdn);
        info.mode = toString(profiles[c].mode);
        info.trace = cohort.trace.name();
        info.phases = profiles[c].phases();
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
            if (sessionBuckets > 0)
                r->set(metrics.nsPerSessionBucket,
                       steppingUs * 1e3 /
                           static_cast<double>(sessionBuckets));
        }
    }

    return result;
}

} // namespace pdnspot
