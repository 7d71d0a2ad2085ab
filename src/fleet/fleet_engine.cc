#include "fleet/fleet_engine.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "common/noise.hh"
#include "fleet/cohort_profile.hh"
#include "obs/span_trace.hh"
#include "sim/battery_model.hh"

namespace pdnspot
{

namespace
{

using Clock = std::chrono::steady_clock;

/** Dynamically-registered fleet.* metric ids (obs/metrics.hh); no
 * registry when none is installed. */
struct FleetMetrics
{
    MetricsRegistry *r = MetricsRegistry::current();
    size_t sessions = id("fleet.sessions"), buckets = id("fleet.buckets"),
           sessionBuckets = id("fleet.session_buckets"),
           deaths = id("fleet.deaths"),
           switches = id("fleet.mode_switches"),
           stormBuckets = id("fleet.storm_buckets"),
           bucketUs = id("fleet.bucket_us", MetricKind::Histogram),
           nsPerSessionBucket =
               id("fleet.ns_per_session_bucket", MetricKind::Gauge);

    size_t
    id(const char *name, MetricKind kind = MetricKind::Counter) const
    {
        return r ? r->registerMetric(name, kind) : 0;
    }
};

/** The death bucket of a session that outlives the horizon. */
constexpr uint32_t survives = std::numeric_limits<uint32_t>::max();

/** Sessions per claimed range in the per-session pass. */
constexpr size_t sessionChunk = 4096;

/** Where one session's battery empties, on the shared clock. */
struct Death
{
    int64_t atNs = -1;     ///< first ns the charge is gone by; < 0 never
    double atS = 0.0;      ///< the empty time, drained within the phase
    uint64_t switches = 0; ///< from its cycle start to the death
};

/**
 * Solve one session's death once, from its start: the whole cycles
 * strictly below its charge in one division (each returns to the
 * start position), then a lower_bound on the prefix energies for the
 * phase the rest runs out in, within one cycle of the start, and the
 * whole ns that phase takes to drain it (at most its rest, whose
 * unrounded energy reaches the charge). The charge is gone at atNs
 * when the energy drawn by then reaches it, so a death on a bucket's
 * end belongs to that bucket. A death after the horizon is never.
 */
Death
solveDeath(const CohortProfile &cp, const SessionStart &start,
           int64_t horizonNs)
{
    Death death;
    double cycleJ = cp.cycleEnergyJ;
    if (!(cycleJ > 0.0))
        return death;
    double n = std::floor(start.socJ / cycleJ);
    while (n > 0.0 && n * cycleJ >= start.socJ)
        n -= 1.0;
    if (n > static_cast<double>(horizonNs / cp.cycleNs))
        return death;

    // The rest runs out in phases cursor.. of this cycle, or in
    // phases ..cursor of the next.
    int64_t pos = start.posNs;
    double targetJ = cp.energyAt(start.cursor, pos) +
                     std::min(start.socJ - n * cycleJ, cycleJ);
    bool wraps = targetJ > cycleJ;
    if (wraps) {
        targetJ -= cycleJ;
        n += 1.0;
    }
    const double *e = cp.eJ.data();
    size_t q = static_cast<size_t>(
        std::lower_bound(e + (wraps ? 1 : start.cursor + 1),
                         e + cp.phases() + 1, targetJ) -
        e - 1);
    int64_t atNs = !wraps && q == start.cursor ? pos : cp.tNs[q];
    double leftJ = std::max(targetJ - cp.energyAt(q, atNs), 0.0);
    double drainNs = std::ceil(leftJ / cp.jPerNs[q]);
    int64_t restNs = cp.tNs[q + 1] - atNs;
    // On the clock: n whole cycles, then from the start position to
    // the phase's entry (or the start) and through the drain.
    int64_t tailNs = atNs - pos +
                     (drainNs < static_cast<double>(restNs)
                          ? static_cast<int64_t>(drainNs)
                          : restNs);
    if (tailNs > horizonNs ||
        n > static_cast<double>((horizonNs - tailNs) / cp.cycleNs))
        return death;
    int64_t wholeNs = static_cast<int64_t>(n) * cp.cycleNs;
    death.atNs = wholeNs + tailNs;
    death.atS = clockSeconds(wholeNs + atNs - pos) +
                inSeconds(drainTime(joules(leftJ), watts(cp.powerW[q])));
    death.switches =
        static_cast<uint64_t>(n) * cp.cycleSwitches + cp.sw[q];
    return death;
}

/** Live sessions below an offset: how many, and their offset sum. */
struct Prefix
{
    uint32_t count = 0;
    uint64_t sum = 0;
};

/** A cohort's live sessions at one cycle phase (LiveCohort::at). */
struct Frame
{
    double energyJ = 0.0;
    uint64_t switches = 0;
    uint32_t wrapped = 0;
};

/**
 * One cohort's live sessions by start offset: the offsets sorted
 * once, and a Fenwick tree over their ranks holding a count and an
 * offset sum. Queries cut at offset values, never inside a run of
 * equal offsets, so a removal may take any rank of its run. Counts
 * and sums wrap (modulo 2^32 and 2^64); every total read back lies
 * in range, so it comes back exact.
 */
class LiveCohort
{
  public:
    const CohortProfile *cp = nullptr;
    uint32_t alive = 0;
    /** The frame at the previous bucket's end, over the sessions
     * alive then. */
    Frame last;

    LiveCohort() = default;

    LiveCohort(const CohortProfile &profile, const int64_t *offsets,
               uint32_t n)
        : cp(&profile), alive(n), _off(n), _count(n + 1, 0),
          _sum(n + 1, 0)
    {
        // A counting sort into value cells of 2^_shift ns, two to four
        // offsets to a cell on average, then a sort within each cell;
        // a rank search runs within one cell too.
        while (static_cast<size_t>((cp->cycleNs - 1) >> _shift) > n / 2)
            ++_shift;
        size_t cells = static_cast<size_t>((cp->cycleNs - 1) >> _shift) + 1;
        _cellStart.assign(cells + 1, 0);
        for (size_t i = 0; i < n; ++i)
            ++_cellStart[(offsets[i] >> _shift) + 1];
        for (size_t c = 0; c < cells; ++c)
            _cellStart[c + 1] += _cellStart[c];
        std::vector<uint32_t> fill(_cellStart);
        for (size_t i = 0; i < n; ++i)
            _off[fill[offsets[i] >> _shift]++] = offsets[i];
        for (size_t c = 0; c < cells; ++c)
            std::sort(_off.begin() + _cellStart[c],
                      _off.begin() + _cellStart[c + 1]);
        for (size_t i = 1; i <= n; ++i) {
            _count[i] = static_cast<uint32_t>(i & -i);
            _sum[i] += static_cast<uint64_t>(_off[i - 1]);
            if (i + (i & -i) <= n)
                _sum[i + (i & -i)] += _sum[i];
        }
        // Phases so long that count × length could pass 2^64 (the
        // exact-sum bound) are cut into segments.
        int64_t maxNs = static_cast<int64_t>(std::min<uint64_t>(
            std::numeric_limits<uint64_t>::max() / std::max(n, 1u),
            std::numeric_limits<int64_t>::max()));
        for (size_t k = 0; k < cp->phases(); ++k) {
            for (int64_t a = cp->tNs[k]; a < cp->tNs[k + 1];
                 a += std::min(maxNs, cp->tNs[k + 1] - a))
                _segments.push_back({a, k});
        }
        _segments.push_back({cp->cycleNs, cp->phases()});
        last = at(0);
    }

    /** A session at offset off dies: it leaves the tree. */
    void
    remove(int64_t off)
    {
        --alive;
        for (size_t i = rank(off) + 1; i < _count.size(); i += i & -i) {
            _count[i] -= 1;
            _sum[i] -= static_cast<uint64_t>(off);
        }
    }

    /**
     * The live sessions at cycle phase tau, each at position
     * p = (offset + tau) mod cycle: the energy and switches from each
     * one's cycle start to p, and how many wrapped past the cycle's
     * end to get there. Unrolled, offset rank i stands at
     * _off[i] - cycle and rank n + i at _off[i]; the sessions in
     * segment [a, b) of phase k are those unrolled in [a - tau,
     * b - tau), read as a prefix difference, and they add
     * count × eJ[k] plus jPerNs[k] × (their exact position sum −
     * count × tNs[k]). A segment holding no session, live or dead,
     * costs one rank search.
     */
    Frame
    at(int64_t tau) const
    {
        size_t n = _off.size();
        uint64_t cycle = static_cast<uint64_t>(cp->cycleNs);
        Prefix all = prefix(n);
        auto unrolledRank = [&](int64_t v) {
            return v < 0 ? rank(v + cp->cycleNs) : n + rank(v);
        };
        auto unrolled = [&](size_t r) {
            if (r <= n) {
                Prefix p = prefix(r);
                return Prefix{p.count, p.sum - p.count * cycle};
            }
            Prefix p = prefix(r - n);
            return Prefix{all.count + p.count,
                          all.sum - all.count * cycle + p.sum};
        };
        size_t loRank = unrolledRank(-tau);
        Prefix lo = unrolled(loRank);
        Frame f;
        f.wrapped = all.count - lo.count;
        for (size_t s = 0; s + 1 < _segments.size(); ++s) {
            size_t hiRank = unrolledRank(_segments[s + 1].first - tau);
            if (hiRank == loRank)
                continue;
            auto [a, k] = _segments[s];
            Prefix hi = unrolled(hiRank);
            uint32_t m = hi.count - lo.count;
            uint64_t inSeg =
                hi.sum - lo.sum + m * static_cast<uint64_t>(tau - a);
            f.energyJ += m * cp->eJ[k] +
                         cp->jPerNs[k] * (static_cast<double>(inSeg) +
                                          static_cast<double>(m) *
                                              static_cast<double>(
                                                  a - cp->tNs[k]));
            f.switches += m * cp->sw[k];
            loRank = hiRank;
            lo = hi;
        }
        return f;
    }

  private:
    /** How many offsets lie below v, for v in [0, cycleNs]. */
    size_t
    rank(int64_t v) const
    {
        size_t c = static_cast<size_t>(v >> _shift);
        if (c + 1 >= _cellStart.size())
            return _off.size();
        // A branch-free lower_bound within the cell.
        const int64_t *base = _off.data() + _cellStart[c];
        size_t len = _cellStart[c + 1] - _cellStart[c];
        for (; len > 1; len -= len / 2)
            base = base[len / 2] < v ? base + len / 2 : base;
        return static_cast<size_t>(base - _off.data()) +
               (len == 1 && *base < v);
    }

    /** The live sessions among the r lowest offsets. */
    Prefix
    prefix(size_t r) const
    {
        Prefix p;
        for (size_t i = r; i > 0; i -= i & -i) {
            p.count += _count[i];
            p.sum += _sum[i];
        }
        return p;
    }

    std::vector<int64_t> _off;
    int _shift = 0;
    std::vector<uint32_t> _cellStart;
    std::vector<uint32_t> _count;
    std::vector<uint64_t> _sum;
    std::vector<std::pair<int64_t, size_t>> _segments; ///< start, phase
};

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
    FleetMetrics metrics;

    // Phase 1: cohort profiles — the only place Platform objects and
    // simulator runs exist, one per cohort regardless of population.
    std::vector<CohortProfile> profiles(spec.cohorts.size());
    _runner.forEach(spec.cohorts.size(), [&](size_t c) {
        profiles[c] = buildProfile(spec.cohorts[c], spec.tick);
    });
    Clock::time_point setupStart = Clock::now();

    size_t nSessions = static_cast<size_t>(spec.sessionCount());
    std::vector<size_t> cohortStart(spec.cohorts.size() + 1, 0);
    for (size_t c = 0; c < spec.cohorts.size(); ++c)
        cohortStart[c + 1] =
            cohortStart[c] + static_cast<size_t>(spec.cohorts[c].count);
    auto cohortOf = [&](size_t g) {
        return static_cast<size_t>(std::upper_bound(cohortStart.begin(),
                                                    cohortStart.end(), g) -
                                   cohortStart.begin() - 1);
    };

    // Phase 2: each session solved once. Jitter and capacity keys are
    // the *global* session index, so the population is reproducible
    // independent of chunking, threads, or cohort order changes that
    // preserve index ranges; every session is pure, so the chunks may
    // run in any order. A dying session keeps its death time and what
    // its death bucket owes it (below); a survivor, its projected time
    // to empty (< 0: none).
    uint64_t nBuckets = spec.bucketCount();
    int64_t bucketNs = spec.bucketNs(), horizonNs = spec.horizonNs();
    double horizonS = clockSeconds(horizonNs);
    HashNoise noise(spec.seed);
    std::vector<int64_t> offsets(nSessions);
    std::vector<uint32_t> deathBucket(nSessions);
    std::vector<double> lifeS(nSessions);
    // Per bucket up to the last death: where its dying sessions start
    // in byDeath, and what they are owed.
    std::vector<uint32_t> deathStart(1, 0), byDeath;
    std::vector<double> deathJ;
    std::vector<uint64_t> deathSwitches;
    std::vector<LiveCohort> cohorts(profiles.size());
    {
        SpanScope setupSpan("fleet.setup", "fleet");
        std::vector<double> owedJ(nSessions);
        std::vector<uint64_t> owedSwitches(nSessions);
        _runner.forEachChunked(nSessions, sessionChunk, [&](size_t begin,
                                                            size_t end) {
            for (size_t g = begin; g < end; ++g) {
                const CohortProfile &cp = profiles[cohortOf(g)];
                SessionStart start = sessionStart(cp, noise, g);
                Death death = solveDeath(cp, start, horizonNs);
                double fromJ = cp.energyAt(start.cursor, start.posNs);
                offsets[g] = start.posNs;
                deathBucket[g] = survives;
                if (death.atNs < 0) {
                    // Survivors run to the horizon: the fleet is not
                    // dark while one lives.
                    double usedJ =
                        cp.drawnJ(start.posNs + horizonNs) - fromJ;
                    lifeS[g] = usedJ > 0.0
                                   ? horizonS + inSeconds(drainTime(
                                                    joules(start.socJ -
                                                           usedJ),
                                                    watts(usedJ /
                                                          horizonS)))
                                   : -1.0;
                    continue;
                }
                uint32_t b = static_cast<uint32_t>(
                    std::max<int64_t>(death.atNs - 1, 0) / bucketNs);
                deathBucket[g] = b;
                lifeS[g] = death.atS;
                // Its death bucket's start frame (the previous end
                // frame) still holds it, at its position then; the end
                // frame and the whole cycles do not. So the bucket owes
                // it that position's frame share plus its draw from
                // there to its death: together, its draw from its
                // cycle start to its death less the clock's whole
                // cycles before the bucket.
                int64_t whole =
                    static_cast<int64_t>(b) * bucketNs / cp.cycleNs;
                owedJ[g] = start.socJ + fromJ -
                           static_cast<double>(whole) * cp.cycleEnergyJ;
                owedSwitches[g] =
                    death.switches -
                    static_cast<uint64_t>(whole) * cp.cycleSwitches;
            }
        });

        // The dying sessions of each bucket in global index order (a
        // counting sort on the death bucket), and what they are owed.
        for (uint32_t b : deathBucket) {
            if (b == survives)
                continue;
            if (b + 1 >= deathStart.size())
                deathStart.resize(b + 2, 0);
            ++deathStart[b + 1];
        }
        size_t dyingBuckets = deathStart.size() - 1;
        for (size_t b = 0; b < dyingBuckets; ++b)
            deathStart[b + 1] += deathStart[b];
        byDeath.resize(deathStart.back());
        deathJ.assign(dyingBuckets, 0.0);
        deathSwitches.assign(dyingBuckets, 0);
        std::vector<uint32_t> next(deathStart);
        for (size_t g = 0; g < nSessions; ++g) {
            uint32_t b = deathBucket[g];
            if (b != survives) {
                byDeath[next[b]++] = static_cast<uint32_t>(g);
                deathJ[b] += owedJ[g];
                deathSwitches[b] += owedSwitches[g];
            }
        }
        std::vector<double>().swap(owedJ);
        std::vector<uint64_t>().swap(owedSwitches);
        _runner.forEach(profiles.size(), [&](size_t c) {
            cohorts[c] = LiveCohort(
                profiles[c], offsets.data() + cohortStart[c],
                static_cast<uint32_t>(spec.cohorts[c].count));
        });
    }

    // Phase 3: the shared-clock bucket loop, serial and independent of
    // the population: the bucket's dying sessions leave the live sets,
    // then each cohort draws the difference of its frames at the
    // bucket's end (over its survivors) and start (the previous end
    // frame), plus its survivors' whole cycles.
    FleetResult result;
    result.sessions = nSessions;
    result.bucketS = inSeconds(spec.bucket);
    result.horizonS = inSeconds(spec.horizon);
    result.stormK = spec.stormK;
    result.buckets.reserve(std::min<uint64_t>(nBuckets, 1 << 20));
    uint64_t sessionBuckets = 0;
    for (uint64_t b = 0; b < nBuckets; ++b) {
        SpanScope bucketSpan("fleet.bucket", "fleet");
        Clock::time_point wallStart = Clock::now();
        int64_t startNs = static_cast<int64_t>(b) * bucketNs;
        int64_t endNs = std::min(startNs + bucketNs, horizonNs);
        FleetBucketRow row;
        row.index = b;
        row.tEndS = clockSeconds(endNs);
        if (b < deathJ.size()) {
            row.energyJ = deathJ[b];
            row.modeSwitches = deathSwitches[b];
            row.deaths = deathStart[b + 1] - deathStart[b];
            for (uint32_t i = deathStart[b]; i < deathStart[b + 1]; ++i)
                cohorts[cohortOf(byDeath[i])].remove(offsets[byDeath[i]]);
        }
        for (LiveCohort &cohort : cohorts) {
            const CohortProfile &cp = *cohort.cp;
            const Frame &from = cohort.last;
            Frame to = cohort.alive ? cohort.at(endNs % cp.cycleNs) : Frame{};
            int64_t cycles = static_cast<int64_t>(cohort.alive) *
                                 (endNs / cp.cycleNs - startNs / cp.cycleNs) +
                             to.wrapped - static_cast<int64_t>(from.wrapped);
            row.energyJ += static_cast<double>(cycles) * cp.cycleEnergyJ +
                           (to.energyJ - from.energyJ);
            row.modeSwitches +=
                static_cast<uint64_t>(cycles) * cp.cycleSwitches +
                to.switches - from.switches;
            row.alive += cohort.alive;
            cohort.last = to;
        }
        row.powerW = row.energyJ / clockSeconds(endNs - startNs);
        result.totalEnergyJ += row.energyJ;
        result.totalSwitches += row.modeSwitches;
        result.deaths += row.deaths;
        result.simulatedS = row.tEndS;
        result.buckets.push_back(row);

        // Sessions in this bucket: those alive at its start.
        sessionBuckets += row.alive + row.deaths;
        if (metrics.r) {
            metrics.r->add(metrics.buckets);
            metrics.r->add(metrics.sessionBuckets, row.alive + row.deaths);
            metrics.r->observe(
                metrics.bucketUs,
                std::chrono::duration<double, std::micro>(Clock::now() -
                                                          wallStart)
                    .count());
        }
        if (progress)
            progress(b + 1, nBuckets);
        // The whole fleet is dark; further buckets are all zeros.
        if (row.alive == 0)
            break;
    }

    // Storm verdict: a bucket switches more than stormK × the mean.
    if (!result.buckets.empty())
        result.stormBaseline = static_cast<double>(result.totalSwitches) /
                               static_cast<double>(result.buckets.size());
    for (FleetBucketRow &row : result.buckets) {
        row.storm = row.modeSwitches > 0 &&
                    static_cast<double>(row.modeSwitches) >
                        spec.stormK * result.stormBaseline;
        result.stormBuckets += row.storm;
    }

    // Distributions and powered time, built serially in global session
    // order (thread count can't reorder histogram accumulation).
    // Battery life records actual deaths; time to empty adds the
    // survivors' projections.
    result.batteryLifeH.name = "fleet.battery_life_h";
    result.batteryLifeH.kind = MetricKind::Histogram;
    result.timeToEmptyH.name = "fleet.time_to_empty_h";
    result.timeToEmptyH.kind = MetricKind::Histogram;
    double deadS = 0.0;
    for (size_t g = 0; g < nSessions; ++g) {
        bool dead = deathBucket[g] != survives;
        if (dead) {
            histogramObserve(result.batteryLifeH, lifeS[g] / 3600.0);
            deadS += std::min(lifeS[g], result.simulatedS);
        }
        if (dead || lifeS[g] >= 0.0)
            histogramObserve(result.timeToEmptyH, lifeS[g] / 3600.0);
    }
    result.poweredS =
        result.simulatedS * static_cast<double>(nSessions - result.deaths) +
        deadS;

    for (size_t c = 0; c < spec.cohorts.size(); ++c) {
        const FleetCohort &cohort = spec.cohorts[c];
        result.cohorts.push_back(
            {cohort.name, cohort.count, cohort.platform.name,
             toString(cohort.pdn), toString(profiles[c].mode),
             cohort.trace.name(), profiles[c].phases(),
             profiles[c].cycleS});
    }

    if (metrics.r) {
        metrics.r->add(metrics.sessions, result.sessions);
        metrics.r->add(metrics.deaths, result.deaths);
        metrics.r->add(metrics.switches, result.totalSwitches);
        metrics.r->add(metrics.stormBuckets, result.stormBuckets);
        // The whole post-profile cost, set-up included.
        if (sessionBuckets > 0)
            metrics.r->set(metrics.nsPerSessionBucket,
                           std::chrono::duration<double, std::nano>(
                               Clock::now() - setupStart)
                                   .count() /
                               static_cast<double>(sessionBuckets));
    }
    return result;
}

} // namespace pdnspot
