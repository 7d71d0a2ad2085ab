#include "fleet/fleet_engine.hh"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <utility>

#include "common/logging.hh"
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
               id("fleet.ns_per_session_bucket", MetricKind::Gauge),
           setupMs = id("fleet.setup_ms", MetricKind::Gauge),
           setupNsPerSession =
               id("fleet.setup_ns_per_session", MetricKind::Gauge);

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
 * start position), then a search of the prefix energies for the
 * phase the rest runs out in, within one cycle of the start, and the
 * whole ns that phase takes to drain it (at most its rest, whose
 * unrounded energy reaches the charge). The charge is gone at atNs
 * when the energy drawn by then reaches it, so a death on a bucket's
 * end belongs to that bucket. A death after the horizon is never.
 * horizonCycles is the cohort's horizonNs / cp.cycleNs.
 */
Death
solveDeath(const CohortProfile &cp, const SessionStart &start,
           int64_t horizonNs, int64_t horizonCycles)
{
    Death death;
    double cycleJ = cp.cycleEnergyJ;
    if (!(cycleJ > 0.0))
        return death;
    double n = std::floor(start.socJ / cycleJ);
    while (n > 0.0 && n * cycleJ >= start.socJ)
        n -= 1.0;
    if (n > static_cast<double>(horizonCycles))
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
    size_t q = cp.energyReachedAt(targetJ, wraps ? 1 : start.cursor + 1) - 1;
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
    // n <= horizonCycles + 1, so wholeNs stays on the clock; it passes
    // what the tail leaves of the horizon exactly when n passes the
    // whole cycles that fit there.
    int64_t wholeNs = static_cast<int64_t>(n) * cp.cycleNs;
    if (tailNs > horizonNs || wholeNs > horizonNs - tailNs)
        return death;
    death.atNs = wholeNs + tailNs;
    death.atS = clockSeconds(wholeNs + atNs - pos) +
                inSeconds(drainTime(joules(leftJ), watts(cp.powerW[q])));
    death.switches =
        static_cast<uint64_t>(n) * cp.cycleSwitches + cp.sw[q];
    return death;
}

/** Live sessions over a range of ranks: how many, and their offset
 * sum (modulo 2^64). */
struct Tally
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

/** The fewest sessions a share of a cohort's offset sort takes. A
 * share costs a count per value cell (about one per two sessions),
 * zeroed and summed on one worker, so a cohort under 2^17 sessions
 * sorts no faster split. */
constexpr size_t minSortShare = size_t{1} << 16;

/**
 * One cohort's live sessions by start offset. The offsets are sorted
 * once, ties by session, and each session keeps its rank. A bitmap
 * over the ranks marks the live sessions, and each block of 64 ranks
 * keeps their count and offset sum, so a death clears one bit and
 * takes one offset off one block. The live sessions between two
 * ranks are the whole blocks between them plus set bits of the two
 * end blocks. Sums wrap modulo 2^64; every total read back lies in
 * range, so it comes back exact.
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

    /**
     * A cohort of the n offsets (which must outlive the build), to
     * be sorted in up to `workers` shares of at least minSortShare
     * sessions: a counting sort into value cells of 2^_shift ns, two
     * to four offsets to a cell on average, then each cell sorted by
     * (offset, session). A rank search runs within one cell too.
     */
    LiveCohort(const CohortProfile &profile, const int64_t *offsets,
               uint32_t n, unsigned workers)
        : cp(&profile), alive(n), _n(n),
          _off(std::make_unique_for_overwrite<int64_t[]>(n)),
          _rank(std::make_unique_for_overwrite<uint32_t[]>(n)),
          _blocks((n + 63) / 64), _in(offsets),
          _session(std::make_unique_for_overwrite<uint32_t[]>(n))
    {
        while (static_cast<size_t>((cp->cycleNs - 1) >> _shift) > n / 2)
            ++_shift;
        _cellStart.resize(static_cast<size_t>((cp->cycleNs - 1) >> _shift) +
                          2);
        _shares = std::clamp<size_t>(n / minSortShare, 1, workers);
        _next.resize(_shares * cells());
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
    }

    size_t shares() const { return _shares; }

    static constexpr int buildPasses = 5;

    /**
     * Share w's part of build pass `pass`. Each pass must run for
     * every share, in any order and on any worker, before the next
     * pass starts. Shares are contiguous runs of sessions, so a
     * cell's sessions land in session order however many there are.
     */
    void
    build(int pass, size_t w)
    {
        size_t n = _n, cells = this->cells();
        auto part = [&](size_t total) {
            return std::pair(w * total / _shares, (w + 1) * total / _shares);
        };
        auto [begin, end] = part(n);
        switch (pass) {
        case 0: // count each cell's offsets
            for (size_t i = begin; i < end; ++i)
                ++_next[w * cells + (_in[i] >> _shift)];
            break;
        case 1: // where each share's run of each cell starts
            if (w == 0) {
                uint32_t rank = 0;
                for (size_t c = 0; c < cells; ++c) {
                    _cellStart[c] = rank;
                    for (size_t s = 0; s < _shares; ++s)
                        rank += std::exchange(_next[s * cells + c], rank);
                }
                _cellStart[cells] = rank;
            }
            break;
        case 2: // scatter
            for (size_t i = begin; i < end; ++i)
                _session[_next[w * cells + (_in[i] >> _shift)]++] =
                    static_cast<uint32_t>(i);
            break;
        case 3: { // sort this share's cells and rank their sessions
            auto [lo, hi] = part(cells);
            for (size_t c = lo; c < hi; ++c) {
                uint32_t *first = _session.get() + _cellStart[c],
                         *last = _session.get() + _cellStart[c + 1];
                std::sort(first, last, [in = _in](uint32_t a, uint32_t b) {
                    return std::pair(in[a], a) < std::pair(in[b], b);
                });
                for (uint32_t *s = first; s != last; ++s) {
                    size_t r = static_cast<size_t>(s - _session.get());
                    _off[r] = _in[*s];
                    _rank[*s] = static_cast<uint32_t>(r);
                }
            }
            break;
        }
        case 4: { // this share's blocks; the sort's buffers go
            auto [lo, hi] = part(_blocks.size());
            for (size_t b = lo; b < hi; ++b) {
                size_t bits = std::min<size_t>(n - b * 64, 64);
                Block &block = _blocks[b];
                block.live = ~uint64_t{0} >> (64 - bits);
                block.count = static_cast<uint32_t>(bits);
                for (size_t r = b * 64; r < b * 64 + bits; ++r)
                    block.sum += static_cast<uint64_t>(_off[r]);
            }
            if (w == 0) {
                std::vector<uint32_t>().swap(_next);
                _session.reset();
                _in = nullptr;
            }
            break;
        }
        }
    }

    /** The cohort's session i, at offset off, dies: its bit clears and
     * its offset leaves its block's sum. */
    void
    die(uint32_t i, int64_t off)
    {
        uint32_t r = _rank[i];
        Block &block = _blocks[r / 64];
        uint64_t bit = uint64_t{1} << (r % 64);
        if (!(block.live & bit))
            panic("FleetEngine: a session died twice");
        block.live &= ~bit;
        block.sum -= static_cast<uint64_t>(off);
        --block.count;
        --alive;
    }

    /**
     * The live sessions at cycle phase tau, each at position
     * p = (offset + tau) mod cycle: the energy and switches from each
     * one's cycle start to p, and how many wrapped past the cycle's
     * end to get there. Unrolled, offset rank i stands at
     * _off[i] - cycle and rank n + i at _off[i], and the ranks
     * [lo, lo + n) unrolled in [-tau, cycle - tau) hold every session
     * once. From each next live session, the segment [a, b) of phase
     * k holding it takes the sessions unrolled in [a - tau, b - tau),
     * and they add count × eJ[k] plus jPerNs[k] × (their exact
     * position sum − count × tNs[k]). Segments holding no live
     * session are passed over, so a frame costs one rank search per
     * occupied segment plus a read of the bitmap.
     */
    Frame
    at(int64_t tau) const
    {
        size_t n = _n;
        size_t lo = unrolledRank(-tau), end = lo + n;
        Frame f;
        size_t s = 0;
        Cut cut{lo / 64, lo % 64, below(lo / 64, lo % 64)};
        for (size_t r = nextLive(lo, end); r < end; r = nextLive(r, end)) {
            int64_t pos = (r < n ? _off[r] - cp->cycleNs : _off[r - n]) + tau;
            if (pos >= _segments[s + 1].first)
                s = segmentAt(pos, s + 1);
            auto [a, k] = _segments[s];
            size_t hi = unrolledRank(_segments[++s].first - tau);
            Tally t = liveIn(r, hi, cut, f.wrapped);
            uint32_t m = t.count;
            uint64_t inSeg = t.sum + m * static_cast<uint64_t>(tau - a);
            f.energyJ += m * cp->eJ[k] +
                         cp->jPerNs[k] * (static_cast<double>(inSeg) +
                                          static_cast<double>(m) *
                                              static_cast<double>(
                                                  a - cp->tNs[k]));
            f.switches += m * cp->sw[k];
            r = hi;
        }
        return f;
    }

  private:
    /** 64 ranks: which are live, how many, and their offsets' sum. */
    struct Block
    {
        uint64_t live = 0;
        uint64_t sum = 0;
        uint32_t count = 0;
    };

    /** Where a frame's previous range ended: its block, numbered on
     * past the last block once the ranks wrap, and the live sessions
     * below the cut in that block. */
    struct Cut
    {
        size_t block = 0;
        size_t k = 0; ///< the cut's rank in the block
        Tally below;
    };

    /** The value cells, of 2^_shift ns each. */
    size_t cells() const { return _cellStart.size() - 1; }

    /** The segment holding cycle position pos, at or after segment
     * s: a doubling probe forward, then a binary search. */
    size_t
    segmentAt(int64_t pos, size_t s) const
    {
        size_t step = 1;
        for (; s + step < _segments.size() &&
               _segments[s + step].first <= pos;
             step *= 2)
            s += step;
        return static_cast<size_t>(
            std::upper_bound(_segments.begin() + s + 1,
                             _segments.begin() +
                                 std::min(s + step, _segments.size()),
                             pos,
                             [](int64_t v, const auto &seg) {
                                 return v < seg.first;
                             }) -
            _segments.begin() - 1);
    }

    /** How many offsets lie below v, for v in [0, cycleNs]. */
    size_t
    rank(int64_t v) const
    {
        size_t c = static_cast<size_t>(v >> _shift);
        if (c + 1 >= _cellStart.size())
            return _n;
        // A branch-free lower_bound within the cell.
        const int64_t *base = _off.get() + _cellStart[c];
        size_t len = _cellStart[c + 1] - _cellStart[c];
        for (; len > 1; len -= len / 2)
            base = base[len / 2] < v ? base + len / 2 : base;
        return static_cast<size_t>(base - _off.get()) +
               (len == 1 && *base < v);
    }

    /** How many unrolled offsets lie below v, for v in
     * [-cycleNs, cycleNs]. */
    size_t
    unrolledRank(int64_t v) const
    {
        return v < 0 ? rank(v + cp->cycleNs) : _n + rank(v);
    }

    /** The first live unrolled rank at or after r, or end if none is
     * below it (end <= 2n). */
    size_t
    nextLive(size_t r, size_t end) const
    {
        size_t n = _n;
        for (; r < end; r = r < n ? n : end) {
            size_t a = r < n ? r : r - n, w = a / 64;
            uint64_t bits = _blocks[w].live & (~uint64_t{0} << (a % 64));
            while (!bits && ++w < _blocks.size())
                bits = _blocks[w].live;
            if (bits)
                return std::min(r - a + w * 64 + std::countr_zero(bits),
                                end);
        }
        return end;
    }

    /**
     * The live sessions at unrolled ranks [a, b), with their unrolled
     * offset sum; those that wrapped (below rank n) also count into
     * wrapped. Read on from the cut where the previous range ended,
     * with no live session between the two.
     */
    Tally
    liveIn(size_t a, size_t b, Cut &cut, uint32_t &wrapped) const
    {
        size_t n = _n;
        Tally t;
        if (a < n) {
            t = readOn(a, std::min(b, n), 0, cut);
            wrapped += t.count;
            t.sum -= t.count * static_cast<uint64_t>(cp->cycleNs);
        }
        if (b > n) {
            Tally u = readOn(std::max(a, n) - n, b - n, _blocks.size(), cut);
            t.count += u.count;
            t.sum += u.sum;
        }
        return t;
    }

    /** The live sessions at ranks [a, b), whose blocks are numbered
     * from id in the cut. Near the cut in its block, the ranks between
     * the two; otherwise the blocks from a's up to b's, less the cut's
     * part of a's block, plus b's block below b. b becomes the cut. */
    Tally
    readOn(size_t a, size_t b, size_t id, Cut &cut) const
    {
        size_t wa = a / 64, wb = b / 64, k = b % 64;
        if (cut.block == id + wb && k - cut.k <= 32) {
            Tally t = within(wb, cut.k, k);
            cut.k = k;
            cut.below.count += t.count;
            cut.below.sum += t.sum;
            return t;
        }
        Tally t;
        if (cut.block == id + wa)
            t = {0u - cut.below.count, 0u - cut.below.sum};
        for (size_t w = wa; w < wb; ++w) {
            t.count += _blocks[w].count;
            t.sum += _blocks[w].sum;
        }
        cut = {id + wb, k, below(wb, k)};
        t.count += cut.below.count;
        t.sum += cut.below.sum;
        return t;
    }

    /** The live sessions of block w below its rank k < 64: those
     * below it, or, past 32 ranks, the block's totals less those
     * from it. */
    Tally
    below(size_t w, size_t k) const
    {
        if (k <= 32)
            return within(w, 0, k);
        Tally t = within(w, k, 64);
        return {_blocks[w].count - t.count, _blocks[w].sum - t.sum};
    }

    /** The live sessions of block w at its ranks [lo, hi), fewer
     * than 64 of them. */
    Tally
    within(size_t w, size_t lo, size_t hi) const
    {
        if (lo == hi)
            return {};
        uint64_t mask = ((uint64_t{1} << (hi - lo)) - 1) << lo;
        const int64_t *off = _off.get() + w * 64;
        Tally t;
        for (uint64_t bits = _blocks[w].live & mask; bits;
             bits &= bits - 1) {
            ++t.count;
            t.sum += static_cast<uint64_t>(off[std::countr_zero(bits)]);
        }
        return t;
    }

    // _off, _rank and _session are allocated uninitialised: the build
    // passes write every entry first, each on the worker of its share.
    size_t _n = 0;                     ///< sessions in the cohort
    std::unique_ptr<int64_t[]> _off;   ///< the offsets, sorted
    std::unique_ptr<uint32_t[]> _rank; ///< each session's rank in _off
    std::vector<Block> _blocks;
    int _shift = 0;
    std::vector<uint32_t> _cellStart;
    std::vector<std::pair<int64_t, size_t>> _segments; ///< start, phase
    // Only while it builds:
    const int64_t *_in = nullptr; ///< the offsets, by session
    std::unique_ptr<uint32_t[]> _session; ///< sessions by rank
    std::vector<uint32_t> _next; ///< [share][cell] counts, then slots
    size_t _shares = 1;
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
    // The fleet.setup span and the fleet.setup_ms gauge time the same
    // interval: from here to the first bucket.
    Clock::time_point setupStart = Clock::now();
    std::optional<SpanScope> setupSpan(std::in_place, "fleet.setup",
                                       "fleet");

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
        std::vector<double> owedJ(nSessions);
        std::vector<uint64_t> owedSwitches(nSessions);
        _runner.forEachChunked(nSessions, sessionChunk, [&](size_t begin,
                                                            size_t end) {
            // The chunk walks cohort by cohort, from the one holding
            // its first session, starting a block of sessions at once.
            SessionStart starts[sessionBlock];
            for (size_t c = cohortOf(begin); begin < end; ++c) {
                const CohortProfile &cp = profiles[c];
                const int64_t horizonCycles = horizonNs / cp.cycleNs;
                const size_t cohortEnd = std::min(end, cohortStart[c + 1]);
                for (size_t g = begin; g < cohortEnd; ++g) {
                    size_t i = (g - begin) % sessionBlock;
                    if (i == 0)
                        sessionStarts(cp, noise, g,
                                      std::min(sessionBlock, cohortEnd - g),
                                      starts);
                    const SessionStart &start = starts[i];
                    Death death =
                        solveDeath(cp, start, horizonNs, horizonCycles);
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
                begin = cohortEnd;
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
        // Every cohort's offsets sort at once, pass by pass, in one
        // flat loop over each cohort's shares.
        std::vector<std::pair<size_t, size_t>> shares; // cohort, share
        for (size_t c = 0; c < profiles.size(); ++c) {
            cohorts[c] = LiveCohort(
                profiles[c], offsets.data() + cohortStart[c],
                static_cast<uint32_t>(spec.cohorts[c].count),
                _runner.threadCount());
            for (size_t w = 0; w < cohorts[c].shares(); ++w)
                shares.emplace_back(c, w);
        }
        for (int pass = 0; pass < LiveCohort::buildPasses; ++pass)
            _runner.forEach(shares.size(), [&](size_t i) {
                cohorts[shares[i].first].build(pass, shares[i].second);
            });
        for (LiveCohort &cohort : cohorts)
            cohort.last = cohort.at(0);
    }
    setupSpan.reset();
    if (metrics.r) {
        // Everything from the profiles to the first bucket.
        double setupNs = std::chrono::duration<double, std::nano>(
                             Clock::now() - setupStart)
                             .count();
        metrics.r->set(metrics.setupMs, setupNs / 1e6);
        if (nSessions > 0)
            metrics.r->set(metrics.setupNsPerSession,
                           setupNs / static_cast<double>(nSessions));
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
            for (uint32_t i = deathStart[b]; i < deathStart[b + 1]; ++i) {
                size_t g = byDeath[i], c = cohortOf(g);
                cohorts[c].die(static_cast<uint32_t>(g - cohortStart[c]),
                               offsets[g]);
            }
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
