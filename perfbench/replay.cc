/**
 * @file
 * perfbench_replay: the traced half of the benchmark.
 *
 * Replays one generated campaign or fleet spec in-process and times
 * the calls into each module's public functions, so a change that
 * moves the end-to-end CLI time can be traced to the layer that
 * moved. Spans are the benchmark's own: steady_clock reads around
 * library calls, nothing inside the library is instrumented.
 *
 * Usage:
 *   perfbench_replay campaign|fleet <spec.json> --threads <n>
 *                    --seconds <s> [--check-out <path>]
 *
 * One iteration binds the spec, resolves every trace, builds every
 * platform, times the operating-point / PDN / decision kernels over
 * the workload's unique states, simulates every cell (campaign) or
 * cohort profile (fleet) directly through IntervalSimulator, and then
 * runs the whole spec through CampaignEngine or FleetEngine on an
 * explicitly passed runner of `--threads` workers. Iterations repeat
 * until `--seconds` have passed (at least one). Each metric is the
 * median over iterations; the JSON on stdout carries the value and
 * its sample count.
 *
 * --check-out writes what the first iteration computed, for the
 * correctness cross-check against the CLI outputs: for a campaign the
 * direct per-cell results as campaign CSV rows followed by the
 * engine's own CSV; for a fleet the engine's aggregate CSV.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign_engine.hh"
#include "common/logging.hh"
#include "config/campaign_config.hh"
#include "config/fleet_config.hh"
#include "fleet/fleet_engine.hh"
#include "pmu/pmu.hh"
#include "sim/interval_simulator.hh"
#include "workload/phase_soa.hh"

using namespace pdnspot;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Defeats dead-code elimination of timed kernel results. */
volatile double g_sink = 0.0;

/** Per-iteration samples of every metric, keyed by metric name. */
class Samples
{
  public:
    void add(const std::string &name, double value)
    {
        _values[name].push_back(value);
    }

    /** Print {"name": {"value": median, "samples": n}, ...}. */
    void
    print(std::ostream &os) const
    {
        os << "{";
        const char *sep = "";
        for (const auto &[name, values] : _values) {
            std::vector<double> v = values;
            std::sort(v.begin(), v.end());
            size_t n = v.size();
            double median = n % 2 ? v[n / 2]
                                  : 0.5 * (v[n / 2 - 1] + v[n / 2]);
            char buf[64];
            std::snprintf(buf, sizeof buf, "%.17g", median);
            os << sep << "\"" << name << "\": {\"value\": " << buf
               << ", \"samples\": " << n << "}";
            sep = ", ";
        }
        os << "}\n";
    }

  private:
    std::map<std::string, std::vector<double>> _values;
};

/** A trace resolved the way the campaign engine resolves it. */
struct Resolved
{
    PhaseTrace trace;
    PhaseSoA soa;
};

Resolved
resolveTimed(const TraceSpec &spec, double &seconds)
{
    auto start = Clock::now();
    PhaseTrace trace = spec.resolve();
    PhaseSoA soa(trace);
    seconds += secondsSince(start);
    return Resolved{std::move(trace), std::move(soa)};
}

/**
 * Ticks IntervalSimulator's PMU path steps over a trace: per phase,
 * the smallest k with phase_start + k * tick >= phase_end, evaluated
 * with the simulator's own arithmetic.
 */
uint64_t
pmuTicks(const PhaseTrace &trace, Time tick)
{
    uint64_t ticks = 0;
    Time now;
    for (const TracePhase &phase : trace.phases()) {
        Time start = now;
        Time end = now + phase.duration;
        if (!(start < end))
            continue;
        double guess = std::ceil(phase.duration / tick);
        uint64_t k = guess > 1.0 ? static_cast<uint64_t>(guess) : 1;
        while (k > 1 && start + tick * static_cast<double>(k - 1) >= end)
            --k;
        while (start + tick * static_cast<double>(k) < end)
            ++k;
        ticks += k;
        now = end;
    }
    return ticks;
}

/** Median nanoseconds per call of `fn(i)` over `n` items. */
template <typename Fn>
double
nsPerCall(size_t n, Fn fn)
{
    // Repeat the pass until it lasts a few milliseconds, then take
    // the median of five such passes.
    size_t reps = 1;
    for (;;) {
        auto start = Clock::now();
        for (size_t r = 0; r < reps; ++r)
            for (size_t i = 0; i < n; ++i)
                fn(i);
        if (secondsSince(start) > 2e-3 || reps > (1u << 20))
            break;
        reps *= 2;
    }
    std::vector<double> passes;
    for (int p = 0; p < 5; ++p) {
        auto start = Clock::now();
        for (size_t r = 0; r < reps; ++r)
            for (size_t i = 0; i < n; ++i)
                fn(i);
        passes.push_back(secondsSince(start) * 1e9 /
                         static_cast<double>(reps * n));
    }
    std::sort(passes.begin(), passes.end());
    return passes[2];
}

/** The pdn.evaluate_ns.* suffix of a PDN kind. */
std::string
metricSuffix(PdnKind kind)
{
    switch (kind) {
      case PdnKind::IVR:
        return "ivr";
      case PdnKind::MBVR:
        return "mbvr";
      case PdnKind::LDO:
        return "ldo";
      case PdnKind::IplusMBVR:
        return "imbvr";
      case PdnKind::FlexWatts:
        break;
    }
    return "flexwatts";
}

/**
 * Times the per-state kernels on one platform over the unique phases
 * of the given traces: operating-point build, every PDN's evaluate,
 * Algorithm 1 and the oracle mode pick.
 */
void
kernelLayers(const Platform &platform,
             const std::vector<const Resolved *> &traces,
             std::map<std::string, std::vector<double>> &out)
{
    Power tdp = platform.config().tdp;
    std::vector<OperatingPointModel::Query> queries;
    for (const Resolved *r : traces) {
        for (const TracePhase &phase : r->soa.uniquePhases()) {
            OperatingPointModel::Query q;
            q.tdp = tdp;
            q.cstate = phase.cstate;
            q.type = phase.type;
            q.ar = canonicalActivityRatio(phase.ar);
            queries.push_back(q);
        }
    }
    if (queries.empty())
        return;
    const OperatingPointModel &opm = platform.operatingPoints();
    std::vector<PlatformState> states;
    for (const auto &q : queries)
        states.push_back(opm.build(q));

    out["power.op_build_ns"].push_back(
        nsPerCall(queries.size(), [&](size_t i) {
            g_sink = g_sink + opm.build(queries[i]).tj.degrees();
        }));
    for (PdnKind kind : allPdnKinds) {
        const PdnModel &pdn = platform.pdn(kind);
        out["pdn.evaluate_ns." + metricSuffix(kind)]
            .push_back(nsPerCall(states.size(), [&](size_t i) {
                g_sink = g_sink +
                         inWatts(pdn.evaluate(states[i]).inputPower);
            }));
    }
    const ModePredictor &predictor = platform.predictor();
    out["flexwatts.algorithm1_ns"].push_back(
        nsPerCall(queries.size(), [&](size_t i) {
            PredictorInputs in;
            in.tdp = tdp;
            in.ar = queries[i].ar;
            in.workloadType = queries[i].type;
            in.powerState = queries[i].cstate;
            g_sink = g_sink +
                     static_cast<double>(predictor.predict(in));
        }));
    const FlexWattsPdn &fw = platform.flexWatts();
    out["flexwatts.oracle_pick_ns"].push_back(
        nsPerCall(states.size(), [&](size_t i) {
            g_sink = g_sink +
                     static_cast<double>(fw.bestMode(states[i]));
        }));
}

/** Time one platform build and one ETEE characterisation. */
std::unique_ptr<Platform>
buildPlatformTimed(const PlatformConfig &config, Samples &samples)
{
    auto start = Clock::now();
    auto platform = std::make_unique<Platform>(config);
    samples.add("pdnspot.platform_build_us", secondsSince(start) * 1e6);
    start = Clock::now();
    EteeTable table(platform->flexWatts(), platform->operatingPoints());
    samples.add("flexwatts.etee_table_build_us",
                secondsSince(start) * 1e6);
    g_sink = g_sink + table.lookupCState(HybridMode::IvrMode,
                                         PackageCState::C8);
    return platform;
}

/** Accumulates direct IntervalSimulator runs by simulation path. */
struct CellTimes
{
    double seconds[3] = {0.0, 0.0, 0.0}; // static, oracle, pmu
    size_t cells[3] = {0, 0, 0};
    uint64_t ticks = 0;

    SimResult
    simulate(const Platform &platform, const Resolved &r, PdnKind kind,
             SimMode mode, Time tick)
    {
        IntervalSimulator sim(platform.operatingPoints(),
                              platform.config().tdp, tick);
        int path = 0;
        auto start = Clock::now();
        SimResult result;
        if (kind == PdnKind::FlexWatts && mode == SimMode::Oracle) {
            path = 1;
            result = sim.runOracle(r.soa, platform.flexWatts());
        } else if (kind == PdnKind::FlexWatts && mode == SimMode::Pmu) {
            path = 2;
            PmuConfig cfg;
            cfg.tdp = platform.config().tdp;
            Pmu pmu(cfg, platform.predictor());
            result = sim.run(r.trace, platform.flexWatts(), pmu);
        } else {
            result = sim.run(r.soa, platform.pdn(kind));
        }
        seconds[path] += secondsSince(start);
        ++cells[path];
        if (path == 2)
            ticks += pmuTicks(r.trace, tick);
        return result;
    }

    void
    report(Samples &samples) const
    {
        static const char *const names[3] = {
            "sim.static_cell_ms", "sim.oracle_cell_ms", "sim.pmu_cell_ms"};
        for (int p = 0; p < 3; ++p)
            samples.add(names[p], cells[p] ? seconds[p] * 1e3 /
                                                 static_cast<double>(cells[p])
                                           : 0.0);
        samples.add("pmu.ticks", static_cast<double>(ticks));
        samples.add("pmu.ns_per_tick",
                    ticks ? seconds[2] * 1e9 / static_cast<double>(ticks)
                          : 0.0);
    }
};

void
addWorkloadCounts(const std::vector<const Resolved *> &traces,
                  double resolveSeconds, Samples &samples)
{
    size_t phases = 0, unique = 0;
    for (const Resolved *r : traces) {
        phases += r->soa.phaseCount();
        unique += r->soa.uniqueCount();
    }
    samples.add("workload.resolve_ms", resolveSeconds * 1e3);
    samples.add("workload.phases", static_cast<double>(phases));
    samples.add("workload.unique_states", static_cast<double>(unique));
}

void
addKernelMedians(std::map<std::string, std::vector<double>> &kernels,
                 Samples &samples)
{
    // One value per iteration: the median across platforms.
    for (auto &[name, values] : kernels) {
        std::sort(values.begin(), values.end());
        samples.add(name, values[values.size() / 2]);
    }
}

/** Streams the engine's CSV while timing the sink's callbacks. */
class TimedCsvSink : public CampaignSink
{
  public:
    explicit TimedCsvSink(std::ostream &os) : _csv(os, true) {}

    void
    consume(CampaignCellResult cell) override
    {
        auto start = Clock::now();
        _csv.consume(std::move(cell));
        seconds += secondsSince(start);
    }

    double seconds = 0.0;

  private:
    CampaignCsvSink _csv;
};

/** Metrics a workload's CLI run does not exercise read 0. */
void
addUnexercised(Samples &samples, const std::vector<std::string> &names)
{
    for (const std::string &name : names)
        samples.add(name, 0.0);
}

void
campaignIteration(const std::string &path, const ParallelRunner &runner,
                  Samples &samples, std::ostream *check)
{
    auto iterStart = Clock::now();

    auto start = Clock::now();
    CampaignSpec spec = loadCampaignSpecFile(path);
    samples.add("config.bind_ms", secondsSince(start) * 1e3);

    double resolveSeconds = 0.0;
    std::vector<Resolved> traces;
    for (const TraceSpec &t : spec.traces)
        traces.push_back(resolveTimed(t, resolveSeconds));
    std::vector<const Resolved *> all;
    for (const Resolved &r : traces)
        all.push_back(&r);
    addWorkloadCounts(all, resolveSeconds, samples);

    std::map<std::string, std::vector<double>> kernels;
    CellTimes cells;
    std::ostringstream direct;
    CampaignCsvSink directCsv(direct, true);
    for (const PlatformConfig &config : spec.platforms) {
        std::unique_ptr<Platform> platform =
            buildPlatformTimed(config, samples);
        kernelLayers(*platform, all, kernels);
        for (size_t t = 0; t < traces.size(); ++t) {
            for (PdnKind kind : spec.pdns) {
                CampaignCellResult cell;
                cell.trace = spec.traces[t].name();
                cell.platform = config.name;
                cell.pdn = kind;
                cell.mode = spec.mode;
                cell.sim = cells.simulate(*platform, traces[t], kind,
                                          spec.mode, spec.tick);
                directCsv.consume(std::move(cell));
            }
        }
    }
    addKernelMedians(kernels, samples);
    cells.report(samples);

    std::ostringstream engineCsv;
    TimedCsvSink sink(engineCsv);
    start = Clock::now();
    CampaignEngine(runner).run(spec, sink);
    samples.add("campaign.run_s", secondsSince(start));
    samples.add("campaign.cells", static_cast<double>(spec.cellCount()));
    samples.add("csv.write_ms", sink.seconds * 1e3);

    addUnexercised(samples, {"fleet.first_bucket_ms", "fleet.bucket_ms",
                             "fleet.session_buckets", "fleet.deaths",
                             "fleet.ns_per_session_bucket"});
    samples.add("traced.wall_s", secondsSince(iterStart));
    if (check)
        *check << direct.str() << engineCsv.str();
}

void
fleetIteration(const std::string &path, const ParallelRunner &runner,
               Samples &samples, std::ostream *check)
{
    auto iterStart = Clock::now();

    auto start = Clock::now();
    FleetSpec spec = loadFleetSpecFile(path);
    samples.add("config.bind_ms", secondsSince(start) * 1e3);

    double resolveSeconds = 0.0;
    std::vector<Resolved> traces;
    for (const FleetCohort &c : spec.cohorts)
        traces.push_back(resolveTimed(c.trace, resolveSeconds));
    std::vector<const Resolved *> all;
    for (const Resolved &r : traces)
        all.push_back(&r);
    addWorkloadCounts(all, resolveSeconds, samples);

    // Each cohort profiles once: its one cell, in its own mode.
    std::map<std::string, std::vector<double>> kernels;
    CellTimes cells;
    for (size_t c = 0; c < spec.cohorts.size(); ++c) {
        const FleetCohort &cohort = spec.cohorts[c];
        std::unique_ptr<Platform> platform =
            buildPlatformTimed(cohort.platform, samples);
        kernelLayers(*platform, {&traces[c]}, kernels);
        cells.simulate(*platform, traces[c], cohort.pdn, cohort.mode,
                       spec.tick);
    }
    addKernelMedians(kernels, samples);
    cells.report(samples);

    std::vector<double> callbacks;
    start = Clock::now();
    FleetResult result = FleetEngine(runner).run(
        spec, [&](uint64_t, uint64_t) {
            callbacks.push_back(secondsSince(start));
        });
    if (callbacks.size() < 2)
        fatal("perfbench_replay: the fleet spec must step at least "
              "two buckets");
    std::vector<double> deltas;
    for (size_t i = 1; i < callbacks.size(); ++i)
        deltas.push_back(callbacks[i] - callbacks[i - 1]);
    std::sort(deltas.begin(), deltas.end());

    // Sessions stepped in a bucket: those alive at its start.
    uint64_t sessionBuckets = 0, afterFirst = 0;
    for (const FleetBucketRow &row : result.buckets) {
        sessionBuckets += row.alive + row.deaths;
        if (row.index > 0)
            afterFirst += row.alive + row.deaths;
    }
    samples.add("fleet.first_bucket_ms", callbacks.front() * 1e3);
    samples.add("fleet.bucket_ms", deltas[deltas.size() / 2] * 1e3);
    samples.add("fleet.session_buckets",
                static_cast<double>(sessionBuckets));
    samples.add("fleet.deaths", static_cast<double>(result.deaths));
    samples.add("fleet.ns_per_session_bucket",
                (callbacks.back() - callbacks.front()) * 1e9 /
                    static_cast<double>(std::max<uint64_t>(afterFirst, 1)));

    addUnexercised(samples,
                   {"campaign.run_s", "campaign.cells", "csv.write_ms"});
    samples.add("traced.wall_s", secondsSince(iterStart));
    if (check)
        result.writeCsv(*check);
}

int
usage()
{
    std::cerr << "usage: perfbench_replay campaign|fleet <spec.json> "
                 "--threads <n> --seconds <s> [--check-out <path>]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3 || (argc - 3) % 2 != 0)
        return usage();
    std::string kind = argv[1];
    std::string spec = argv[2];
    if (kind != "campaign" && kind != "fleet")
        return usage();
    try {
        unsigned threads = 0;
        double budget = -1.0;
        std::string checkPath;
        for (int i = 3; i < argc; i += 2) {
            std::string arg = argv[i];
            if (arg == "--threads")
                threads = static_cast<unsigned>(std::stoul(argv[i + 1]));
            else if (arg == "--seconds")
                budget = std::stod(argv[i + 1]);
            else if (arg == "--check-out")
                checkPath = argv[i + 1];
            else
                return usage();
        }
        if (threads == 0 || budget < 0.0)
            return usage();

        ParallelRunner runner(threads);
        Samples samples;
        std::ofstream check;
        if (!checkPath.empty()) {
            check.open(checkPath, std::ios::binary);
            if (!check)
                fatal("cannot open " + checkPath);
        }
        auto start = Clock::now();
        size_t iterations = 0;
        do {
            std::ostream *out =
                iterations == 0 && check.is_open() ? &check : nullptr;
            if (kind == "campaign")
                campaignIteration(spec, runner, samples, out);
            else
                fleetIteration(spec, runner, samples, out);
            ++iterations;
        } while (secondsSince(start) < budget);
        if (check.is_open()) {
            check.close();
            if (!check)
                fatal("error writing " + checkPath);
        }
        samples.print(std::cout);
    } catch (const std::exception &e) {
        std::cerr << "perfbench_replay: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
