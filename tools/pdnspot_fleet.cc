/**
 * @file
 * pdnspot_fleet: simulate a population of device sessions from a
 * fleet spec file.
 *
 * The file-in/CSV-out driver for the fleet subsystem
 * (src/fleet/): loads a JSON fleet spec
 * (src/config/fleet_config.hh), advances every session on the shared
 * virtual clock over the thread pool, and writes the per-bucket
 * aggregate time series as CSV — byte-identical at any thread count
 * (check.sh verifies 1 vs 8 threads with cmp).
 *
 * Usage: pdnspot_fleet <spec.json> [options]
 *   --summary        print the fleet summary (population shape,
 *                    energy totals, storm verdict, battery-life and
 *                    time-to-empty quantiles) to stderr
 *   --seed <n>       override the spec's jitter/capacity seed (the
 *                    report's "fleet" block carries the effective one)
 *   --report <path>  write a provenance-stamped pdnspot-report-1
 *                    JSON run report (obs/run_report.hh) with a
 *                    "fleet" aggregate block
 *   --trace-events <path>
 *                    record complete spans plus Perfetto counter
 *                    tracks of the fleet aggregates (sessions alive,
 *                    supply power, mode switches per bucket) and
 *                    write Chrome/Perfetto trace-event JSON
 *   --dry-run        load + validate the spec, report the population
 *                    shape and per-cohort provenance, and exit
 *                    without simulating
 * plus the run flags and conventions every tool shares (-o, where
 * the aggregate CSV goes, default stdout; --threads, --trace-dir,
 * --progress, --quiet, --log-level, --version; exit codes;
 * tools/cli_common.hh). None of the observability flags perturb
 * results: the aggregate CSV is byte-identical with and without
 * --report/--trace-events/--progress.
 */

#include <iostream>
#include <optional>
#include <string>

#include "cli_common.hh"
#include "common/logging.hh"
#include "config/fleet_config.hh"
#include "fleet/fleet_engine.hh"
#include "obs/waveform_io.hh"

namespace
{

using namespace pdnspot;

constexpr const char *usageText =
    "usage: pdnspot_fleet <spec.json> [-o out.csv] [--summary]\n"
    "                     [--threads <n>] [--seed <n>]\n"
    "                     [--trace-dir <dir>] [--report out.json]\n"
    "                     [--trace-events out.trace.json]\n"
    "                     [--progress] [--quiet]\n"
    "                     [--log-level info|warn|silent]\n"
    "                     [--dry-run]\n"
    "       pdnspot_fleet --version\n";

constexpr cli::ToolInfo tool{"pdnspot_fleet", usageText};

/** Parsed command line. */
struct Options
{
    cli::RunFlags run;
    bool summary = false;
    std::optional<uint64_t> seed;
    std::string reportPath;
    std::string traceEventsPath;
};

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    cli::ArgWalker args(tool, argc, argv);
    while (args.next()) {
        if (opts.run.bind(args))
            continue;
        const std::string &arg = args.arg();
        if (arg == "--summary") {
            opts.summary = true;
        } else if (arg == "--seed") {
            opts.seed =
                args.intValue<uint64_t>("a non-negative integer");
        } else if (arg == "--report") {
            opts.reportPath = args.nonEmptyValue("path");
        } else if (arg == "--trace-events") {
            opts.traceEventsPath = args.nonEmptyValue("path");
        } else {
            args.unknown();
        }
    }
    if (opts.run.specPath.empty())
        args.fail("missing spec file");
    return opts;
}

/**
 * Perfetto counter tracks of the fleet aggregates: one synthetic
 * counter process carrying sessions_alive, supply_power_w and
 * mode_switches per bucket, stamped at each bucket's end on the
 * virtual clock. Mirrors the probe counter-track shape
 * (obs/waveform_io.hh) so the same Perfetto workflow reads both.
 */
std::vector<JsonValue>
fleetCounterEvents(const FleetResult &result)
{
    // One pid below the probe counter range, so a merged campaign +
    // fleet timeline cannot collide.
    double pid = static_cast<double>(probeCounterPidBase - 1);
    std::vector<JsonValue> events;
    events.reserve(1 + result.buckets.size() * 3);
    events.push_back(traceProcessNameEvent(pid, "fleet aggregates"));
    for (const FleetBucketRow &row : result.buckets) {
        double ts = row.tEndS * 1e6;
        events.push_back(traceCounterEvent(
            "sessions_alive", ts, pid, static_cast<double>(row.alive)));
        events.push_back(
            traceCounterEvent("supply_power_w", ts, pid, row.powerW));
        events.push_back(
            traceCounterEvent("mode_switches", ts, pid,
                              static_cast<double>(row.modeSwitches)));
    }
    return events;
}

/** {count, min, max, p50, p95, p99} of a histogram snapshot. */
JsonValue
histogramJson(const MetricSnapshot &h)
{
    std::vector<JsonValue::Member> m;
    m.emplace_back("count", JsonValue::makeNumber(
                                static_cast<double>(h.count)));
    if (h.count > 0) {
        m.emplace_back("min", JsonValue::makeNumber(h.min));
        m.emplace_back("max", JsonValue::makeNumber(h.max));
        m.emplace_back("p50", JsonValue::makeNumber(
                                  histogramQuantile(h, 0.50)));
        m.emplace_back("p95", JsonValue::makeNumber(
                                  histogramQuantile(h, 0.95)));
        m.emplace_back("p99", JsonValue::makeNumber(
                                  histogramQuantile(h, 0.99)));
    }
    return JsonValue::makeObject(std::move(m));
}

/**
 * The report's tool-specific "fleet" block. `seed` is the effective
 * seed: a --seed override changes the results but not the spec echo
 * or its content hash.
 */
JsonValue
fleetReportBlock(const FleetResult &result, uint64_t seed)
{
    auto num = [](double v) { return JsonValue::makeNumber(v); };
    std::vector<JsonValue::Member> fleet;
    fleet.emplace_back(
        "sessions", num(static_cast<double>(result.sessions)));
    fleet.emplace_back(
        "cohorts",
        num(static_cast<double>(result.cohorts.size())));
    fleet.emplace_back(
        "buckets",
        num(static_cast<double>(result.buckets.size())));
    fleet.emplace_back("seed", num(static_cast<double>(seed)));
    fleet.emplace_back("bucket_s", num(result.bucketS));
    fleet.emplace_back("horizon_s", num(result.horizonS));
    fleet.emplace_back("simulated_s", num(result.simulatedS));
    fleet.emplace_back("total_energy_j", num(result.totalEnergyJ));
    fleet.emplace_back(
        "mode_switches",
        num(static_cast<double>(result.totalSwitches)));
    fleet.emplace_back("deaths",
                       num(static_cast<double>(result.deaths)));
    {
        std::vector<JsonValue::Member> storm;
        storm.emplace_back("baseline", num(result.stormBaseline));
        storm.emplace_back("k", num(result.stormK));
        storm.emplace_back(
            "buckets",
            num(static_cast<double>(result.stormBuckets)));
        fleet.emplace_back("storm",
                           JsonValue::makeObject(std::move(storm)));
    }
    fleet.emplace_back("battery_life_h",
                       histogramJson(result.batteryLifeH));
    fleet.emplace_back("time_to_empty_h",
                       histogramJson(result.timeToEmptyH));
    return JsonValue::makeObject(std::move(fleet));
}

int
runCli(const Options &opts)
{
    FleetSpec spec =
        loadFleetSpecFile(opts.run.specPath, opts.run.traceDir);
    if (opts.seed)
        spec.seed = *opts.seed;

    if (opts.run.dryRun) {
        std::cerr << "pdnspot_fleet: " << opts.run.specPath << ": "
                  << spec.sessionCount() << " sessions in "
                  << spec.cohorts.size() << " cohorts, "
                  << spec.bucketCount() << " buckets of "
                  << inSeconds(spec.bucket) << " s (horizon "
                  << inSeconds(spec.horizon) << " s, seed "
                  << spec.seed << ")\n";
        for (const FleetCohort &c : spec.cohorts)
            std::cerr << "  cohort \"" << c.name
                      << "\": " << c.count << " sessions, "
                      << c.platform.name << ", "
                      << toString(c.pdn) << ", "
                      << toString(c.mode) << " mode, trace "
                      << c.trace.describe() << "\n";
        return 0;
    }

    // Every output opens before the run: an unwritable path should
    // fail in milliseconds, not after the study.
    cli::RunObservers obs(tool, opts.reportPath, opts.traceEventsPath,
                          opts.summary);
    ParallelRunner runner(opts.run.threads.value_or(0));
    FleetEngine engine(runner);
    cli::OutputFile out(opts.run.outPath, "output");

    cli::ProgressMeter progress(tool, "buckets", opts.run.progress,
                                spec.bucketCount());
    FleetResult result;
    obs.run([&] {
        result = engine.run(
            spec, opts.run.progress
                      ? FleetEngine::Progress(
                            [&](uint64_t done, uint64_t) {
                                progress.tick(done);
                            })
                      : FleetEngine::Progress());
    });

    result.writeCsv(out.stream());
    out.finish();
    if (!out.isStdout())
        inform(strprintf("wrote %zu buckets to %s",
                         result.buckets.size(), out.path().c_str()));

    TraceEventExport stamp;
    stamp.extraEvents = fleetCounterEvents(result);
    obs.finish(std::move(stamp), [&](RunReportInputs &rin) {
        rin.specPath = opts.run.specPath;
        rin.threads = runner.threadCount();
        rin.rows = result.buckets.size();
        rin.extra.emplace_back("fleet",
                               fleetReportBlock(result, spec.seed));
    });

    if (opts.summary)
        result.writeSummary(std::cerr);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return cli::runMain(tool,
                        [&] { return runCli(parseArgs(argc, argv)); });
}
