/**
 * @file
 * The one home of the conventions every pdnspot CLI tool shares
 * (pdnspot_campaign, pdnspot_fleet, pdnspot_launch, pdnspot_query):
 *
 * - argv walking (ArgWalker): -h/--help prints the usage text and
 *   exits 0; --version prints "name VERSION (git REV)"; a usage
 *   error ("<flag> needs a value", "unknown option \"<x>\"", a bad
 *   flag value) prints "name: message" plus the usage text and
 *   exits 2;
 * - the run flags campaign, fleet and launch spell alike (RunFlags):
 *   -o, --threads (capped at ParallelRunner::maxThreadCount with a
 *   warning), --trace-dir, --progress, --quiet, --log-level,
 *   --dry-run and the spec-file positional;
 * - exit mapping (runMain): ConfigError exits 1, any other exception
 *   exits 3 as an internal error;
 * - output files (OutputFile): "-" is stdout, any other path opens
 *   before the work it receives and fails naming the path;
 * - the --report/--trace-events/--summary session campaign and
 *   fleet share (RunObservers);
 * - strict locale-independent number parsing and the --progress
 *   heartbeat.
 *
 * A fix here lands in every tool at once, and the smoke tests pin
 * the shared behaviour per tool (tests/cli_smoke.sh).
 */

#ifndef PDNSPOT_TOOLS_CLI_COMMON_HH
#define PDNSPOT_TOOLS_CLI_COMMON_HH

#include <charconv>
#include <chrono>
#include <fstream>
#include <functional>
#include <optional>
#include <string>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/run_report.hh"
#include "obs/span_trace.hh"

namespace pdnspot
{
namespace cli
{

/** The identity one tool passes to every shared helper. */
struct ToolInfo
{
    const char *name;  ///< binary name, prefixes every message
    const char *usage; ///< full usage text, printed on exit 2
};

/** Print "tool: message" + the usage text to stderr; exit 2. */
[[noreturn]] void usageError(const ToolInfo &tool,
                             const std::string &message);

/**
 * Run a tool's `body` and map its exceptions to exit codes:
 * ConfigError prints "tool: message" and returns 1; any other
 * exception (a ModelError is a bug) prints "tool: internal error:
 * message" and returns 3.
 */
int runMain(const ToolInfo &tool, const std::function<int()> &body);

/**
 * Locale-independent strict number parses (the src/common/csv.cc:31
 * policy). std::stod honors the global C locale, so under a
 * comma-decimal locale "3.5" stops at the dot and "3,5" parses as
 * 3.5 — the same command line means different runs on different
 * machines. std::from_chars always uses the C grammar; requiring the
 * full string also rejects trailing junk that std::stod's pos check
 * was emulating.
 */
std::optional<double> parseDouble(const std::string &v);

template <typename Int>
std::optional<Int>
parseInt(const std::string &v)
{
    Int out = 0;
    const char *end = v.data() + v.size();
    auto [ptr, ec] = std::from_chars(v.data(), end, out);
    if (ec != std::errc() || ptr != end)
        return std::nullopt;
    return out;
}

/**
 * One pass over argv. next() handles -h/--help and --version itself;
 * the tool dispatches every other argument, consuming flag values
 * through value() and friends.
 */
class ArgWalker
{
  public:
    ArgWalker(const ToolInfo &tool, int argc, char **argv);

    /** Step to the next argument; false past the last one. */
    bool next();

    /** The current argument. */
    const std::string &arg() const { return _arg; }

    /** Is the current argument an option ("-x", not "-" or "")? */
    bool isOption() const;

    /** Consume the current flag's value: "<flag> needs a value". */
    std::string value();

    /** value(), which must be non-empty: "<flag> needs a <noun>". */
    std::string nonEmptyValue(const char *noun);

    /**
     * value() as an integer no smaller than `min`: "<flag> must be
     * <what>, got \"<v>\"" otherwise.
     */
    template <typename Int>
    Int
    intValue(const char *what, Int min = 0)
    {
        std::string v = value();
        std::optional<Int> n = parseInt<Int>(v);
        if (!n || *n < min)
            badValue(v, what);
        return *n;
    }

    /**
     * value() spelled from a name table (common/names.hh): usage
     * error "<flag>: unknown <what> \"<v>\" (expected one of ...)"
     * otherwise.
     */
    template <typename Table>
    auto
    nameValue(const Table &table, const char *what)
    {
        std::string v = value();
        if (const auto *row = findName(table, v))
            return row->value;
        fail(_arg + ": " + unknownName(what, v, table));
    }

    /** nameValue over E's nameTable. */
    template <NamedEnum E>
    E
    nameValue()
    {
        return nameValue(nameTable<E>, nameTable<E>.what);
    }

    /** Usage error "<flag> must be <what>, got \"<v>\"". */
    [[noreturn]] void badValue(const std::string &v,
                               const char *what) const;

    /** Usage error "unknown option \"<arg>\"". */
    [[noreturn]] void unknown() const;

    /** Usage error with `message`. */
    [[noreturn]] void fail(const std::string &message) const;

    const ToolInfo &tool() const { return _tool; }

  private:
    const ToolInfo &_tool;
    int _argc;
    char **_argv;
    int _i = 0;
    std::string _arg;
};

/**
 * The flags pdnspot_campaign, pdnspot_fleet and pdnspot_launch
 * spell, check and word identically, plus their spec-file
 * positional. --quiet and --log-level set the log threshold as they
 * are walked, so the last one wins.
 */
struct RunFlags
{
    std::string specPath;
    std::string outPath = "-";
    std::optional<unsigned> threads;
    std::string traceDir;
    bool progress = false;
    bool dryRun = false;

    /** Bind the walker's current argument if it is one of these. */
    bool bind(ArgWalker &args);
};

/**
 * One output stream: "-" is stdout; any other path is opened at
 * construction (fatal "cannot open <what> file \"<path>\"") so an
 * unwritable path fails before the work it would receive.
 */
class OutputFile
{
  public:
    OutputFile(std::string path, const char *what);

    std::ostream &stream();
    const std::string &path() const { return _path; }
    bool isStdout() const { return _path == "-"; }

    /** Flush and close; fatal "error writing \"<path>\"" on failure. */
    void finish();

  private:
    std::string _path;
    std::ofstream _file;
};

/**
 * The observability session pdnspot_campaign and pdnspot_fleet
 * share. Construction opens --report and --trace-events (before the
 * run, so a bad path fails in milliseconds), installs a metrics
 * registry when a report or the summary is wanted and a span
 * recorder when trace events are. All are pure observers: the
 * tools' CSVs are byte-identical with or without them.
 */
class RunObservers
{
  public:
    RunObservers(const ToolInfo &tool, const std::string &reportPath,
                 const std::string &traceEventsPath, bool summary);

    RunObservers(const RunObservers &) = delete;
    RunObservers &operator=(const RunObservers &) = delete;

    bool wantReport() const { return _report.has_value(); }

    /** The installed registry, or nullptr. */
    const MetricsRegistry *metrics() const;

    /**
     * Run the study (`body` returns after its join) and time it;
     * the registry is uninstalled afterwards, so its snapshots are
     * final.
     */
    void run(const std::function<void()> &body);

    /**
     * Write the trace (spans quiesced first; `stamp` gets the tool's
     * process name), then the report: `fill` completes its inputs,
     * and the tool name, spec bytes and echo, wall time and metrics
     * are filled in here. Each write is followed by its inform line.
     */
    void finish(TraceEventExport stamp,
                const std::function<void(RunReportInputs &)> &fill);

  private:
    const ToolInfo &_tool;
    std::optional<OutputFile> _report;
    std::optional<OutputFile> _traceEvents;
    std::optional<MetricsRegistry> _registry;
    std::optional<MetricsInstallation> _metricsInstall;
    std::optional<SpanRecorder> _spans;
    std::optional<SpanInstallation> _spanInstall;
    double _wallSeconds = 0.0;
};

/**
 * The progress-heartbeat line body (no \r, no trailing pad):
 * "name: done/total unit (P%), R unit/s, ETA Es". A zero rate or an
 * unknown remaining count prints "ETA --" instead of a fictitious
 * "ETA 0s" (a stalled shard must look stalled), and a zero total
 * drops the "done/total (P%)" segment for a plain count instead of
 * claiming 100%.
 */
std::string formatProgressLine(const char *name, const char *unit,
                               size_t done, size_t total,
                               double elapsedSeconds);

/**
 * The --progress heartbeat: a rate-limited work/sec + ETA line,
 * rewritten in place on stderr. Constructed disabled when stderr is
 * not a TTY (a piped stderr would accumulate control characters, and
 * there is no one watching). Purely observational: it only counts
 * consumed units, never touches them.
 */
class ProgressMeter
{
  public:
    /** `unit` is the work noun the line reports ("cells", ...). */
    ProgressMeter(const ToolInfo &tool, const char *unit,
                  bool enabled, size_t total);

    ~ProgressMeter();

    ProgressMeter(const ProgressMeter &) = delete;
    ProgressMeter &operator=(const ProgressMeter &) = delete;

    void tick(size_t done);

  private:
    const char *_name;
    const char *_unit;
    bool _enabled;
    size_t _total;
    std::chrono::steady_clock::time_point _start;
    std::chrono::steady_clock::time_point _lastPrint;
    bool _printed = false;
};

} // namespace cli
} // namespace pdnspot

#endif // PDNSPOT_TOOLS_CLI_COMMON_HH
