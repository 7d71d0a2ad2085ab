#include "cli_common.hh"

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <unistd.h>

#include "common/parallel.hh"
#include "config/json.hh"

namespace pdnspot
{
namespace cli
{

void
usageError(const ToolInfo &tool, const std::string &message)
{
    std::cerr << tool.name << ": " << message << "\n" << tool.usage;
    std::exit(2);
}

int
runMain(const ToolInfo &tool, const std::function<int()> &body)
{
    try {
        return body();
    } catch (const ConfigError &e) {
        std::cerr << tool.name << ": " << e.what() << "\n";
        return 1;
    } catch (const std::exception &e) {
        // ModelError (an internal invariant, i.e. a bug) or OS-level
        // failures: report and exit instead of std::terminate.
        std::cerr << tool.name << ": internal error: " << e.what()
                  << "\n";
        return 3;
    }
}

std::optional<double>
parseDouble(const std::string &v)
{
    double out = 0.0;
    const char *end = v.data() + v.size();
    auto [ptr, ec] = std::from_chars(v.data(), end, out);
    if (ec != std::errc() || ptr != end)
        return std::nullopt;
    // std::from_chars accepts "inf"/"nan" (any case). No CLI number
    // here means an infinity — "--battery-wh nan" would sail through
    // a `<= 0` positivity check (NaN comparisons are all false) and
    // "inf" passes it outright, poisoning every downstream summary.
    // Rejecting non-finite values here covers every caller at once.
    if (!std::isfinite(out))
        return std::nullopt;
    return out;
}

ArgWalker::ArgWalker(const ToolInfo &tool, int argc, char **argv)
    : _tool(tool), _argc(argc), _argv(argv)
{}

bool
ArgWalker::next()
{
    if (++_i >= _argc)
        return false;
    _arg = _argv[_i];
    if (_arg == "-h" || _arg == "--help") {
        std::cout << _tool.usage;
        std::exit(0);
    }
    if (_arg == "--version") {
        std::cout << _tool.name << " " << toolVersion() << " (git "
                  << gitRevision() << ")\n";
        std::exit(0);
    }
    return true;
}

bool
ArgWalker::isOption() const
{
    return !_arg.empty() && _arg[0] == '-' && _arg != "-";
}

std::string
ArgWalker::value()
{
    if (_i + 1 >= _argc)
        fail(_arg + " needs a value");
    return _argv[++_i];
}

std::string
ArgWalker::nonEmptyValue(const char *noun)
{
    std::string v = value();
    if (v.empty())
        fail(_arg + " needs a " + noun);
    return v;
}

void
ArgWalker::badValue(const std::string &v, const char *what) const
{
    fail(_arg + " must be " + what + ", got \"" + v + "\"");
}

void
ArgWalker::unknown() const
{
    fail("unknown option \"" + _arg + "\"");
}

void
ArgWalker::fail(const std::string &message) const
{
    usageError(_tool, message);
}

bool
RunFlags::bind(ArgWalker &args)
{
    const std::string &arg = args.arg();
    if (!args.isOption()) {
        if (!specPath.empty())
            args.fail("more than one spec file given");
        specPath = arg;
    } else if (arg == "-o") {
        outPath = args.value();
    } else if (arg == "--threads") {
        long n = args.intValue<long>("a positive integer", 1);
        if (n > static_cast<long>(ParallelRunner::maxThreadCount)) {
            std::cerr << args.tool().name << ": --threads " << n
                      << " capped at " << ParallelRunner::maxThreadCount
                      << "\n";
            n = ParallelRunner::maxThreadCount;
        }
        threads = static_cast<unsigned>(n);
    } else if (arg == "--trace-dir") {
        traceDir = args.nonEmptyValue("directory");
    } else if (arg == "--progress") {
        progress = true;
    } else if (arg == "--quiet") {
        setLogThreshold(LogLevel::Warn);
    } else if (arg == "--log-level") {
        setLogThreshold(args.nameValue<LogLevel>());
    } else if (arg == "--dry-run") {
        dryRun = true;
    } else {
        return false;
    }
    return true;
}

OutputFile::OutputFile(std::string path, const char *what)
    : _path(std::move(path))
{
    if (isStdout())
        return;
    _file.open(_path, std::ios::binary);
    if (!_file)
        fatal(strprintf("cannot open %s file \"%s\"", what,
                        _path.c_str()));
}

std::ostream &
OutputFile::stream()
{
    return isStdout() ? std::cout : _file;
}

void
OutputFile::finish()
{
    stream().flush();
    if (isStdout())
        return;
    _file.close();
    if (!_file)
        fatal(strprintf("error writing \"%s\"", _path.c_str()));
}

RunObservers::RunObservers(const ToolInfo &tool,
                           const std::string &reportPath,
                           const std::string &traceEventsPath,
                           bool summary)
    : _tool(tool)
{
    if (!reportPath.empty())
        _report.emplace(reportPath, "report");
    if (!traceEventsPath.empty())
        _traceEvents.emplace(traceEventsPath, "trace-events");
    if (_report || summary) {
        _registry.emplace();
        _metricsInstall.emplace(*_registry);
    }
    if (_traceEvents) {
        _spans.emplace();
        _spanInstall.emplace(*_spans);
    }
}

const MetricsRegistry *
RunObservers::metrics() const
{
    return _registry ? &*_registry : nullptr;
}

void
RunObservers::run(const std::function<void()> &body)
{
    auto start = std::chrono::steady_clock::now();
    body();
    std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - start;
    _wallSeconds = wall.count();
    _metricsInstall.reset(); // quiesced: snapshots are final now
}

void
RunObservers::finish(TraceEventExport stamp,
                     const std::function<void(RunReportInputs &)> &fill)
{
    if (_spans) {
        _spanInstall.reset(); // quiesce before serializing
        stamp.processName = _tool.name;
        _traceEvents->stream()
            << writeJson(_spans->traceEventsJson(stamp));
        _traceEvents->finish();
        inform(strprintf(
            "wrote %zu spans to %s (%llu dropped)",
            _spans->spanCount(), _traceEvents->path().c_str(),
            static_cast<unsigned long long>(_spans->droppedSpans())));
    }
    if (_report) {
        RunReportInputs in;
        fill(in);
        in.toolName = _tool.name;
        in.specText = readFileBytes(in.specPath);
        in.specEcho = parseJsonFile(in.specPath);
        in.wallSeconds = _wallSeconds;
        in.metrics = &*_registry;
        _report->stream() << writeJson(buildRunReport(in));
        _report->finish();
        inform(strprintf("wrote run report to %s",
                         _report->path().c_str()));
    }
}

ProgressMeter::ProgressMeter(const ToolInfo &tool, const char *unit,
                             bool enabled, size_t total)
    : _name(tool.name), _unit(unit),
      _enabled(enabled && isatty(fileno(stderr)) == 1),
      _total(total), _start(std::chrono::steady_clock::now()),
      _lastPrint(_start)
{}

ProgressMeter::~ProgressMeter()
{
    if (_printed)
        std::cerr << "\n";
}

std::string
formatProgressLine(const char *name, const char *unit, size_t done,
                   size_t total, double elapsedSeconds)
{
    double rate = elapsedSeconds > 0.0
                      ? static_cast<double>(done) / elapsedSeconds
                      : 0.0;
    // A zero rate (nothing finished yet, or a zero elapsed clock)
    // used to print "ETA 0s" — the one message a stalled shard must
    // never show. "ETA --" says "no estimate", which is the truth.
    std::string eta =
        rate > 0.0 && total > 0
            ? strprintf("%.0fs",
                        static_cast<double>(total - done) / rate)
            : "--";
    // An unknown total (0) gets no "k/0 (100%)" lie: just the count.
    std::string progress =
        total > 0
            ? strprintf("%zu/%zu %s (%.0f%%)", done, total, unit,
                        100.0 * static_cast<double>(done) /
                            static_cast<double>(total))
            : strprintf("%zu %s", done, unit);
    return strprintf("%s: %s, %.0f %s/s, ETA %s", name,
                     progress.c_str(), rate, unit, eta.c_str());
}

void
ProgressMeter::tick(size_t done)
{
    if (!_enabled)
        return;
    auto now = std::chrono::steady_clock::now();
    if (done < _total &&
        now - _lastPrint < std::chrono::milliseconds(500))
        return;
    _lastPrint = now;
    std::chrono::duration<double> elapsed = now - _start;
    // \r + trailing pad rewrites the line in place.
    std::cerr << "\r"
              << formatProgressLine(_name, _unit, done, _total,
                                    elapsed.count())
              << "   ";
    _printed = true;
}

} // namespace cli
} // namespace pdnspot
