/**
 * @file
 * pdnspot_launch: fan a campaign across shard subprocesses.
 *
 * The fleet layer above `pdnspot_campaign --shard k/n`: reads a
 * campaign spec, spawns the n shards as local pdnspot_campaign
 * subprocesses under a concurrency cap, health-checks them (exit
 * codes, per-attempt timeouts), retries failed or hung shards on a
 * bounded, seeded-deterministic backoff schedule, and concatenates
 * the shard CSVs in shard order — byte-identical to the unsharded
 * run, which check.sh enforces. With --archive, each shard's
 * provenance-stamped run report plus its CSV payload are ingested
 * into a ResultArchive (src/store/result_archive.hh) so the study
 * is queryable (pdnspot_query) the moment it lands.
 *
 * Usage: pdnspot_launch <spec.json> [options]
 *   -n, --shards <n>  shard count (default: the spec's
 *                     "launch.shards", else 4)
 *   --jobs <j>        concurrent shard processes (default:
 *                     "launch.jobs", else min(n, hardware))
 *   --timeout <s>     per-attempt wall-clock limit, at most 1e9 s;
 *                     a shard past it is killed and retried
 *                     (default: "launch.timeout_s", 0 = none)
 *   --retries <r>     retries per shard after the first attempt
 *                     (default: "launch.retries", else 2)
 *   --backoff-ms <ms> retry backoff base; attempt a waits
 *                     base * 2^(a-1), jittered deterministically
 *                     from --seed (default: "launch.backoff_ms",
 *                     else 200; 0 = immediate)
 *   --seed <n>        backoff jitter seed (default: "launch.seed")
 *   --campaign-bin <path>
 *                     pdnspot_campaign binary (default: next to
 *                     this binary)
 *   --work-dir <dir>  keep shard CSVs/logs/reports here (default: a
 *                     temp dir, removed when the launch succeeds)
 *   --keep-work       keep the temp work dir even on success
 *   --archive <dir>   ingest every shard's run report + CSV into
 *                     the result archive at <dir>
 *   --report-dir <d>  keep the per-shard pdnspot-report-1 files in
 *                     <d> (shard_<k>.report.json)
 * plus the run flags and conventions every tool shares
 * (tools/cli_common.hh): -o takes the concatenated CSV (default
 * stdout) and opens before any shard runs; --threads and --trace-dir
 * pass through to every shard; --progress counts shards done;
 * --dry-run prints the resolved plan and per-shard cell ranges.
 *
 * Failure injection (tests + check.sh only): the environment
 * variable PDNSPOT_LAUNCH_INJECT=<mode>:<shard>:<times> makes the
 * launcher sabotage the first <times> attempts of shard <shard> —
 * mode "fail" launches the attempt against a nonexistent spec so
 * the child exits 1 immediately; mode "kill" makes the spawned
 * child SIGKILL itself before exec (a parent-sent kill can race a
 * fast shard to completion), exercising the died-by-signal retry
 * path. The retry machinery treats both exactly like real faults.
 * A shard exhausting its retries is a runtime failure (exit 1) whose
 * message names the shard and its log.
 */

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "cli_common.hh"
#include "common/logging.hh"
#include "common/noise.hh"
#include "config/campaign_config.hh"
#include "config/launch_config.hh"
#include "obs/run_report.hh"
#include "store/result_archive.hh"

namespace
{

using namespace pdnspot;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr const char *usageText =
    "usage: pdnspot_launch <spec.json> [-n <shards>] [-o out.csv]\n"
    "                      [--jobs <j>] [--timeout <s>]\n"
    "                      [--retries <r>] [--backoff-ms <ms>]\n"
    "                      [--seed <n>] [--campaign-bin <path>]\n"
    "                      [--work-dir <dir>] [--keep-work]\n"
    "                      [--threads <n>] [--trace-dir <dir>]\n"
    "                      [--archive <dir>] [--report-dir <dir>]\n"
    "                      [--progress] [--quiet]\n"
    "                      [--log-level info|warn|silent]\n"
    "                      [--dry-run]\n"
    "       pdnspot_launch --version\n";

constexpr cli::ToolInfo tool{"pdnspot_launch", usageText};

/** Parsed command line (spec-file launch knobs already folded in). */
struct Options
{
    cli::RunFlags run;
    std::optional<size_t> shards;
    std::optional<size_t> jobs;
    std::optional<double> timeoutS;
    std::optional<unsigned> retries;
    std::optional<double> backoffMs;
    std::optional<uint64_t> seed;
    std::string campaignBin;
    std::string workDir;
    bool keepWork = false;
    std::string archiveDir;
    std::string reportDir;
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
        if (arg == "-n" || arg == "--shards") {
            // Both spellings word their errors as --shards.
            std::string v = args.value();
            std::optional<size_t> n = cli::parseInt<size_t>(v);
            if (!n || *n < 1)
                args.fail("--shards must be a positive integer, got "
                          "\"" +
                          v + "\"");
            opts.shards = *n;
        } else if (arg == "--jobs") {
            opts.jobs = args.intValue<size_t>("a positive integer", 1);
        } else if (arg == "--timeout") {
            std::string v = args.value();
            std::optional<double> s = cli::parseDouble(v);
            if (!s || !launchTimeoutInRange(*s))
                args.badValue(v, strprintf("a non-negative number of "
                                           "seconds up to %g",
                                           maxLaunchTimeoutS)
                                     .c_str());
            opts.timeoutS = *s;
        } else if (arg == "--retries") {
            opts.retries =
                args.intValue<unsigned>("a non-negative integer");
        } else if (arg == "--backoff-ms") {
            std::string v = args.value();
            std::optional<double> ms = cli::parseDouble(v);
            if (!ms || !(*ms >= 0.0))
                args.badValue(v, "a non-negative number");
            opts.backoffMs = *ms;
        } else if (arg == "--seed") {
            opts.seed =
                args.intValue<uint64_t>("a non-negative integer");
        } else if (arg == "--campaign-bin") {
            opts.campaignBin = args.nonEmptyValue("path");
        } else if (arg == "--work-dir") {
            opts.workDir = args.nonEmptyValue("directory");
        } else if (arg == "--keep-work") {
            opts.keepWork = true;
        } else if (arg == "--archive") {
            opts.archiveDir = args.nonEmptyValue("directory");
        } else if (arg == "--report-dir") {
            opts.reportDir = args.nonEmptyValue("directory");
        } else {
            args.unknown();
        }
    }
    if (opts.run.specPath.empty())
        args.fail("missing spec file");
    return opts;
}

/** The test-only fault hook (PDNSPOT_LAUNCH_INJECT). */
struct Injection
{
    enum class Mode
    {
        None,
        Fail, ///< launch the attempt against a nonexistent spec
        Kill, ///< SIGKILL the freshly spawned child
    };
    Mode mode = Mode::None;
    size_t shard = 0;
    unsigned remaining = 0;

    static Injection
    fromEnv()
    {
        Injection inject;
        const char *env = std::getenv("PDNSPOT_LAUNCH_INJECT");
        if (!env || !*env)
            return inject;
        std::string v = env;
        size_t c1 = v.find(':');
        size_t c2 = c1 == std::string::npos ? std::string::npos
                                            : v.find(':', c1 + 1);
        std::optional<size_t> shard, times;
        if (c2 != std::string::npos) {
            shard = cli::parseInt<size_t>(
                v.substr(c1 + 1, c2 - c1 - 1));
            times = cli::parseInt<size_t>(v.substr(c2 + 1));
        }
        std::string mode =
            c1 == std::string::npos ? "" : v.substr(0, c1);
        if ((mode != "fail" && mode != "kill") || !shard ||
            !times || *shard < 1)
            fatal(strprintf("PDNSPOT_LAUNCH_INJECT must be "
                            "fail:<shard>:<times> or "
                            "kill:<shard>:<times>, got \"%s\"",
                            env));
        inject.mode =
            mode == "fail" ? Mode::Fail : Mode::Kill;
        inject.shard = *shard;
        inject.remaining = static_cast<unsigned>(*times);
        return inject;
    }

    /** Consume one sabotage for this shard, if armed. */
    bool
    claim(Mode wanted, size_t shardIndex)
    {
        if (mode != wanted || shard != shardIndex ||
            remaining == 0)
            return false;
        --remaining;
        return true;
    }
};

/** One shard's lifecycle state. */
struct ShardTask
{
    size_t index = 0; ///< 1-based
    std::string csvPath;
    std::string logPath;
    std::string reportPath; ///< empty when reports not requested

    enum class State
    {
        Pending, ///< waiting for a job slot (or its backoff gate)
        Running,
        Done,
    };
    State state = State::Pending;
    unsigned attempts = 0; ///< attempts started so far
    pid_t pid = -1;
    Clock::time_point readyAt;  ///< backoff gate (Pending)
    Clock::time_point deadline; ///< timeout (Running); max() = none
    bool timedOut = false;      ///< this attempt was killed by us
};

/** Resolved launch parameters after spec + CLI merging. */
struct LaunchPlan
{
    size_t shards;
    size_t jobs;
    double timeoutS;
    unsigned retries;
    double backoffMs;
    uint64_t seed;
    std::string campaignBin;
    std::string workDir;
    bool ownWorkDir; ///< we created a temp dir (clean up on success)
};

std::string
defaultCampaignBin(const char *argv0)
{
    std::string self = argv0 ? argv0 : "";
    // Prefer the binary sitting next to us (the build-tree and
    // install layouts both co-locate the tools); fall back to PATH.
    char buf[4096];
    ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0) {
        buf[n] = '\0';
        self = buf;
    }
    size_t slash = self.find_last_of('/');
    if (slash == std::string::npos)
        return "pdnspot_campaign";
    return self.substr(0, slash) + "/pdnspot_campaign";
}

/**
 * The deterministic backoff schedule: attempt a (1-based) that just
 * failed waits base * 2^(a-1), scaled by a jitter factor in
 * [0.5, 1.5) keyed on (seed, shard, a) — every rerun of the same
 * launch waits exactly as long, and shards never thundering-herd
 * onto the same instant. Capped at 60 s.
 */
double
backoffDelayMs(const LaunchPlan &plan, size_t shard,
               unsigned attempt)
{
    if (plan.backoffMs <= 0.0)
        return 0.0;
    double base = plan.backoffMs;
    for (unsigned i = 1; i < attempt; ++i)
        base *= 2.0;
    HashNoise noise(plan.seed);
    double jitter =
        0.5 + noise.unit((static_cast<uint64_t>(shard) << 16) |
                         attempt);
    return std::min(base * jitter, 60000.0);
}

/** Append a marker line to the shard log (parent side). */
void
appendLogLine(const std::string &path, const std::string &line)
{
    std::ofstream log(path, std::ios::binary | std::ios::app);
    log << line << "\n";
}

/** Last `keep` lines of a shard log, for the failure message. */
std::string
logTail(const std::string &path, size_t keep)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return "";
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) {
        lines.push_back(line);
        if (lines.size() > keep)
            lines.erase(lines.begin());
    }
    std::string out;
    for (const std::string &l : lines)
        out += "    | " + l + "\n";
    return out;
}

/**
 * Spawn one shard attempt. Stdout/stderr land in the shard log
 * (appended across attempts, with a parent-written header line per
 * attempt). Returns the child pid.
 */
pid_t
spawnShard(const LaunchPlan &plan, const Options &opts,
           ShardTask &shard, Injection &inject)
{
    std::string spec = opts.run.specPath;
    if (inject.claim(Injection::Mode::Fail, shard.index))
        spec = plan.workDir + "/injected-missing-spec.json";
    // Claimed parent-side (the counter must survive the fork), but
    // executed child-side: the child killing itself is immune to
    // the parent-vs-fast-shard race a post-fork kill(2) would have.
    bool injectKill =
        inject.claim(Injection::Mode::Kill, shard.index);

    std::vector<std::string> args;
    args.push_back(plan.campaignBin);
    args.push_back(spec);
    args.push_back("--shard");
    args.push_back(strprintf("%zu/%zu", shard.index, plan.shards));
    args.push_back("-o");
    args.push_back(shard.csvPath);
    if (!shard.reportPath.empty()) {
        args.push_back("--report");
        args.push_back(shard.reportPath);
    }
    if (opts.run.threads) {
        args.push_back("--threads");
        args.push_back(strprintf("%u", *opts.run.threads));
    }
    if (!opts.run.traceDir.empty()) {
        args.push_back("--trace-dir");
        args.push_back(opts.run.traceDir);
    }

    appendLogLine(shard.logPath,
                  strprintf("--- pdnspot_launch: shard %zu/%zu "
                            "attempt %u ---",
                            shard.index, plan.shards,
                            shard.attempts + 1));

    int fd = ::open(shard.logPath.c_str(),
                    O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd < 0)
        fatal(strprintf("cannot open shard log \"%s\": %s",
                        shard.logPath.c_str(),
                        std::strerror(errno)));

    pid_t pid = ::fork();
    if (pid < 0) {
        int err = errno;
        ::close(fd);
        fatal(strprintf("fork failed for shard %zu/%zu: %s",
                        shard.index, plan.shards,
                        std::strerror(err)));
    }
    if (pid == 0) {
        ::dup2(fd, STDOUT_FILENO);
        ::dup2(fd, STDERR_FILENO);
        ::close(fd);
        if (injectKill)
            ::raise(SIGKILL); // simulates a shard dying mid-run
        std::vector<char *> argv;
        argv.reserve(args.size() + 1);
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        ::execv(argv[0], argv.data());
        // exec failed: report into the log and die with the shell's
        // command-not-found code so the parent retries/raises it.
        std::string msg = "pdnspot_launch: cannot exec " +
                          args[0] + ": " + std::strerror(errno) +
                          "\n";
        ssize_t ignored =
            ::write(STDERR_FILENO, msg.data(), msg.size());
        (void)ignored;
        ::_exit(127);
    }
    ::close(fd);
    return pid;
}

/** Human-readable reason one attempt failed, from waitpid status. */
std::string
describeFailure(const ShardTask &shard, int status,
                double timeoutS)
{
    if (shard.timedOut)
        return strprintf("timed out after %g s (killed)", timeoutS);
    if (WIFSIGNALED(status))
        return strprintf("killed by signal %d", WTERMSIG(status));
    if (WIFEXITED(status))
        return strprintf("exit code %d", WEXITSTATUS(status));
    return "stopped unexpectedly";
}

/**
 * The supervision loop: keeps up to `jobs` shards running, reaps
 * exits, enforces timeouts, schedules retries. Returns normally
 * when every shard is Done; fatal() when one exhausts its retries.
 */
void
superviseShards(const LaunchPlan &plan, const Options &opts,
                std::vector<ShardTask> &shards, Injection &inject,
                cli::ProgressMeter &progress)
{
    const unsigned maxAttempts = plan.retries + 1;
    size_t done = 0, running = 0;

    auto abortRun = [&](const std::string &message) {
        for (ShardTask &s : shards) {
            if (s.state == ShardTask::State::Running &&
                s.pid > 0) {
                ::kill(s.pid, SIGKILL);
                int status = 0;
                ::waitpid(s.pid, &status, 0);
            }
        }
        fatal(message);
    };

    while (done < shards.size()) {
        Clock::time_point now = Clock::now();

        // Fill free job slots with shards whose backoff has lapsed.
        for (ShardTask &s : shards) {
            if (running >= plan.jobs)
                break;
            if (s.state != ShardTask::State::Pending ||
                s.readyAt > now)
                continue;
            s.pid = spawnShard(plan, opts, s, inject);
            s.timedOut = false;
            ++s.attempts;
            s.deadline =
                plan.timeoutS > 0.0
                    ? now + std::chrono::duration_cast<
                                Clock::duration>(
                                std::chrono::duration<double>(
                                    plan.timeoutS))
                    : Clock::time_point::max();
            s.state = ShardTask::State::Running;
            ++running;
        }

        // Reap whatever finished.
        int status = 0;
        pid_t pid;
        while ((pid = ::waitpid(-1, &status, WNOHANG)) > 0) {
            auto it = std::find_if(
                shards.begin(), shards.end(),
                [pid](const ShardTask &s) {
                    return s.state == ShardTask::State::Running &&
                           s.pid == pid;
                });
            if (it == shards.end())
                continue; // not ours (impossible in practice)
            ShardTask &s = *it;
            --running;
            s.pid = -1;
            if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
                s.state = ShardTask::State::Done;
                ++done;
                progress.tick(done);
                continue;
            }
            std::string why =
                describeFailure(s, status, plan.timeoutS);
            appendLogLine(s.logPath,
                          strprintf("--- attempt %u failed: %s ---",
                                    s.attempts, why.c_str()));
            if (s.attempts >= maxAttempts) {
                std::string tail = logTail(s.logPath, 15);
                abortRun(strprintf(
                    "shard %zu/%zu failed after %u attempts (last: "
                    "%s); log: %s\n%s",
                    s.index, plan.shards, s.attempts, why.c_str(),
                    s.logPath.c_str(), tail.c_str()));
            }
            double delayMs =
                backoffDelayMs(plan, s.index, s.attempts);
            warn(strprintf(
                "shard %zu/%zu attempt %u/%u failed (%s); "
                "retrying in %.0f ms",
                s.index, plan.shards, s.attempts, maxAttempts,
                why.c_str(), delayMs));
            s.readyAt =
                Clock::now() +
                std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(
                        delayMs));
            s.state = ShardTask::State::Pending;
        }
        if (pid < 0 && errno != ECHILD && errno != EINTR)
            abortRun(strprintf("waitpid failed: %s",
                               std::strerror(errno)));

        // Enforce per-attempt timeouts: kill and let the reaper
        // above classify the corpse on the next pass.
        now = Clock::now();
        for (ShardTask &s : shards) {
            if (s.state == ShardTask::State::Running &&
                now > s.deadline && !s.timedOut) {
                s.timedOut = true;
                ::kill(s.pid, SIGKILL);
            }
        }

        if (done < shards.size())
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
    }
}

int
runCli(const Options &opts, const char *argv0)
{
    // Load the campaign spec up front: an invalid spec must fail in
    // milliseconds here, not n times in n subprocess logs.
    CampaignSpec spec =
        loadCampaignSpecFile(opts.run.specPath, opts.run.traceDir);
    LaunchSpec launchSpec = loadLaunchSpecFile(opts.run.specPath);

    LaunchPlan plan;
    plan.shards = opts.shards.value_or(launchSpec.shards);
    size_t autoJobs = std::max<size_t>(
        1, std::min<size_t>(
               plan.shards, std::thread::hardware_concurrency()));
    plan.jobs = opts.jobs.value_or(
        launchSpec.jobs > 0 ? launchSpec.jobs : autoJobs);
    plan.timeoutS = opts.timeoutS.value_or(launchSpec.timeoutS);
    plan.retries = opts.retries.value_or(launchSpec.retries);
    plan.backoffMs = opts.backoffMs.value_or(launchSpec.backoffMs);
    plan.seed = opts.seed.value_or(launchSpec.seed);
    plan.campaignBin = opts.campaignBin.empty()
                           ? defaultCampaignBin(argv0)
                           : opts.campaignBin;

    size_t cells = spec.cellCount();

    if (opts.run.dryRun) {
        std::cerr << strprintf(
            "pdnspot_launch: %s: %zu cells over %zu shards "
            "(jobs %zu, timeout %s, retries %u, backoff %g ms, "
            "seed %llu)\n",
            opts.run.specPath.c_str(), cells, plan.shards, plan.jobs,
            plan.timeoutS > 0.0
                ? strprintf("%g s", plan.timeoutS).c_str()
                : "none",
            plan.retries, plan.backoffMs,
            static_cast<unsigned long long>(plan.seed));
        std::cerr << "  campaign binary: " << plan.campaignBin
                  << "\n";
        for (size_t k = 1; k <= plan.shards; ++k) {
            CellRange shard = shardCellRange(cells, k, plan.shards);
            std::cerr << strprintf(
                "  shard %zu/%zu: cells [%zu, %zu)\n", k,
                plan.shards, shard.first, shard.end);
        }
        return 0;
    }

    // Every output is checked before we fork n times: -o opens (and
    // the campaign binary must be runnable) before any shard runs.
    cli::OutputFile out(opts.run.outPath, "output");
    if (::access(plan.campaignBin.c_str(), X_OK) != 0)
        fatal(strprintf("campaign binary \"%s\" is not executable "
                        "(%s); use --campaign-bin",
                        plan.campaignBin.c_str(),
                        std::strerror(errno)));

    // Work dir: caller-provided (kept), or a fresh temp dir
    // (removed on success unless --keep-work).
    plan.ownWorkDir = opts.workDir.empty();
    if (plan.ownWorkDir) {
        std::string tmpl =
            (fs::temp_directory_path() / "pdnspot_launch.XXXXXX")
                .string();
        std::vector<char> buf(tmpl.begin(), tmpl.end());
        buf.push_back('\0');
        if (!::mkdtemp(buf.data()))
            fatal(strprintf("cannot create work dir (%s)",
                            std::strerror(errno)));
        plan.workDir = buf.data();
    } else {
        plan.workDir = opts.workDir;
        std::error_code ec;
        fs::create_directories(plan.workDir, ec);
        if (ec)
            fatal(strprintf("cannot create work dir \"%s\": %s",
                            plan.workDir.c_str(),
                            ec.message().c_str()));
    }

    const bool wantReports =
        !opts.archiveDir.empty() || !opts.reportDir.empty();
    Injection inject = Injection::fromEnv();

    std::vector<ShardTask> shards(plan.shards);
    for (size_t k = 1; k <= plan.shards; ++k) {
        ShardTask &s = shards[k - 1];
        s.index = k;
        s.csvPath =
            strprintf("%s/shard_%zu.csv", plan.workDir.c_str(), k);
        s.logPath =
            strprintf("%s/shard_%zu.log", plan.workDir.c_str(), k);
        if (wantReports)
            s.reportPath = strprintf("%s/shard_%zu.report.json",
                                     plan.workDir.c_str(), k);
        s.readyAt = Clock::now();
    }

    inform(strprintf(
        "launching %zu shards of %s (%zu cells, %zu at a time) "
        "via %s",
        plan.shards, opts.run.specPath.c_str(), cells, plan.jobs,
        plan.campaignBin.c_str()));

    cli::ProgressMeter progress(tool, "shards", opts.run.progress,
                                plan.shards);
    superviseShards(plan, opts, shards, inject, progress);

    // Concatenate in shard order — byte-identical to the unsharded
    // run because shard 1 carries the header and the ranges tile
    // the canonical cell order.
    size_t bytes = 0;
    for (const ShardTask &s : shards) {
        std::string csv = readFileBytes(s.csvPath);
        bytes += csv.size();
        out.stream() << csv;
    }
    out.finish();
    if (!out.isStdout())
        inform(strprintf("wrote %zu bytes to %s", bytes,
                         out.path().c_str()));

    if (!opts.archiveDir.empty()) {
        ResultArchive archive(opts.archiveDir);
        for (const ShardTask &s : shards) {
            std::string id = archive.ingest(
                readFileBytes(s.reportPath), readFileBytes(s.csvPath));
            inform(strprintf("archived shard %zu/%zu as run %s",
                             s.index, plan.shards, id.c_str()));
        }
    }
    if (!opts.reportDir.empty()) {
        std::error_code ec;
        fs::create_directories(opts.reportDir, ec);
        if (ec)
            fatal(strprintf("cannot create report dir \"%s\": %s",
                            opts.reportDir.c_str(),
                            ec.message().c_str()));
        for (const ShardTask &s : shards) {
            fs::copy_file(
                s.reportPath,
                strprintf("%s/shard_%zu.report.json",
                          opts.reportDir.c_str(), s.index),
                fs::copy_options::overwrite_existing, ec);
            if (ec)
                fatal(strprintf("cannot copy shard %zu report to "
                                "\"%s\": %s",
                                s.index, opts.reportDir.c_str(),
                                ec.message().c_str()));
        }
    }

    if (plan.ownWorkDir && !opts.keepWork) {
        std::error_code ec;
        fs::remove_all(plan.workDir, ec); // best-effort cleanup
    } else {
        inform(strprintf("shard outputs kept in %s",
                         plan.workDir.c_str()));
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return cli::runMain(tool, [&] {
        return runCli(parseArgs(argc, argv),
                      argc > 0 ? argv[0] : nullptr);
    });
}
