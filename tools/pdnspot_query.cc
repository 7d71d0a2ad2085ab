/**
 * @file
 * pdnspot_query: lookup and filtering over a result archive.
 *
 * The read side of the campaign service: everything pdnspot_launch
 * (or a bare `pdnspot_campaign --report` + `ingest`) deposited in a
 * ResultArchive (src/store/result_archive.hh) is answerable here —
 * by spec content hash, platform preset, PDN kind, trace name, git
 * revision, or a metric predicate over the per-PDN summaries — with
 * table or CSV output. `csv` reassembles a filtered run's payload:
 * when the filters select a complete shard set, the shards are
 * concatenated in order, reproducing the unsharded campaign CSV
 * byte for byte.
 *
 * Usage: pdnspot_query <archive-dir> <command> [options]
 *   list            one row per archived run (id, tool, shard,
 *                   spec hash, traces, platforms, rows)
 *   summaries       one row per (run, PDN) summary — the metric
 *                   surface --where predicates filter on
 *   show <id>       print the stored report document (any unique
 *                   id prefix)
 *   csv [<id>]      payload bytes: a single run by id prefix, or
 *                   the filtered entries as one complete shard set
 *   ingest <report.json> [--csv-file <f>]
 *                   archive a report (+ optional CSV payload);
 *                   prints the run id
 *   rebuild-index   regenerate index.jsonl from the stored reports
 *
 * And without an archive:
 *   pdnspot_query hash <file>   print the file's spec content hash
 *                               ("fnv1a64:<16 hex>")
 *
 * Filters (list, summaries, csv):
 *   --spec-hash <h>  spec content hash, prefix ok, with or without
 *                    the "fnv1a64:" tag
 *   --preset <name>  platform/preset name carried by the run
 *   --pdn <kind>     per-PDN summary kind (summaries/csv: keeps the
 *                    run; list: matches any summary row)
 *   --trace <name>   trace name carried by the run
 *   --tool <name> / --git-rev <rev>
 *   --where <metric><op><value>
 *                    metric predicate over summary rows; metrics:
 *                    battery_life_h, mean_power_w, mean_etee,
 *                    supply_energy_j, mode_switches, cells;
 *                    ops: < <= > >= = !=  (repeatable, ANDed)
 *
 * Output: --format table|csv (default table), -o <path> ("-" =
 * stdout). A filter that matches nothing succeeds — the empty table
 * is the answer — but a read command on a path that holds no
 * archive fails: a typo is not an empty archive. Exit codes and
 * usage errors follow tools/cli_common.hh.
 */

#include <algorithm>
#include <array>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "cli_common.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "config/json.hh"
#include "obs/run_report.hh"
#include "store/result_archive.hh"

namespace
{

using namespace pdnspot;

constexpr const char *usageText =
    "usage: pdnspot_query <archive-dir> <command> [options]\n"
    "  commands:\n"
    "    list                       one row per archived run\n"
    "    summaries                  one row per (run, PDN) summary\n"
    "    show <id-prefix>           print the stored report\n"
    "    csv [<id-prefix>]          payload bytes (filtered runs\n"
    "                               concatenate as one shard set)\n"
    "    ingest <report.json> [--csv-file <f>]\n"
    "                               archive a report, print its id\n"
    "    rebuild-index              regenerate index.jsonl\n"
    "  filters (list/summaries/csv):\n"
    "    --spec-hash <h> --preset <name> --pdn <kind>\n"
    "    --trace <name> --tool <name> --git-rev <rev>\n"
    "    --where <metric><op><value>   (battery_life_h,\n"
    "        mean_power_w, mean_etee, supply_energy_j,\n"
    "        mode_switches, cells; ops < <= > >= = !=)\n"
    "  output: [--format table|csv] [-o <path>]\n"
    "       pdnspot_query hash <file>\n"
    "       pdnspot_query --version\n";

constexpr cli::ToolInfo tool{"pdnspot_query", usageText};

/** The summary columns --where can test, by name. */
using SummaryMetric = double (*)(const ArchivePdnSummary &);
constexpr std::array<Named<SummaryMetric>, 6> whereMetrics = {{
    {[](const ArchivePdnSummary &r) { return r.batteryLifeHours; },
     "battery_life_h"},
    {[](const ArchivePdnSummary &r) { return r.meanPowerW; },
     "mean_power_w"},
    {[](const ArchivePdnSummary &r) { return r.meanEtee; },
     "mean_etee"},
    {[](const ArchivePdnSummary &r) { return r.supplyEnergyJ; },
     "supply_energy_j"},
    {[](const ArchivePdnSummary &r) {
         return static_cast<double>(r.modeSwitches);
     },
     "mode_switches"},
    {[](const ArchivePdnSummary &r) {
         return static_cast<double>(r.cells);
     },
     "cells"},
}};

/** One --where predicate, parsed. */
struct MetricPredicate
{
    SummaryMetric metric;
    enum class Op
    {
        Lt,
        Le,
        Gt,
        Ge,
        Eq,
        Ne,
    } op;
    double value;

    bool
    holds(double x) const
    {
        switch (op) {
        case Op::Lt: return x < value;
        case Op::Le: return x <= value;
        case Op::Gt: return x > value;
        case Op::Ge: return x >= value;
        case Op::Eq: return x == value;
        case Op::Ne: return x != value;
        }
        return false;
    }
};

MetricPredicate
parseWhere(const std::string &expr)
{
    // Longest operators first so "<=" does not parse as "<" + "=".
    static const std::pair<const char *, MetricPredicate::Op>
        ops[] = {{"<=", MetricPredicate::Op::Le},
                 {">=", MetricPredicate::Op::Ge},
                 {"!=", MetricPredicate::Op::Ne},
                 {"<", MetricPredicate::Op::Lt},
                 {">", MetricPredicate::Op::Gt},
                 {"=", MetricPredicate::Op::Eq}};
    for (const auto &[text, op] : ops) {
        size_t at = expr.find(text);
        if (at == std::string::npos || at == 0)
            continue;
        std::string rhs = expr.substr(at + std::strlen(text));
        std::optional<double> value = cli::parseDouble(rhs);
        if (!value)
            cli::usageError(tool, "--where value \"" + rhs +
                                      "\" is not a finite number");
        std::string metric = expr.substr(0, at);
        const Named<SummaryMetric> *row =
            findName(whereMetrics, metric);
        if (!row)
            cli::usageError(tool, unknownName("--where metric", metric,
                                              whereMetrics));
        return {row->value, op, *value};
    }
    cli::usageError(tool, "--where expects <metric><op><value>, got "
                          "\"" +
                              expr + "\"");
}

/** All filters a query command can carry. */
struct Filters
{
    std::string specHash; ///< prefix, "fnv1a64:" tag optional
    std::string preset;
    std::string pdn;
    std::string trace;
    std::string tool;
    std::string gitRev;
    std::vector<MetricPredicate> where;
};

/** Does `entry` have a summary row passing --pdn and --where? */
bool
summaryRowMatches(const Filters &f, const ArchivePdnSummary &row)
{
    if (!f.pdn.empty() && row.pdn != f.pdn)
        return false;
    for (const MetricPredicate &pred : f.where)
        if (!pred.holds(pred.metric(row)))
            return false;
    return true;
}

bool
entryMatches(const Filters &f, const ArchiveEntry &entry)
{
    if (!f.specHash.empty()) {
        std::string want = f.specHash;
        std::string have = entry.specHash;
        // Tolerate the "fnv1a64:" tag on either side of a prefix
        // compare: users paste both tagged and bare hashes.
        const std::string tag = "fnv1a64:";
        if (want.rfind(tag, 0) != 0 && have.rfind(tag, 0) == 0)
            have = have.substr(tag.size());
        if (have.rfind(want, 0) != 0)
            return false;
    }
    if (!f.preset.empty() &&
        std::find(entry.platforms.begin(), entry.platforms.end(),
                  f.preset) == entry.platforms.end())
        return false;
    if (!f.trace.empty() &&
        std::find(entry.traces.begin(), entry.traces.end(),
                  f.trace) == entry.traces.end())
        return false;
    if (!f.tool.empty() && entry.tool != f.tool)
        return false;
    if (!f.gitRev.empty() && entry.gitRev != f.gitRev)
        return false;
    if (f.pdn.empty() && f.where.empty())
        return true;
    return std::any_of(entry.summaries.begin(),
                       entry.summaries.end(),
                       [&](const ArchivePdnSummary &row) {
                           return summaryRowMatches(f, row);
                       });
}

enum class Command
{
    Hash,
    List,
    Summaries,
    Show,
    Csv,
    Ingest,
    RebuildIndex,
};

/** The commands that follow an archive directory. */
constexpr std::array<Named<Command>, 6> archiveCommands = {{
    {Command::List, "list"},
    {Command::Summaries, "summaries"},
    {Command::Show, "show"},
    {Command::Csv, "csv"},
    {Command::Ingest, "ingest"},
    {Command::RebuildIndex, "rebuild-index"},
}};

enum class Format
{
    Table,
    Csv,
};

constexpr std::array<Named<Format>, 2> formats = {{
    {Format::Table, "table"},
    {Format::Csv, "csv"},
}};

struct Options
{
    std::string archiveDir;
    Command command = Command::List;
    std::string operand; ///< id prefix / report path / hash file
    std::string csvFile; ///< ingest --csv-file
    Filters filters;
    Format format = Format::Table;
    std::string outPath = "-";
};

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    cli::ArgWalker args(tool, argc, argv);
    std::vector<std::string> positional;
    while (args.next()) {
        const std::string &arg = args.arg();
        if (arg == "--spec-hash") {
            opts.filters.specHash = args.value();
        } else if (arg == "--preset") {
            opts.filters.preset = args.value();
        } else if (arg == "--pdn") {
            opts.filters.pdn = args.value();
        } else if (arg == "--trace") {
            opts.filters.trace = args.value();
        } else if (arg == "--tool") {
            opts.filters.tool = args.value();
        } else if (arg == "--git-rev") {
            opts.filters.gitRev = args.value();
        } else if (arg == "--where") {
            opts.filters.where.push_back(parseWhere(args.value()));
        } else if (arg == "--csv-file") {
            opts.csvFile = args.value();
        } else if (arg == "--format") {
            opts.format = args.nameValue(formats, "output format");
        } else if (arg == "-o") {
            opts.outPath = args.value();
        } else if (args.isOption()) {
            args.unknown();
        } else {
            positional.push_back(arg);
        }
    }

    if (positional.empty())
        args.fail("missing archive directory (or \"hash <file>\")");

    // "hash <file>" has no archive directory.
    if (positional[0] == "hash") {
        opts.command = Command::Hash;
        if (positional.size() != 2)
            args.fail("hash expects exactly one file argument");
        opts.operand = positional[1];
        return opts;
    }

    if (positional.size() < 2)
        args.fail("missing command after archive directory");
    opts.archiveDir = positional[0];
    const std::string &name = positional[1];
    const Named<Command> *command = findName(archiveCommands, name);
    if (!command)
        args.fail(unknownName("command", name, archiveCommands));
    opts.command = command->value;

    bool show = opts.command == Command::Show;
    bool ingest = opts.command == Command::Ingest;
    if (positional.size() > 3)
        args.fail("too many arguments");
    if (positional.size() == 3) {
        if (!show && !ingest && opts.command != Command::Csv)
            args.fail("command \"" + name + "\" takes no operand");
        opts.operand = positional[2];
    }
    if ((show || ingest) && opts.operand.empty())
        args.fail("command \"" + name + "\" needs an operand");
    return opts;
}

std::string
joinNames(const std::vector<std::string> &names)
{
    return joinStrings(names, "+");
}

template <typename Table>
void
emitListRows(Table &table, const std::vector<ArchiveEntry> &rows)
{
    for (const ArchiveEntry &e : rows)
        table.addRow({e.id, e.tool, e.gitRev,
                      strprintf("%zu/%zu", e.shardIndex,
                                e.shardCount),
                      e.specHash, joinNames(e.traces),
                      joinNames(e.platforms),
                      strprintf("%zu", e.rows),
                      AsciiTable::num(e.wallSeconds, 3)});
}

void
runList(const Options &opts, const std::vector<ArchiveEntry> &rows)
{
    std::vector<std::string> headers = {
        "id",        "tool",      "git_rev",
        "shard",     "spec_hash", "traces",
        "platforms", "rows",      "wall_s"};
    cli::OutputFile out(opts.outPath, "output");
    if (opts.format == Format::Csv) {
        CsvWriter csv(headers);
        emitListRows(csv, rows);
        csv.write(out.stream());
    } else {
        AsciiTable table(headers);
        emitListRows(table, rows);
        table.print(out.stream());
    }
    out.finish();
}

template <typename Table>
void
emitSummaryRows(Table &table, const Options &opts,
                const std::vector<ArchiveEntry> &rows)
{
    for (const ArchiveEntry &e : rows)
        for (const ArchivePdnSummary &s : e.summaries) {
            if (!summaryRowMatches(opts.filters, s))
                continue;
            table.addRow({e.id,
                          strprintf("%zu/%zu", e.shardIndex,
                                    e.shardCount),
                          s.pdn, strprintf("%llu",
                                           (unsigned long long)
                                               s.cells),
                          AsciiTable::num(s.supplyEnergyJ, 3),
                          AsciiTable::num(s.meanEtee, 4),
                          strprintf("%llu", (unsigned long long)
                                                s.modeSwitches),
                          AsciiTable::num(s.meanPowerW, 3),
                          AsciiTable::num(s.batteryLifeHours, 2)});
        }
}

void
runSummaries(const Options &opts,
             const std::vector<ArchiveEntry> &rows)
{
    std::vector<std::string> headers = {
        "id",           "shard",         "pdn",
        "cells",        "supply_energy_j", "mean_etee",
        "mode_switches", "mean_power_w",  "battery_life_h"};
    cli::OutputFile out(opts.outPath, "output");
    if (opts.format == Format::Csv) {
        CsvWriter csv(headers);
        emitSummaryRows(csv, opts, rows);
        csv.write(out.stream());
    } else {
        AsciiTable table(headers);
        emitSummaryRows(table, opts, rows);
        table.print(out.stream());
    }
    out.finish();
}

void
runCsv(const Options &opts, const ResultArchive &archive,
       std::vector<ArchiveEntry> rows)
{
    if (!opts.operand.empty()) {
        std::optional<ArchiveEntry> entry =
            archive.findRun(opts.operand);
        if (!entry)
            fatal(strprintf("no archived run matches id prefix "
                            "\"%s\"",
                            opts.operand.c_str()));
        cli::OutputFile out(opts.outPath, "output");
        out.stream() << archive.readCsv(*entry);
        out.finish();
        return;
    }
    if (rows.empty())
        fatal("no archived runs match the given filters");
    std::vector<ArchiveEntry> ordered =
        orderShardSet(std::move(rows));
    cli::OutputFile out(opts.outPath, "output");
    for (const ArchiveEntry &entry : ordered)
        out.stream() << archive.readCsv(entry);
    out.finish();
}

int
runCli(const Options &opts)
{
    if (opts.command == Command::Hash) {
        std::cout << "fnv1a64:"
                  << fnv1a64Hex(readFileBytes(opts.operand))
                  << "\n";
        return 0;
    }

    // The write commands create the archive; the read commands must
    // find one there, so a mistyped path fails instead of reading as
    // an empty archive.
    if (opts.command == Command::Ingest) {
        std::string csv =
            opts.csvFile.empty() ? "" : readFileBytes(opts.csvFile);
        std::string id = ResultArchive(opts.archiveDir)
                             .ingest(readFileBytes(opts.operand), csv);
        std::cout << id << "\n";
        return 0;
    }
    if (opts.command == Command::RebuildIndex) {
        ResultArchive archive(opts.archiveDir);
        archive.rebuildIndex();
        inform(strprintf("rebuilt %s",
                         archive.indexPath().c_str()));
        return 0;
    }
    ResultArchive archive =
        ResultArchive::openExisting(opts.archiveDir);
    if (opts.command == Command::Show) {
        std::optional<ArchiveEntry> entry =
            archive.findRun(opts.operand);
        if (!entry)
            fatal(strprintf("no archived run matches id prefix "
                            "\"%s\"",
                            opts.operand.c_str()));
        cli::OutputFile out(opts.outPath, "output");
        out.stream() << writeJson(archive.readReport(entry->id));
        out.finish();
        return 0;
    }

    std::vector<ArchiveEntry> rows;
    for (ArchiveEntry &entry : archive.entries())
        if (entryMatches(opts.filters, entry))
            rows.push_back(std::move(entry));

    if (opts.command == Command::List)
        runList(opts, rows);
    else if (opts.command == Command::Summaries)
        runSummaries(opts, rows);
    else
        runCsv(opts, archive, std::move(rows));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return cli::runMain(tool,
                        [&] { return runCli(parseArgs(argc, argv)); });
}
