#include "store/result_archive.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/logging.hh"

namespace fs = std::filesystem;

namespace pdnspot
{

namespace
{

JsonValue
num(double v)
{
    return JsonValue::makeNumber(v);
}

JsonValue
str(std::string v)
{
    return JsonValue::makeString(std::move(v));
}

JsonValue
stringArray(const std::vector<std::string> &values)
{
    std::vector<JsonValue> items;
    items.reserve(values.size());
    for (const std::string &v : values)
        items.push_back(str(v));
    return JsonValue::makeArray(std::move(items));
}

std::string
readFileOrFatal(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal(strprintf("cannot read \"%s\"", path.c_str()));
    std::ostringstream out;
    out << in.rdbuf();
    return std::move(out).str();
}

/** Typed reads mirroring run_report.cc's tolerant accessors. */
std::string
lineString(const JsonValue &obj, const char *key)
{
    const JsonValue *v = obj.find(key);
    if (!v || v->kind() != JsonValue::Kind::String)
        return "";
    return v->asString();
}

double
lineNumber(const JsonValue &obj, const char *key)
{
    const JsonValue *v = obj.find(key);
    if (!v || v->kind() != JsonValue::Kind::Number)
        return 0.0;
    return v->asNumber();
}

uint64_t
lineCount(const JsonValue &obj, const char *key)
{
    double v = lineNumber(obj, key);
    return v >= 0.0 ? static_cast<uint64_t>(v) : 0;
}

std::vector<std::string>
lineStrings(const JsonValue &obj, const char *key)
{
    std::vector<std::string> out;
    const JsonValue *v = obj.find(key);
    if (!v || v->kind() != JsonValue::Kind::Array)
        return out;
    for (const JsonValue &item : v->items()) {
        if (item.kind() == JsonValue::Kind::String)
            out.push_back(item.asString());
    }
    return out;
}

} // namespace

std::string
traceChainHash(const RunReportView &view)
{
    std::string joined;
    for (size_t i = 0; i < view.traceNames.size(); ++i) {
        joined += view.traceNames[i];
        joined += '=';
        if (i < view.traceProvenance.size())
            joined += view.traceProvenance[i];
        joined += '\n';
    }
    return fnv1a64Hex(joined);
}

std::vector<ArchiveEntry>
orderShardSet(std::vector<ArchiveEntry> entries)
{
    if (entries.empty())
        fatal("no archived runs with CSV payloads match");
    size_t count = entries.front().shardCount;
    for (const ArchiveEntry &e : entries) {
        if (e.csvHash.empty())
            fatal(strprintf("run %s carries no CSV payload",
                            e.id.c_str()));
        if (e.shardCount != count)
            fatal(strprintf(
                "mixed shard counts in the matched set: run %s has "
                "%zu shards, run %s has %zu (narrow the filters)",
                entries.front().id.c_str(), count, e.id.c_str(),
                e.shardCount));
    }
    if (entries.size() != count) {
        std::vector<std::string> have;
        for (const ArchiveEntry &e : entries)
            have.push_back(strprintf("%zu", e.shardIndex));
        fatal(strprintf("matched %zu runs of a %zu-shard set "
                        "(shards present: %s)",
                        entries.size(), count,
                        joinStrings(have).c_str()));
    }
    std::sort(entries.begin(), entries.end(),
              [](const ArchiveEntry &a, const ArchiveEntry &b) {
                  return a.shardIndex < b.shardIndex;
              });
    for (size_t i = 0; i < entries.size(); ++i) {
        if (entries[i].shardIndex == i + 1)
            continue;
        bool duplicate =
            i > 0 && entries[i].shardIndex ==
                         entries[i - 1].shardIndex;
        fatal(strprintf("shard %zu/%zu is %s in the matched set "
                        "(narrow the filters)",
                        duplicate ? entries[i].shardIndex : i + 1,
                        count,
                        duplicate ? "duplicated" : "missing"));
    }
    return entries;
}

ResultArchive::ResultArchive(std::string root)
    : _root(std::move(root))
{
    if (_root.empty())
        fatal("archive root must be non-empty");
    std::error_code ec;
    for (const char *sub : {"", "/runs", "/payloads", "/tmp"}) {
        fs::create_directories(_root + sub, ec);
        if (ec)
            fatal(strprintf("cannot create archive directory "
                            "\"%s%s\": %s",
                            _root.c_str(), sub,
                            ec.message().c_str()));
    }
}

ResultArchive
ResultArchive::openExisting(std::string root)
{
    if (!fs::is_directory(root + "/runs"))
        fatal(strprintf("\"%s\" is not a result archive (no runs/ "
                        "directory)",
                        root.c_str()));
    return ResultArchive(std::move(root));
}

std::string
ResultArchive::indexPath() const
{
    return _root + "/index.jsonl";
}

std::string
ResultArchive::reportPath(const std::string &id) const
{
    return _root + "/runs/" + id + ".report.json";
}

std::string
ResultArchive::refPath(const std::string &id) const
{
    return _root + "/runs/" + id + ".csv.ref";
}

std::string
ResultArchive::payloadPath(const std::string &hash) const
{
    return _root + "/payloads/" + hash + ".csv";
}

void
ResultArchive::writeAtomically(const std::string &path,
                               const std::string &bytes) const
{
    // Staged under the archive root so the rename never crosses a
    // filesystem boundary; the name is unique enough for concurrent
    // ingesters (same content renames onto the same target anyway).
    std::string tmp = _root + "/tmp/" +
                      fnv1a64Hex(path + "\n" + bytes) + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary);
        if (!out)
            fatal(strprintf("cannot open \"%s\"", tmp.c_str()));
        out << bytes;
        out.close();
        if (!out)
            fatal(strprintf("error writing \"%s\"", tmp.c_str()));
    }
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec)
        fatal(strprintf("cannot rename \"%s\" to \"%s\": %s",
                        tmp.c_str(), path.c_str(),
                        ec.message().c_str()));
}

void
ResultArchive::appendIndexLine(const ArchiveEntry &entry) const
{
    std::ofstream out(indexPath(),
                      std::ios::binary | std::ios::app);
    if (!out)
        fatal(strprintf("cannot open \"%s\"",
                        indexPath().c_str()));
    out << writeJsonCompact(entryToJson(entry)) << "\n";
    out.close();
    if (!out)
        fatal(strprintf("error appending to \"%s\"",
                        indexPath().c_str()));
}

std::string
ResultArchive::ingest(const std::string &reportText,
                      const std::string &csvBytes)
{
    JsonValue report = parseJson(reportText, "<report>");
    viewRunReport(report); // schema check before any write
    std::string id = fnv1a64Hex(reportText);

    // Same report bytes => same run: the archive is append-only and
    // the first ingest wins (a differing payload on a re-ingest
    // would mean the caller re-ran a provenance-identical study and
    // got different bytes — the report, not the archive, is the
    // identity).
    if (fs::exists(reportPath(id)))
        return id;

    std::string csvHash;
    if (!csvBytes.empty()) {
        csvHash = fnv1a64Hex(csvBytes);
        if (!fs::exists(payloadPath(csvHash)))
            writeAtomically(payloadPath(csvHash), csvBytes);
        writeAtomically(refPath(id), csvHash + "\n");
    }
    // The report lands last: a run is archived iff its report file
    // exists, and by then its payload + ref are already durable.
    writeAtomically(reportPath(id), reportText);
    appendIndexLine(entryFromReport(report, id, csvHash));
    return id;
}

std::vector<ArchiveEntry>
ResultArchive::entries() const
{
    std::vector<ArchiveEntry> out;
    std::ifstream in(indexPath(), std::ios::binary);
    if (!in)
        return out;
    std::string line;
    size_t lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        if (line.empty())
            continue;
        std::optional<ArchiveEntry> entry;
        try {
            entry = entryFromJson(
                parseJson(line, strprintf("%s:%zu",
                                          indexPath().c_str(),
                                          lineNo)));
        } catch (const ConfigError &) {
            // A torn append (crash mid-line) or hand-edited damage:
            // the store is the source of truth, so skip and let
            // rebuild-index repair.
            continue;
        }
        if (!entry)
            continue;
        bool seen = false;
        for (const ArchiveEntry &e : out)
            seen = seen || e.id == entry->id;
        if (!seen)
            out.push_back(std::move(*entry));
    }
    return out;
}

std::optional<ArchiveEntry>
ResultArchive::findRun(const std::string &idPrefix) const
{
    if (idPrefix.empty())
        return std::nullopt;
    for (ArchiveEntry &entry : entries()) {
        if (entry.id.rfind(idPrefix, 0) == 0)
            return std::move(entry);
    }
    return std::nullopt;
}

JsonValue
ResultArchive::readReport(const std::string &id) const
{
    return parseJsonFile(reportPath(id));
}

std::string
ResultArchive::readReportText(const std::string &id) const
{
    return readFileOrFatal(reportPath(id));
}

std::string
ResultArchive::readCsv(const ArchiveEntry &entry) const
{
    if (entry.csvHash.empty())
        fatal(strprintf("run %s carries no CSV payload",
                        entry.id.c_str()));
    return readFileOrFatal(payloadPath(entry.csvHash));
}

void
ResultArchive::rebuildIndex()
{
    // Collect run ids from the store; sorted for a deterministic
    // rebuilt index (ingestion order lives only in the index file).
    std::vector<std::string> ids;
    const std::string suffix = ".report.json";
    std::error_code ec;
    for (const fs::directory_entry &e :
         fs::directory_iterator(_root + "/runs", ec)) {
        std::string name = e.path().filename().string();
        if (name.size() > suffix.size() &&
            name.compare(name.size() - suffix.size(),
                         suffix.size(), suffix) == 0)
            ids.push_back(
                name.substr(0, name.size() - suffix.size()));
    }
    if (ec)
        fatal(strprintf("cannot scan \"%s/runs\": %s",
                        _root.c_str(), ec.message().c_str()));
    std::sort(ids.begin(), ids.end());

    std::string lines;
    for (const std::string &id : ids) {
        std::string text = readFileOrFatal(reportPath(id));
        std::string csvHash;
        if (fs::exists(refPath(id))) {
            csvHash = readFileOrFatal(refPath(id));
            while (!csvHash.empty() &&
                   (csvHash.back() == '\n' ||
                    csvHash.back() == '\r'))
                csvHash.pop_back();
        }
        JsonValue report = parseJson(text, reportPath(id));
        lines += writeJsonCompact(entryToJson(
            entryFromReport(report, id, csvHash)));
        lines += '\n';
    }
    writeAtomically(indexPath(), lines);
}

ArchiveEntry
ResultArchive::entryFromReport(const JsonValue &report,
                               const std::string &id,
                               const std::string &csvHash)
{
    RunReportView view = viewRunReport(report);
    ArchiveEntry entry;
    entry.id = id;
    entry.tool = view.tool;
    entry.gitRev = view.gitRev;
    entry.specHash = view.specHash;
    entry.traceChain = traceChainHash(view);
    entry.traces = view.traceNames;
    entry.platforms = view.platforms;
    entry.threads = view.threads;
    entry.shardIndex = view.shardIndex;
    entry.shardCount = view.shardCount;
    entry.rows = view.rows;
    entry.wallSeconds = view.wallSeconds;
    entry.csvHash = csvHash;
    for (const RunReportView::Summary &s : view.summaries) {
        ArchivePdnSummary row;
        row.pdn = s.pdn;
        row.cells = s.cells;
        row.supplyEnergyJ = s.supplyEnergyJ;
        row.meanEtee = s.meanEtee;
        row.modeSwitches = s.modeSwitches;
        row.meanPowerW = s.meanPowerW;
        row.batteryLifeHours = s.batteryLifeHours;
        entry.summaries.push_back(std::move(row));
    }
    return entry;
}

JsonValue
ResultArchive::entryToJson(const ArchiveEntry &entry)
{
    std::vector<JsonValue::Member> doc;
    doc.reserve(14);
    doc.emplace_back("id", str(entry.id));
    doc.emplace_back("tool", str(entry.tool));
    doc.emplace_back("git_rev", str(entry.gitRev));
    doc.emplace_back("spec_hash", str(entry.specHash));
    doc.emplace_back("trace_chain", str(entry.traceChain));
    doc.emplace_back("traces", stringArray(entry.traces));
    doc.emplace_back("platforms", stringArray(entry.platforms));
    doc.emplace_back("threads", num(entry.threads));
    doc.emplace_back("shard_index",
                     num(static_cast<double>(entry.shardIndex)));
    doc.emplace_back("shard_count",
                     num(static_cast<double>(entry.shardCount)));
    doc.emplace_back("rows",
                     num(static_cast<double>(entry.rows)));
    doc.emplace_back("wall_time_s", num(entry.wallSeconds));
    doc.emplace_back("csv", str(entry.csvHash));
    std::vector<JsonValue> summaries;
    summaries.reserve(entry.summaries.size());
    for (const ArchivePdnSummary &s : entry.summaries) {
        std::vector<JsonValue::Member> row;
        row.reserve(7);
        row.emplace_back("pdn", str(s.pdn));
        row.emplace_back("cells",
                         num(static_cast<double>(s.cells)));
        row.emplace_back("supply_energy_j", num(s.supplyEnergyJ));
        row.emplace_back("mean_etee", num(s.meanEtee));
        row.emplace_back(
            "mode_switches",
            num(static_cast<double>(s.modeSwitches)));
        row.emplace_back("mean_power_w", num(s.meanPowerW));
        row.emplace_back("battery_life_h",
                         num(s.batteryLifeHours));
        summaries.push_back(
            JsonValue::makeObject(std::move(row)));
    }
    doc.emplace_back("summaries",
                     JsonValue::makeArray(std::move(summaries)));
    return JsonValue::makeObject(std::move(doc));
}

std::optional<ArchiveEntry>
ResultArchive::entryFromJson(const JsonValue &value)
{
    if (value.kind() != JsonValue::Kind::Object)
        return std::nullopt;
    ArchiveEntry entry;
    entry.id = lineString(value, "id");
    if (entry.id.empty())
        return std::nullopt;
    entry.tool = lineString(value, "tool");
    entry.gitRev = lineString(value, "git_rev");
    entry.specHash = lineString(value, "spec_hash");
    entry.traceChain = lineString(value, "trace_chain");
    entry.traces = lineStrings(value, "traces");
    entry.platforms = lineStrings(value, "platforms");
    entry.threads =
        static_cast<unsigned>(lineCount(value, "threads"));
    entry.shardIndex = lineCount(value, "shard_index");
    entry.shardCount = lineCount(value, "shard_count");
    entry.rows = lineCount(value, "rows");
    entry.wallSeconds = lineNumber(value, "wall_time_s");
    entry.csvHash = lineString(value, "csv");
    if (const JsonValue *summaries = value.find("summaries");
        summaries &&
        summaries->kind() == JsonValue::Kind::Array) {
        for (const JsonValue &s : summaries->items()) {
            if (s.kind() != JsonValue::Kind::Object)
                continue;
            ArchivePdnSummary row;
            row.pdn = lineString(s, "pdn");
            row.cells = lineCount(s, "cells");
            row.supplyEnergyJ = lineNumber(s, "supply_energy_j");
            row.meanEtee = lineNumber(s, "mean_etee");
            row.modeSwitches = lineCount(s, "mode_switches");
            row.meanPowerW = lineNumber(s, "mean_power_w");
            row.batteryLifeHours =
                lineNumber(s, "battery_life_h");
            entry.summaries.push_back(std::move(row));
        }
    }
    return entry;
}

} // namespace pdnspot
