#include "store/result_archive.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <unordered_set>

#include "common/logging.hh"
#include "obs/run_report.hh"

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

/** Member `key` of `obj`; null when `obj` is null or no object. */
const JsonValue *
member(const JsonValue *obj, const char *key)
{
    return obj ? obj->find(key) : nullptr;
}

/**
 * Lenient reads shared by the run report and the index line: an
 * absent parent or member, or one of the wrong kind, reads as the
 * default ("", 0, `fallback`, no items).
 */
std::string
memberString(const JsonValue *obj, const char *key)
{
    const JsonValue *v = member(obj, key);
    return v && v->kind() == JsonValue::Kind::String ? v->asString()
                                                     : "";
}

double
memberNumber(const JsonValue *obj, const char *key)
{
    const JsonValue *v = member(obj, key);
    return v && v->kind() == JsonValue::Kind::Number ? v->asNumber()
                                                     : 0.0;
}

/**
 * A count below `bound`; a negative number, or one at or past
 * `bound` (which would not fit the target type), reads as `fallback`.
 */
uint64_t
memberCount(const JsonValue *obj, const char *key,
            uint64_t fallback = 0, double bound = 0x1p64)
{
    const JsonValue *v = member(obj, key);
    if (!v || v->kind() != JsonValue::Kind::Number ||
        !(v->asNumber() >= 0.0 && v->asNumber() < bound))
        return fallback;
    return static_cast<uint64_t>(v->asNumber());
}

/** `threads` as an unsigned count. */
unsigned
memberThreads(const JsonValue *obj, uint64_t fallback)
{
    return static_cast<unsigned>(memberCount(
        obj, "threads", fallback,
        std::numeric_limits<unsigned>::max() + 1.0));
}

const std::vector<JsonValue> &
memberItems(const JsonValue *obj, const char *key)
{
    static const std::vector<JsonValue> none;
    const JsonValue *v = member(obj, key);
    return v && v->kind() == JsonValue::Kind::Array ? v->items()
                                                    : none;
}

std::vector<std::string>
memberStrings(const JsonValue *obj, const char *key)
{
    std::vector<std::string> out;
    for (const JsonValue &item : memberItems(obj, key)) {
        if (item.kind() == JsonValue::Kind::String)
            out.push_back(item.asString());
    }
    return out;
}

/**
 * The per-PDN rows of a report's "summaries.per_pdn" or an index
 * line's "summaries": both use the same keys (a report row's
 * nominal_energy_j is not indexed). Non-object items are skipped.
 */
std::vector<ArchivePdnSummary>
summaryRows(const std::vector<JsonValue> &rows)
{
    std::vector<ArchivePdnSummary> out;
    for (const JsonValue &s : rows) {
        if (s.kind() != JsonValue::Kind::Object)
            continue;
        out.push_back(
            {.pdn = memberString(&s, "pdn"),
             .cells = memberCount(&s, "cells"),
             .supplyEnergyJ = memberNumber(&s, "supply_energy_j"),
             .meanEtee = memberNumber(&s, "mean_etee"),
             .modeSwitches = memberCount(&s, "mode_switches"),
             .meanPowerW = memberNumber(&s, "mean_power_w"),
             .batteryLifeHours = memberNumber(&s, "battery_life_h")});
    }
    return out;
}

} // namespace

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

std::string
ResultArchive::storedCsvHash(const std::string &id) const
{
    if (!fs::exists(refPath(id)))
        return "";
    std::string hash = readFileBytes(refPath(id));
    while (!hash.empty() && (hash.back() == '\n' || hash.back() == '\r'))
        hash.pop_back();
    return hash;
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
    std::string id = fnv1a64Hex(reportText);
    // The projection is the schema check, so it runs before any
    // write.
    ArchiveEntry entry = entryFromReport(
        parseJson(reportText, "<report>"), id, "");

    // Same report bytes => same run: the archive is append-only and
    // the first ingest wins (a differing payload on a re-ingest
    // would mean the caller re-ran a provenance-identical study and
    // got different bytes — the report, not the archive, is the
    // identity). A crash between the report's rename and the index
    // append leaves a stored run unlisted; the re-ingest restores its
    // line from the stored ref.
    if (fs::exists(reportPath(id))) {
        if (!findRun(id)) {
            entry.csvHash = storedCsvHash(id);
            appendIndexLine(entry);
        }
        return id;
    }

    if (!csvBytes.empty()) {
        entry.csvHash = fnv1a64Hex(csvBytes);
        if (!fs::exists(payloadPath(entry.csvHash)))
            writeAtomically(payloadPath(entry.csvHash), csvBytes);
        writeAtomically(refPath(id), entry.csvHash + "\n");
    }
    // The report lands last: a run is archived iff its report file
    // exists, and by then its payload + ref are already durable.
    writeAtomically(reportPath(id), reportText);
    appendIndexLine(entry);
    return id;
}

std::vector<ArchiveEntry>
ResultArchive::entries() const
{
    std::vector<ArchiveEntry> out;
    std::unordered_set<std::string> seen;
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
        if (seen.insert(entry->id).second)
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
    std::string path = reportPath(id);
    return parseJson(readFileBytes(path), path);
}

std::string
ResultArchive::readCsv(const ArchiveEntry &entry) const
{
    if (entry.csvHash.empty())
        fatal(strprintf("run %s carries no CSV payload",
                        entry.id.c_str()));
    return readFileBytes(payloadPath(entry.csvHash));
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
        std::string text = readFileBytes(reportPath(id));
        JsonValue report = parseJson(text, reportPath(id));
        lines += writeJsonCompact(entryToJson(
            entryFromReport(report, id, storedCsvHash(id))));
        lines += '\n';
    }
    writeAtomically(indexPath(), lines);
}

ArchiveEntry
ResultArchive::entryFromReport(const JsonValue &report,
                               const std::string &id,
                               const std::string &csvHash)
{
    if (report.kind() != JsonValue::Kind::Object)
        fatal("run report is not a JSON object");
    if (memberString(&report, "schema") != runReportSchema)
        fatal(strprintf("not a %s document (schema member missing "
                        "or mismatched)",
                        runReportSchema));

    const JsonValue *tool = report.find("tool");
    const JsonValue *run = report.find("run");
    const JsonValue *spec = report.find("spec");
    ArchiveEntry entry;
    entry.id = id;
    entry.tool = memberString(tool, "name");
    entry.gitRev = memberString(tool, "git_rev");
    entry.specHash = memberString(spec, "content_hash");

    // Two runs share the trace chain digest iff they ran the same
    // named traces through the same transform chains.
    std::string chain;
    for (const JsonValue &t : memberItems(&report, "traces")) {
        if (t.kind() != JsonValue::Kind::Object)
            continue;
        entry.traces.push_back(memberString(&t, "name"));
        chain += entry.traces.back() + '=' +
                 memberString(&t, "provenance") + '\n';
    }
    entry.traceChain = fnv1a64Hex(chain);

    // Platform names from the spec echo: preset strings verbatim,
    // inline objects by "name", else "preset", else skipped.
    for (const JsonValue &p :
         memberItems(member(spec, "echo"), "platforms")) {
        if (p.kind() == JsonValue::Kind::String) {
            entry.platforms.push_back(p.asString());
            continue;
        }
        std::string name = memberString(&p, "name");
        if (name.empty())
            name = memberString(&p, "preset");
        if (!name.empty())
            entry.platforms.push_back(std::move(name));
    }

    entry.threads = memberThreads(run, 1);
    entry.shardIndex = memberCount(run, "shard_index", 1);
    entry.shardCount = memberCount(run, "shard_count", 1);
    entry.rows = memberCount(run, "rows");
    entry.wallSeconds = memberNumber(&report, "wall_time_s");
    entry.csvHash = csvHash;
    entry.summaries = summaryRows(
        memberItems(report.find("summaries"), "per_pdn"));
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
    ArchiveEntry entry;
    entry.id = memberString(&value, "id");
    if (entry.id.empty())
        return std::nullopt;
    entry.tool = memberString(&value, "tool");
    entry.gitRev = memberString(&value, "git_rev");
    entry.specHash = memberString(&value, "spec_hash");
    entry.traceChain = memberString(&value, "trace_chain");
    entry.traces = memberStrings(&value, "traces");
    entry.platforms = memberStrings(&value, "platforms");
    entry.threads = memberThreads(&value, 0);
    entry.shardIndex = memberCount(&value, "shard_index");
    entry.shardCount = memberCount(&value, "shard_count");
    entry.rows = memberCount(&value, "rows");
    entry.wallSeconds = memberNumber(&value, "wall_time_s");
    entry.csvHash = memberString(&value, "csv");
    entry.summaries = summaryRows(memberItems(&value, "summaries"));
    return entry;
}

} // namespace pdnspot
