#include "bench/trajectory.hh"

#include <map>
#include <utility>

#include "common/logging.hh"

namespace pdnspot
{

namespace
{

/**
 * Canonical unit for the counter metrics the bench binaries emit
 * today, or nullptr for metrics not named here. A time-per-item
 * counter missing from this table gets stored as "count" and is
 * then judged HigherIsBetter — i.e. a speedup reads as a
 * regression — so every bench_* counter must be listed.
 */
const std::string *
canonicalMetricUnit(const std::string &metric)
{
    static const std::map<std::string, std::string> units = {
        {"cells_per_sec", "cells/s"},
        {"points_per_sec", "points/s"},
        {"sessions_per_sec", "sessions/s"},
        {"ns_per_phase", "ns/phase"},
        {"ns_per_session_bucket", "ns/session"},
    };
    auto it = units.find(metric);
    return it != units.end() ? &it->second : nullptr;
}

} // namespace

std::string
benchMetricUnit(const std::string &metric)
{
    const std::string *unit = canonicalMetricUnit(metric);
    return unit ? *unit : "count";
}

std::string
writeBenchJson(const std::vector<BenchRecord> &records)
{
    std::vector<JsonValue> items;
    items.reserve(records.size());
    for (const BenchRecord &r : records) {
        items.push_back(JsonValue::makeObject({
            {"benchmark", JsonValue::makeString(r.benchmark)},
            {"metric", JsonValue::makeString(r.metric)},
            {"value", JsonValue::makeNumber(r.value)},
            {"unit", JsonValue::makeString(r.unit)},
            {"git_rev", JsonValue::makeString(r.gitRev)},
            {"threads",
             JsonValue::makeNumber(static_cast<double>(r.threads))},
        }));
    }
    JsonValue doc = JsonValue::makeObject({
        {"schema", JsonValue::makeString(benchSchemaVersion)},
        {"records", JsonValue::makeArray(std::move(items))},
    });
    return writeJson(doc);
}

namespace
{

const JsonValue &
requireMember(const JsonValue &object, const char *key)
{
    const JsonValue *member = object.find(key);
    if (!member)
        object.fail(strprintf("bench record is missing \"%s\"",
                              key));
    return *member;
}

} // namespace

std::vector<BenchRecord>
parseBenchJson(const JsonValue &doc)
{
    const JsonValue &schema = requireMember(doc, "schema");
    if (schema.asString() != benchSchemaVersion)
        schema.fail(strprintf("unsupported bench schema \"%s\" "
                              "(expected \"%s\")",
                              schema.asString().c_str(),
                              benchSchemaVersion));

    std::vector<BenchRecord> records;
    for (const JsonValue &item :
         requireMember(doc, "records").items()) {
        BenchRecord r;
        r.benchmark = requireMember(item, "benchmark").asString();
        r.metric = requireMember(item, "metric").asString();
        r.value = requireMember(item, "value").asNumber();
        r.unit = requireMember(item, "unit").asString();
        r.gitRev = requireMember(item, "git_rev").asString();
        r.threads = static_cast<unsigned>(
            requireMember(item, "threads")
                .asInteger("threads", 1, 1 << 20));
        records.push_back(std::move(r));
    }
    return records;
}

std::vector<BenchRecord>
readBenchJsonFile(const std::string &path)
{
    return parseBenchJson(parseJsonFile(path));
}

MetricDirection
directionForUnit(const std::string &unit)
{
    std::string base = unit.substr(0, unit.find('/'));
    if (base == "ns" || base == "us" || base == "ms" || base == "s")
        return MetricDirection::LowerIsBetter;
    return MetricDirection::HigherIsBetter;
}

const char *
toString(BenchVerdict verdict)
{
    switch (verdict) {
      case BenchVerdict::Improved:
        return "improved";
      case BenchVerdict::Flat:
        return "flat";
      case BenchVerdict::SmallRegression:
        return "SMALL REGRESSION";
      case BenchVerdict::BigRegression:
        return "BIG REGRESSION";
      case BenchVerdict::Missing:
        return "MISSING";
    }
    return "?";
}

std::vector<BenchDelta>
diffBenchRecords(const std::vector<BenchRecord> &oldRecords,
                 const std::vector<BenchRecord> &newRecords,
                 double warnPct, double failPct)
{
    std::map<std::pair<std::string, std::string>,
             const BenchRecord *>
        byKey;
    for (const BenchRecord &r : newRecords)
        byKey.emplace(std::make_pair(r.benchmark, r.metric), &r);

    std::vector<BenchDelta> deltas;
    deltas.reserve(oldRecords.size());
    for (const BenchRecord &old : oldRecords) {
        BenchDelta d;
        d.benchmark = old.benchmark;
        d.metric = old.metric;
        d.unit = old.unit;
        d.oldValue = old.value;

        auto it =
            byKey.find(std::make_pair(old.benchmark, old.metric));
        if (it == byKey.end()) {
            d.verdict = BenchVerdict::Missing;
            deltas.push_back(std::move(d));
            continue;
        }
        d.newValue = it->second->value;

        // Direction comes from the metric's canonical unit when the
        // metric is known, so snapshots written before a counter
        // entered the unit table (stamped "count") are still judged
        // the right way round; the stored unit decides only for
        // metrics the table has never named.
        const std::string *canon = canonicalMetricUnit(old.metric);
        bool higherBetter = directionForUnit(canon ? *canon
                                                   : old.unit) ==
                            MetricDirection::HigherIsBetter;

        // Signed change toward "worse". A zero baseline cannot carry
        // a percentage: any movement off it counts as a full-scale
        // (100%) change in the direction it moved.
        double worse;
        if (old.value != 0.0) {
            worse = (d.newValue - d.oldValue) / old.value * 100.0;
            if (higherBetter)
                worse = -worse;
        } else if (d.newValue == 0.0) {
            worse = 0.0;
        } else {
            bool grew = d.newValue > 0.0;
            worse = grew == higherBetter ? -100.0 : 100.0;
        }
        d.regressionPct = worse;

        if (worse > failPct)
            d.verdict = BenchVerdict::BigRegression;
        else if (worse > warnPct)
            d.verdict = BenchVerdict::SmallRegression;
        else if (worse < -warnPct)
            d.verdict = BenchVerdict::Improved;
        else
            d.verdict = BenchVerdict::Flat;
        deltas.push_back(std::move(d));
    }
    return deltas;
}

} // namespace pdnspot
