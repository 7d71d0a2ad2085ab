#include "obs/run_report.hh"

#include <cstdlib>
#include <unistd.h>

#include "common/logging.hh"
#include "common/units.hh"

namespace pdnspot
{

std::string
gitRevision()
{
    // Runtime env wins (the bench-JSON convention: CI stamps the rev
    // it checked out), then the configure-time stamp.
    if (const char *env = std::getenv("PDNSPOT_GIT_REV");
        env && *env)
        return env;
#ifdef PDNSPOT_BUILD_GIT_REV
    return PDNSPOT_BUILD_GIT_REV;
#else
    return "unknown";
#endif
}

std::string
toolVersion()
{
#ifdef PDNSPOT_VERSION
    return PDNSPOT_VERSION;
#else
    return "0.0.0";
#endif
}

std::string
hostName()
{
    char buf[256];
    if (gethostname(buf, sizeof(buf)) != 0)
        return "unknown";
    buf[sizeof(buf) - 1] = '\0';
    return buf;
}

std::string
fnv1a64Hex(const std::string &text)
{
    uint64_t hash = 0xcbf29ce484222325ull;
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 0x100000001b3ull;
    }
    char out[17];
    static const char digits[] = "0123456789abcdef";
    for (int i = 15; i >= 0; --i) {
        out[i] = digits[hash & 0xf];
        hash >>= 4;
    }
    out[16] = '\0';
    return out;
}

namespace
{

using Member = JsonValue::Member;

JsonValue
num(double v)
{
    return JsonValue::makeNumber(v);
}

JsonValue
num(uint64_t v)
{
    return JsonValue::makeNumber(static_cast<double>(v));
}

JsonValue
str(std::string v)
{
    return JsonValue::makeString(std::move(v));
}

JsonValue
metricJson(const MetricSnapshot &m)
{
    std::vector<Member> fields;
    fields.emplace_back("name", str(m.name));
    fields.emplace_back("kind", str(nameOf(m.kind)));
    switch (m.kind) {
      case MetricKind::Counter:
        fields.emplace_back("count", num(m.count));
        break;
      case MetricKind::Gauge:
        fields.emplace_back("value", num(m.value));
        break;
      case MetricKind::Histogram: {
        fields.emplace_back("count", num(m.count));
        fields.emplace_back("sum", num(m.value));
        fields.emplace_back("min", num(m.min));
        fields.emplace_back("max", num(m.max));
        fields.emplace_back("p50", num(histogramQuantile(m, 0.50)));
        fields.emplace_back("p95", num(histogramQuantile(m, 0.95)));
        fields.emplace_back("p99", num(histogramQuantile(m, 0.99)));
        std::vector<JsonValue> buckets;
        buckets.reserve(m.buckets.size());
        for (uint64_t b : m.buckets)
            buckets.push_back(num(b));
        fields.emplace_back(
            "buckets", JsonValue::makeArray(std::move(buckets)));
        break;
      }
    }
    return JsonValue::makeObject(std::move(fields));
}

JsonValue
summaryJson(const CampaignPdnSummary &s)
{
    std::vector<Member> fields;
    fields.emplace_back("pdn", str(toString(s.pdn)));
    fields.emplace_back("cells", num(s.cells));
    fields.emplace_back("supply_energy_j",
                        num(inJoules(s.supplyEnergy)));
    fields.emplace_back("nominal_energy_j",
                        num(inJoules(s.nominalEnergy)));
    fields.emplace_back("mean_etee", num(s.meanEtee()));
    fields.emplace_back("mode_switches", num(s.modeSwitches));
    fields.emplace_back("mean_power_w",
                        num(inWatts(s.meanAveragePower)));
    fields.emplace_back("battery_life_h", num(s.batteryLifeHours));
    return JsonValue::makeObject(std::move(fields));
}

} // namespace

JsonValue
buildRunReport(const RunReportInputs &in)
{
    if (in.toolName.empty())
        panic("buildRunReport: RunReportInputs::toolName is empty");
    std::vector<Member> doc;
    doc.emplace_back("schema", str(runReportSchema));

    std::vector<Member> tool;
    tool.emplace_back("name", str(in.toolName));
    tool.emplace_back("version", str(toolVersion()));
    tool.emplace_back("git_rev", str(gitRevision()));
    doc.emplace_back("tool", JsonValue::makeObject(std::move(tool)));

    doc.emplace_back("host", str(hostName()));
    doc.emplace_back("wall_time_s", num(in.wallSeconds));

    std::vector<Member> run;
    run.emplace_back("threads", num(size_t{in.threads}));
    run.emplace_back("shard_index", num(in.shardIndex));
    run.emplace_back("shard_count", num(in.shardCount));
    run.emplace_back("first_cell", num(in.firstCell));
    run.emplace_back("end_cell", num(in.endCell));
    run.emplace_back("rows", num(in.rows));
    doc.emplace_back("run", JsonValue::makeObject(std::move(run)));

    std::vector<Member> spec;
    spec.emplace_back("path", str(in.specPath));
    spec.emplace_back("content_hash",
                      str("fnv1a64:" + fnv1a64Hex(in.specText)));
    spec.emplace_back("echo", in.specEcho);
    doc.emplace_back("spec", JsonValue::makeObject(std::move(spec)));

    if (in.spec) {
        std::vector<JsonValue> traces;
        traces.reserve(in.spec->traces.size());
        for (const TraceSpec &t : in.spec->traces) {
            std::vector<Member> fields;
            fields.emplace_back("name", str(t.name()));
            fields.emplace_back("provenance", str(t.describe()));
            traces.push_back(
                JsonValue::makeObject(std::move(fields)));
        }
        doc.emplace_back("traces",
                         JsonValue::makeArray(std::move(traces)));
    }

    if (in.metrics) {
        std::vector<JsonValue> metrics;
        for (const MetricSnapshot &m : in.metrics->snapshot())
            metrics.push_back(metricJson(m));
        doc.emplace_back("metrics",
                         JsonValue::makeArray(std::move(metrics)));
    }

    if (!in.summaries.empty()) {
        std::vector<Member> block;
        block.emplace_back("battery_wh", num(in.batteryWh));
        std::vector<JsonValue> per;
        per.reserve(in.summaries.size());
        for (const CampaignPdnSummary &s : in.summaries)
            per.push_back(summaryJson(s));
        block.emplace_back("per_pdn",
                           JsonValue::makeArray(std::move(per)));
        doc.emplace_back("summaries",
                         JsonValue::makeObject(std::move(block)));
    }

    for (const Member &m : in.extra)
        doc.push_back(m);

    return JsonValue::makeObject(std::move(doc));
}

namespace
{

/** Replace object member `key` (if present) with `value`. */
JsonValue
withMember(const JsonValue &object, const std::string &key,
           JsonValue value)
{
    std::vector<Member> out;
    for (const Member &m : object.members()) {
        if (m.first == key)
            out.emplace_back(m.first, std::move(value));
        else
            out.push_back(m);
    }
    return JsonValue::makeObject(std::move(out));
}

JsonValue
canonicalMetric(const JsonValue &metric)
{
    const JsonValue *kind = metric.find("kind");
    if (!kind || kind->asString() != nameOf(MetricKind::Histogram))
        return metric;
    JsonValue out = metric;
    out = withMember(out, "sum", JsonValue::makeNumber(0.0));
    out = withMember(out, "min", JsonValue::makeNumber(0.0));
    out = withMember(out, "max", JsonValue::makeNumber(0.0));
    out = withMember(out, "p50", JsonValue::makeNumber(0.0));
    out = withMember(out, "p95", JsonValue::makeNumber(0.0));
    out = withMember(out, "p99", JsonValue::makeNumber(0.0));
    out = withMember(out, "buckets", JsonValue::makeArray({}));
    return out;
}

} // namespace

JsonValue
canonicalizeRunReport(const JsonValue &report)
{
    JsonValue out = report;
    out = withMember(out, "host", JsonValue::makeString("HOST"));
    out = withMember(out, "wall_time_s",
                     JsonValue::makeNumber(0.0));

    if (const JsonValue *tool = report.find("tool")) {
        JsonValue t = *tool;
        t = withMember(t, "version",
                       JsonValue::makeString("VERSION"));
        t = withMember(t, "git_rev",
                       JsonValue::makeString("GITREV"));
        out = withMember(out, "tool", std::move(t));
    }

    if (const JsonValue *spec = report.find("spec"))
        out = withMember(
            out, "spec",
            withMember(*spec, "path",
                       JsonValue::makeString("SPEC")));

    if (const JsonValue *metrics = report.find("metrics")) {
        std::vector<JsonValue> canon;
        canon.reserve(metrics->items().size());
        for (const JsonValue &m : metrics->items())
            canon.push_back(canonicalMetric(m));
        out = withMember(out, "metrics",
                         JsonValue::makeArray(std::move(canon)));
    }

    return out;
}

} // namespace pdnspot
