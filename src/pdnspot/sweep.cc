#include "pdnspot/sweep.hh"

#include <istream>
#include <locale>
#include <sstream>
#include <utility>

#include "common/csv.hh"
#include "common/logging.hh"
#include "pdnspot/experiments.hh"

namespace pdnspot
{

void
SweepResult::writeCsv(std::ostream &os) const
{
    // Format through a classic-locale buffer so the CSV always uses
    // '.' decimal points and no digit grouping, regardless of the
    // caller's stream or global locale.
    std::ostringstream buf;
    buf.imbue(std::locale::classic());

    buf << xLabel;
    for (const SweepSeries &s : series)
        buf << "," << s.label;
    buf << "\n";
    if (series.empty()) {
        os << buf.str();
        return;
    }
    size_t n = series.front().points.size();
    for (const SweepSeries &s : series) {
        if (s.points.size() != n)
            panic("SweepResult: ragged series");
    }
    for (size_t i = 0; i < n; ++i) {
        buf << series.front().points[i].first;
        for (const SweepSeries &s : series)
            buf << "," << s.points[i].second;
        buf << "\n";
    }
    os << buf.str();
}

SweepResult
SweepResult::readCsv(std::istream &is)
{
    std::string line;
    if (!std::getline(is, line))
        fatal("SweepResult::readCsv: empty input");

    std::vector<std::string> header = splitCsvLine(line);
    SweepResult r;
    r.xLabel = header.front();
    for (size_t s = 1; s < header.size(); ++s)
        r.series.push_back({header[s], {}});

    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        std::vector<std::string> fields = splitCsvLine(line);
        if (fields.size() != header.size())
            fatal(strprintf("SweepResult::readCsv: row has %zu "
                            "columns, header has %zu",
                            fields.size(), header.size()));
        double x = csvToDouble(fields[0]);
        for (size_t s = 1; s < fields.size(); ++s)
            r.series[s - 1].points.emplace_back(
                x, csvToDouble(fields[s]));
    }
    return r;
}

SweepEngine::SweepEngine(const Platform &platform,
                         const ParallelRunner &runner)
    : _platform(platform), _runner(runner)
{}

double
SweepEngine::eteeAt(PdnKind kind, Power tdp, WorkloadType type,
                    double ar, PackageCState cstate) const
{
    OperatingPointModel::Query q;
    q.tdp = tdp;
    q.type = type;
    q.ar = ar;
    q.cstate = cstate;
    return _platform.pdn(kind)
        .evaluate(_platform.operatingPoints().build(q))
        .etee();
}

SweepResult
SweepEngine::sweep(std::string xLabel, std::string yLabel,
                   const std::vector<double> &xs,
                   const std::vector<PdnKind> &kinds,
                   const std::function<double(PdnKind, double)> &eval)
    const
{
    if (xs.empty() || kinds.empty())
        fatal("SweepEngine: empty sweep requested");

    // Flatten kind × point into one task list, claimed in chunked
    // ranges; each result lands at its own index, so assembly order
    // never depends on scheduling or the grain.
    size_t nx = xs.size();
    size_t total = kinds.size() * nx;
    std::vector<double> ys = _runner.map<double>(
        total,
        [&](size_t t) { return eval(kinds[t / nx], xs[t % nx]); },
        _runner.suggestedGrain(total));

    SweepResult r;
    r.xLabel = std::move(xLabel);
    r.yLabel = std::move(yLabel);
    for (size_t k = 0; k < kinds.size(); ++k) {
        SweepSeries s;
        s.label = toString(kinds[k]);
        for (size_t i = 0; i < nx; ++i)
            s.points.emplace_back(xs[i], ys[k * nx + i]);
        r.series.push_back(std::move(s));
    }
    return r;
}

SweepResult
SweepEngine::eteeVsAr(Power tdp, WorkloadType type,
                      const std::vector<double> &ars,
                      const std::vector<PdnKind> &kinds) const
{
    return sweep("AR", "ETEE", ars, kinds,
                 [&](PdnKind kind, double ar) {
                     return eteeAt(kind, tdp, type, ar,
                                   PackageCState::C0);
                 });
}

SweepResult
SweepEngine::eteeVsTdp(WorkloadType type, double ar,
                       const std::vector<double> &tdps_w,
                       const std::vector<PdnKind> &kinds) const
{
    return sweep("TDP_W", "ETEE", tdps_w, kinds,
                 [&](PdnKind kind, double tdp) {
                     return eteeAt(kind, watts(tdp), type, ar,
                                   PackageCState::C0);
                 });
}

SweepResult
SweepEngine::eteeVsCState(const std::vector<PdnKind> &kinds) const
{
    std::vector<double> indices;
    for (size_t i = 0; i < batteryLifeCStates.size(); ++i)
        indices.push_back(static_cast<double>(i));
    return sweep("cstate_index", "ETEE", indices, kinds,
                 [&](PdnKind kind, double idx) {
                     return eteeAt(kind, watts(15.0),
                                   WorkloadType::BatteryLife, 0.3,
                                   batteryLifeCStates[static_cast<
                                       size_t>(idx)]);
                 });
}

SweepResult
SweepEngine::bomVsTdp(const std::vector<double> &tdps_w,
                      const std::vector<PdnKind> &kinds) const
{
    return sweep("TDP_W", "BOM_vs_IVR", tdps_w, kinds,
                 [&](PdnKind kind, double tdp) {
                     return normalizedBom(_platform, kind,
                                          watts(tdp));
                 });
}

SweepResult
SweepEngine::areaVsTdp(const std::vector<double> &tdps_w,
                       const std::vector<PdnKind> &kinds) const
{
    return sweep("TDP_W", "area_vs_IVR", tdps_w, kinds,
                 [&](PdnKind kind, double tdp) {
                     return normalizedArea(_platform, kind,
                                           watts(tdp));
                 });
}

} // namespace pdnspot
