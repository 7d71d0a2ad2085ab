#include "obs/metrics.hh"

#include <array>
#include <atomic>
#include <cmath>

#include "common/logging.hh"

namespace pdnspot
{

namespace
{

/** The installed registry; null while metrics collection is off. */
std::atomic<MetricsRegistry *> g_installed{nullptr};

struct WellKnownDef
{
    const char *name;
    MetricKind kind;
};

constexpr std::array<WellKnownDef,
                     static_cast<size_t>(Metric::Count)>
    wellKnown{{
        {"campaign.cells", MetricKind::Counter},
        {"campaign.chunks", MetricKind::Counter},
        {"campaign.phases", MetricKind::Counter},
        {"campaign.platform_builds", MetricKind::Counter},
        {"campaign.cell_us", MetricKind::Histogram},
        {"trace.resolves", MetricKind::Counter},
        {"trace.resolve_us", MetricKind::Histogram},
        {"sim.runs_static", MetricKind::Counter},
        {"sim.runs_pmu", MetricKind::Counter},
        {"sim.runs_oracle", MetricKind::Counter},
        {"runner.jobs", MetricKind::Counter},
        {"runner.chunks_claimed", MetricKind::Counter},
        {"runner.threads", MetricKind::Gauge},
    }};

} // namespace

const char *
toString(MetricKind kind)
{
    switch (kind) {
      case MetricKind::Counter:
        return "counter";
      case MetricKind::Gauge:
        return "gauge";
      case MetricKind::Histogram:
        return "histogram";
    }
    panic("toString: invalid MetricKind");
}

const char *
metricName(Metric metric)
{
    return wellKnown[static_cast<size_t>(metric)].name;
}

MetricKind
metricKind(Metric metric)
{
    return wellKnown[static_cast<size_t>(metric)].kind;
}

size_t
histogramBucketIndex(double value)
{
    if (!(value >= 1.0))
        return 0;
    int exp = std::ilogb(value);
    return std::min(MetricsRegistry::histogramBuckets - 1,
                    static_cast<size_t>(exp) + 1);
}

void
histogramObserve(MetricSnapshot &snapshot, double value)
{
    snapshot.kind = MetricKind::Histogram;
    if (snapshot.count == 0) {
        snapshot.min = snapshot.max = value;
    } else {
        if (value < snapshot.min)
            snapshot.min = value;
        if (value > snapshot.max)
            snapshot.max = value;
    }
    ++snapshot.count;
    snapshot.value += value;

    size_t bucket = histogramBucketIndex(value);
    if (snapshot.buckets.size() <= bucket)
        snapshot.buckets.resize(bucket + 1, 0);
    ++snapshot.buckets[bucket];
}

MetricsRegistry::MetricsRegistry()
{
    for (const WellKnownDef &def : wellKnown)
        registerMetric(def.name, def.kind);
}

MetricsRegistry::~MetricsRegistry()
{
    // Dying while installed would leave current() dangling for
    // concurrent threads.
    if (g_installed.load(std::memory_order_relaxed) == this)
        panic("MetricsRegistry destroyed while installed");
}

size_t
MetricsRegistry::registerMetric(const std::string &name,
                                MetricKind kind)
{
    std::lock_guard<std::mutex> lock(_mutex);
    for (size_t id = 0; id < _defs.size(); ++id) {
        if (_defs[id].name != name)
            continue;
        if (_defs[id].kind != kind)
            panic(strprintf("MetricsRegistry: metric \"%s\" "
                            "re-registered as %s (was %s)",
                            name.c_str(), toString(kind),
                            toString(_defs[id].kind)));
        return id;
    }

    MetricDef def;
    def.name = name;
    def.kind = kind;
    switch (kind) {
      case MetricKind::Counter:
        def.slot = _counters.size();
        _counters.push_back(0);
        break;
      case MetricKind::Gauge:
        def.slot = _gauges.size();
        _gauges.push_back(0.0);
        break;
      case MetricKind::Histogram:
        def.slot = _histograms.size();
        _histograms.emplace_back();
        break;
    }
    _defs.push_back(std::move(def));
    return _defs.size() - 1;
}

size_t
MetricsRegistry::metricCount() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _defs.size();
}

void
MetricsRegistry::add(size_t id, uint64_t n)
{
    std::lock_guard<std::mutex> lock(_mutex);
    if (id >= _defs.size() || _defs[id].kind != MetricKind::Counter)
        panic("MetricsRegistry::add: not a counter id");
    _counters[_defs[id].slot] += n;
}

void
MetricsRegistry::observe(size_t id, double value)
{
    std::lock_guard<std::mutex> lock(_mutex);
    if (id >= _defs.size() || _defs[id].kind != MetricKind::Histogram)
        panic("MetricsRegistry::observe: not a histogram id");
    histogramObserve(_histograms[_defs[id].slot], value);
}

void
MetricsRegistry::set(size_t id, double value)
{
    std::lock_guard<std::mutex> lock(_mutex);
    if (id >= _defs.size() || _defs[id].kind != MetricKind::Gauge)
        panic("MetricsRegistry::set: not a gauge id");
    _gauges[_defs[id].slot] = value;
}

MetricsRegistry *
MetricsRegistry::current()
{
    return g_installed.load(std::memory_order_relaxed);
}

std::vector<MetricSnapshot>
MetricsRegistry::snapshot() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    std::vector<MetricSnapshot> out;
    out.reserve(_defs.size());
    for (const MetricDef &def : _defs) {
        MetricSnapshot s;
        if (def.kind == MetricKind::Histogram)
            s = _histograms[def.slot];
        s.name = def.name;
        s.kind = def.kind;
        if (def.kind == MetricKind::Counter)
            s.count = _counters[def.slot];
        else if (def.kind == MetricKind::Gauge)
            s.value = _gauges[def.slot];
        out.push_back(std::move(s));
    }
    return out;
}

double
histogramQuantile(const MetricSnapshot &snapshot, double q)
{
    if (snapshot.kind != MetricKind::Histogram ||
        snapshot.count == 0 || snapshot.buckets.empty())
        return 0.0;
    if (q < 0.0)
        q = 0.0;
    if (q > 1.0)
        q = 1.0;

    double target = q * static_cast<double>(snapshot.count);
    uint64_t cumulative = 0;
    for (size_t b = 0; b < snapshot.buckets.size(); ++b) {
        uint64_t n = snapshot.buckets[b];
        if (n == 0)
            continue;
        if (static_cast<double>(cumulative + n) < target) {
            cumulative += n;
            continue;
        }
        double lo = b == 0 ? snapshot.min
                           : std::ldexp(1.0, static_cast<int>(b) - 1);
        double hi = b == 0 ? 1.0
                           : std::ldexp(1.0, static_cast<int>(b));
        double frac = (target - static_cast<double>(cumulative)) /
                      static_cast<double>(n);
        double value = lo + frac * (hi - lo);
        if (value < snapshot.min)
            return snapshot.min;
        if (value > snapshot.max)
            return snapshot.max;
        return value;
    }
    return snapshot.max;
}

uint64_t
MetricsRegistry::counterValue(size_t id) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    if (id >= _defs.size() || _defs[id].kind != MetricKind::Counter)
        panic("MetricsRegistry::counterValue: not a counter id");
    return _counters[_defs[id].slot];
}

MetricsInstallation::MetricsInstallation(MetricsRegistry &registry)
    : _previous(g_installed.load(std::memory_order_relaxed))
{
    g_installed.store(&registry, std::memory_order_relaxed);
}

MetricsInstallation::~MetricsInstallation()
{
    g_installed.store(_previous, std::memory_order_relaxed);
}

} // namespace pdnspot
