#include "obs/metrics.hh"

#include <atomic>
#include <cmath>

#include "common/logging.hh"

namespace pdnspot
{

namespace
{

/**
 * Process-wide installation state. The epoch increments on every
 * install/uninstall, so a thread buffer bound to an earlier epoch
 * detects staleness with one comparison — no dangling pointer is
 * ever dereferenced, because the buffer rebinding discards stale
 * contents before touching the (new) registry.
 */
std::atomic<MetricsRegistry *> g_installed{nullptr};
std::atomic<uint64_t> g_epoch{0};

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

/**
 * One thread's accumulation buffer: counter and histogram deltas
 * since the last flush, plus a copy of the id -> (kind, slot) map so
 * the hot add/observe path never takes the registry mutex. Bound to
 * one (registry, epoch) pair; a stale binding resets on next use.
 */
struct MetricsRegistry::ThreadBuffer
{
    MetricsRegistry *registry = nullptr;
    uint64_t epoch = 0;
    bool dirty = false;

    /** (kind, slot) per metric id, copied from the registry. */
    std::vector<std::pair<MetricKind, size_t>> defs;
    std::vector<uint64_t> counters;
    std::vector<HistogramCell> histograms;
};

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

void
MetricsRegistry::HistogramCell::observe(double value)
{
    if (count == 0) {
        min = max = value;
    } else {
        if (value < min)
            min = value;
        if (value > max)
            max = value;
    }
    ++count;
    sum += value;
    ++buckets[histogramBucketIndex(value)];
}

void
MetricsRegistry::HistogramCell::merge(const HistogramCell &other)
{
    if (other.count == 0)
        return;
    if (count == 0) {
        min = other.min;
        max = other.max;
    } else {
        if (other.min < min)
            min = other.min;
        if (other.max > max)
            max = other.max;
    }
    count += other.count;
    sum += other.sum;
    for (size_t b = 0; b < histogramBuckets; ++b)
        buckets[b] += other.buckets[b];
}

MetricsRegistry::MetricsRegistry()
{
    for (const WellKnownDef &def : wellKnown)
        registerMetric(def.name, def.kind);
}

MetricsRegistry::~MetricsRegistry()
{
    // Thread buffers never dereference a registry whose epoch they
    // were not bound under, so a registry may die while buffers
    // still name it — but dying while *installed* would leave
    // current() dangling for concurrent threads.
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

MetricsRegistry::ThreadBuffer &
MetricsRegistry::threadBuffer()
{
    thread_local ThreadBuffer buffer;
    return buffer;
}

void
MetricsRegistry::bind(ThreadBuffer &buffer, uint64_t epoch)
{
    // Stale contents belong to a detached installation (or an older
    // def map) and were either flushed already or are best-effort
    // losses; never merge them across epochs.
    buffer.registry = this;
    buffer.epoch = epoch;
    buffer.dirty = false;

    std::lock_guard<std::mutex> lock(_mutex);
    buffer.defs.clear();
    buffer.defs.reserve(_defs.size());
    for (const MetricDef &def : _defs)
        buffer.defs.emplace_back(def.kind, def.slot);
    buffer.counters.assign(_counters.size(), 0);
    buffer.histograms.assign(_histograms.size(), HistogramCell{});
}

void
MetricsRegistry::add(size_t id, uint64_t n)
{
    ThreadBuffer &buffer = threadBuffer();
    uint64_t epoch = g_epoch.load(std::memory_order_acquire);
    if (buffer.registry != this || buffer.epoch != epoch ||
        id >= buffer.defs.size())
        bind(buffer, epoch);
    if (id >= buffer.defs.size() ||
        buffer.defs[id].first != MetricKind::Counter)
        panic("MetricsRegistry::add: not a counter id");
    buffer.counters[buffer.defs[id].second] += n;
    buffer.dirty = true;
}

void
MetricsRegistry::observe(size_t id, double value)
{
    ThreadBuffer &buffer = threadBuffer();
    uint64_t epoch = g_epoch.load(std::memory_order_acquire);
    if (buffer.registry != this || buffer.epoch != epoch ||
        id >= buffer.defs.size())
        bind(buffer, epoch);
    if (id >= buffer.defs.size() ||
        buffer.defs[id].first != MetricKind::Histogram)
        panic("MetricsRegistry::observe: not a histogram id");
    buffer.histograms[buffer.defs[id].second].observe(value);
    buffer.dirty = true;
}

void
MetricsRegistry::set(size_t id, double value)
{
    // Gauges are set rarely (run shape, not per-cell activity):
    // write through so the value is visible without a flush.
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

void
MetricsRegistry::flushThread()
{
    MetricsRegistry *registry = current();
    if (!registry)
        return;
    ThreadBuffer &buffer = threadBuffer();
    if (!buffer.dirty || buffer.registry != registry ||
        buffer.epoch != g_epoch.load(std::memory_order_acquire))
        return;
    registry->mergeBuffer(buffer);
}

void
MetricsRegistry::mergeBuffer(ThreadBuffer &buffer)
{
    std::lock_guard<std::mutex> lock(_mutex);
    for (size_t s = 0; s < buffer.counters.size(); ++s)
        _counters[s] += buffer.counters[s];
    for (size_t s = 0; s < buffer.histograms.size(); ++s)
        _histograms[s].merge(buffer.histograms[s]);
    buffer.counters.assign(buffer.counters.size(), 0);
    buffer.histograms.assign(buffer.histograms.size(),
                             HistogramCell{});
    buffer.dirty = false;
}

std::vector<MetricSnapshot>
MetricsRegistry::snapshot() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    std::vector<MetricSnapshot> out;
    out.reserve(_defs.size());
    for (const MetricDef &def : _defs) {
        MetricSnapshot s;
        s.name = def.name;
        s.kind = def.kind;
        switch (def.kind) {
          case MetricKind::Counter:
            s.count = _counters[def.slot];
            break;
          case MetricKind::Gauge:
            s.value = _gauges[def.slot];
            break;
          case MetricKind::Histogram: {
            const HistogramCell &h = _histograms[def.slot];
            s.count = h.count;
            s.value = h.sum;
            s.min = h.min;
            s.max = h.max;
            size_t last = histogramBuckets;
            while (last > 0 && h.buckets[last - 1] == 0)
                --last;
            s.buckets.assign(h.buckets.begin(),
                             h.buckets.begin() +
                                 static_cast<ptrdiff_t>(last));
            break;
          }
        }
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
    _epoch = g_epoch.fetch_add(1, std::memory_order_acq_rel) + 1;
}

MetricsInstallation::~MetricsInstallation()
{
    g_installed.store(_previous, std::memory_order_relaxed);
    g_epoch.fetch_add(1, std::memory_order_acq_rel);
}

} // namespace pdnspot
