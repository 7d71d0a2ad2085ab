#include "workload/trace_source.hh"

#include <chrono>

#include "common/csv.hh"
#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/span_trace.hh"
#include "workload/battery_profiles.hh"
#include "workload/trace_generator.hh"
#include "workload/trace_io.hh"
#include "workload/trace_library.hh"

namespace pdnspot
{

const std::vector<std::string> &
traceGeneratorKinds()
{
    static const std::vector<std::string> kinds = {
        "bursty-compute", "day-in-the-life", "random-mix"};
    return kinds;
}

namespace
{

bool
knownGeneratorKind(const std::string &kind)
{
    for (const std::string &k : traceGeneratorKinds()) {
        if (kind == k)
            return true;
    }
    return false;
}

/** The name a generator spec's trace will carry (before rename). */
std::string
generatorTraceName(const TraceGeneratorSpec &params)
{
    if (params.kind == "random-mix")
        return strprintf("random-mix-%llu",
                         static_cast<unsigned long long>(
                             params.seed));
    return params.kind;
}

} // namespace

TraceSpec::TraceSpec(PhaseTrace trace)
    : _kind(Kind::Inline), _name(trace.name()),
      _inline(std::move(trace))
{}

TraceSpec
TraceSpec::library(std::string traceName, uint64_t seed)
{
    TraceSpec spec;
    spec._kind = Kind::Library;
    spec._name = traceName;
    spec._ref = std::move(traceName);
    spec._seed = seed;
    return spec;
}

TraceSpec
TraceSpec::generator(TraceGeneratorSpec params)
{
    TraceSpec spec;
    spec._kind = Kind::Generator;
    spec._name = generatorTraceName(params);
    spec._params = std::move(params);
    return spec;
}

TraceSpec
TraceSpec::profile(std::string profileName, Time framePeriod,
                   size_t frames)
{
    TraceSpec spec;
    spec._kind = Kind::Profile;
    spec._name = profileName + "-trace";
    spec._ref = std::move(profileName);
    spec._framePeriod = framePeriod;
    spec._frames = frames;
    return spec;
}

TraceSpec
TraceSpec::file(std::string path)
{
    TraceSpec spec;
    spec._kind = Kind::File;
    spec._name = traceFileStem(path);
    spec._path = std::move(path);
    return spec;
}

TraceSpec &
TraceSpec::rename(std::string name)
{
    _name = std::move(name);
    return *this;
}

TraceSpec &
TraceSpec::tick(Time tick)
{
    _tick = tick;
    return *this;
}

TraceSpec &
TraceSpec::transform(TraceTransform step)
{
    _transforms.push_back(std::move(step));
    return *this;
}

PhaseTrace
TraceSpec::resolve() const
{
    SpanScope span("trace.resolve", "trace");
    // The resolve timer costs two clock reads; pay them only while
    // a registry is collecting.
    const bool timed = MetricsRegistry::current() != nullptr;
    std::chrono::steady_clock::time_point start;
    if (timed)
        start = std::chrono::steady_clock::now();

    validate();

    PhaseTrace t;
    switch (_kind) {
      case Kind::Inline:
        t = _inline;
        break;
      case Kind::Library:
        t = standardCampaignTraces(_seed).get(_ref);
        break;
      case Kind::Generator: {
        TraceGenerator gen(_params.seed);
        if (_params.kind == "bursty-compute") {
            t = gen.burstyCompute(_params.bursts, _params.burstLen,
                                  _params.idleLen, _params.arMin,
                                  _params.arMax);
        } else if (_params.kind == "day-in-the-life") {
            t = gen.dayInTheLife();
        } else {
            t = gen.randomMix(_params.phases, _params.meanPhaseLen,
                              _params.arMin, _params.arMax);
        }
        break;
      }
      case Kind::Profile:
        t = traceFromBatteryProfile(batteryProfileByName(_ref),
                                    _framePeriod, _frames);
        break;
      case Kind::File:
        t = readTraceFile(_path, _name);
        break;
    }
    for (const TraceTransform &step : _transforms)
        t = step.apply(t);
    // The resolved trace must answer to the declared cell address,
    // whatever name its source baked in.
    if (t.name() != _name)
        t = PhaseTrace(_name, t.phases());

    metricAdd(Metric::TraceResolves);
    if (timed) {
        std::chrono::duration<double, std::micro> us =
            std::chrono::steady_clock::now() - start;
        metricObserve(Metric::TraceResolveMicros, us.count());
    }
    return t;
}

std::string
TraceSpec::describe() const
{
    std::string d;
    switch (_kind) {
      case Kind::Inline:
        d = strprintf("inline (%zu phases)",
                      _inline.phases().size());
        break;
      case Kind::Library:
        d = strprintf("library \"%s\" (seed %llu)", _ref.c_str(),
                      static_cast<unsigned long long>(_seed));
        break;
      case Kind::Generator:
        d = strprintf("generator \"%s\" (seed %llu)",
                      _params.kind.c_str(),
                      static_cast<unsigned long long>(_params.seed));
        break;
      case Kind::Profile:
        d = strprintf("profile \"%s\" (%zu frames of %g ms)",
                      _ref.c_str(), _frames,
                      inMilliseconds(_framePeriod));
        break;
      case Kind::File:
        d = strprintf("file \"%s\"", _path.c_str());
        break;
    }
    for (const TraceTransform &step : _transforms)
        d += " | " + step.describe();
    if (_tick)
        d += strprintf(", tick %g us", inMicroseconds(*_tick));
    return d;
}

void
TraceSpec::validate() const
{
    if (_name.empty())
        fatal("TraceSpec: unnamed trace");
    if (!csvFieldSafe(_name))
        fatal(strprintf("TraceSpec: name \"%s\" contains CSV "
                        "metacharacters",
                        _name.c_str()));
    if (_tick && *_tick <= seconds(0.0))
        fatal(strprintf("TraceSpec \"%s\": non-positive tick "
                        "override",
                        _name.c_str()));

    switch (_kind) {
      case Kind::Inline:
        if (_inline.phases().empty())
            fatal(strprintf("TraceSpec \"%s\": inline trace has no "
                            "phases",
                            _name.c_str()));
        break;
      case Kind::Library:
        break;
      case Kind::Generator:
        if (!knownGeneratorKind(_params.kind)) {
            fatal(strprintf(
                "TraceSpec \"%s\": unknown generator kind \"%s\" "
                "(expected one of %s)",
                _name.c_str(), _params.kind.c_str(),
                joinStrings(traceGeneratorKinds()).c_str()));
        }
        if (!(_params.arMin >= 0.0 &&
              _params.arMin <= _params.arMax &&
              _params.arMax <= 1.0))
            fatal(strprintf("TraceSpec \"%s\": AR range [%g, %g] "
                            "must satisfy 0 <= ar_min <= ar_max "
                            "<= 1",
                            _name.c_str(), _params.arMin,
                            _params.arMax));
        if (_params.kind == "bursty-compute" &&
            (_params.bursts == 0 ||
             _params.burstLen <= seconds(0.0) ||
             _params.idleLen <= seconds(0.0)))
            fatal(strprintf("TraceSpec \"%s\": bursty-compute needs "
                            "a positive burst count and positive "
                            "burst/idle lengths",
                            _name.c_str()));
        if (_params.kind == "random-mix" &&
            (_params.phases == 0 ||
             _params.meanPhaseLen <= seconds(0.0)))
            fatal(strprintf("TraceSpec \"%s\": random-mix needs a "
                            "positive phase count and mean phase "
                            "length",
                            _name.c_str()));
        break;
      case Kind::Profile:
        if (_frames == 0 || _framePeriod <= seconds(0.0))
            fatal(strprintf("TraceSpec \"%s\": profile expansion "
                            "needs a positive frame count and frame "
                            "period",
                            _name.c_str()));
        break;
      case Kind::File:
        if (_path.empty())
            fatal(strprintf("TraceSpec \"%s\": empty trace file "
                            "path",
                            _name.c_str()));
        break;
    }

    for (const TraceTransform &step : _transforms)
        step.validate(_name);
}

} // namespace pdnspot
