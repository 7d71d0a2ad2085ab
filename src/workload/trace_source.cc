#include "workload/trace_source.hh"

#include <chrono>

#include "common/csv.hh"
#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/span_trace.hh"
#include "workload/battery_profiles.hh"
#include "workload/trace_generator.hh"
#include "workload/trace_io.hh"

namespace pdnspot
{

namespace
{

/** The standard corpus at `seed`: each entry's base spec, in order. */
std::vector<TraceSpec>
corpusBases(uint64_t seed)
{
    TraceGeneratorSpec params;
    params.seed = seed;
    params.kind = TraceGeneratorKind::BurstyCompute;
    std::vector<TraceSpec> out = {TraceSpec::generator(params)};
    params.kind = TraceGeneratorKind::DayInTheLife;
    out.push_back(TraceSpec::generator(params));
    // random-mix names carry their seed, keeping the three distinct.
    params.kind = TraceGeneratorKind::RandomMix;
    for (uint64_t s = 0; s < 3; ++s) {
        params.seed = seed + s;
        out.push_back(TraceSpec::generator(params));
    }
    for (const BatteryProfile &profile : batteryLifeWorkloads())
        out.push_back(TraceSpec::profile(profile.name));
    return out;
}

} // namespace

std::vector<TraceSpec>
standardCampaignTraces(uint64_t seed)
{
    std::vector<TraceSpec> out;
    for (const TraceSpec &entry : corpusBases(seed))
        out.push_back(TraceSpec::library(entry.name(), seed));
    return out;
}

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
    spec._name = generatorTraceName(params.kind, params.seed);
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

    PhaseTrace t = base();
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

PhaseTrace
TraceSpec::base() const
{
    switch (_kind) {
      case Kind::Inline:
        return _inline;
      case Kind::Library: {
        std::vector<TraceSpec> corpus = corpusBases(_seed);
        return parseName(corpus, _ref, "library trace").base();
      }
      case Kind::Generator: {
        TraceGenerator gen(_params.seed);
        switch (_params.kind) {
          case TraceGeneratorKind::BurstyCompute:
            return gen.burstyCompute(_params.bursts, _params.burstLen,
                                     _params.idleLen, _params.arMin,
                                     _params.arMax);
          case TraceGeneratorKind::DayInTheLife:
            return gen.dayInTheLife();
          case TraceGeneratorKind::RandomMix:
            return gen.randomMix(_params.phases, _params.meanPhaseLen,
                                 _params.arMin, _params.arMax);
        }
        break;
      }
      case Kind::Profile:
        return traceFromBatteryProfile(batteryProfileByName(_ref),
                                       _framePeriod, _frames);
      case Kind::File:
        return readTraceFile(_path, _name);
    }
    panic("TraceSpec: unknown kind");
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
                      nameOf(_params.kind),
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
        if (!(_params.arMin >= 0.0 &&
              _params.arMin <= _params.arMax &&
              _params.arMax <= 1.0))
            fatal(strprintf("TraceSpec \"%s\": AR range [%g, %g] "
                            "must satisfy 0 <= ar_min <= ar_max "
                            "<= 1",
                            _name.c_str(), _params.arMin,
                            _params.arMax));
        if (_params.kind == TraceGeneratorKind::BurstyCompute &&
            (_params.bursts == 0 ||
             _params.burstLen <= seconds(0.0) ||
             _params.idleLen <= seconds(0.0)))
            fatal(strprintf("TraceSpec \"%s\": bursty-compute needs "
                            "a positive burst count and positive "
                            "burst/idle lengths",
                            _name.c_str()));
        if (_params.kind == TraceGeneratorKind::RandomMix &&
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
