#include "pdnspot/validation.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace pdnspot
{

ValidationHarness::ValidationHarness(const Platform &platform,
                                     uint64_t seed,
                                     double noise_amplitude)
    : _platform(platform), _noise(seed),
      _noiseAmplitude(noise_amplitude)
{
    if (noise_amplitude < 0.0 || noise_amplitude >= 0.2)
        fatal("ValidationHarness: implausible noise amplitude");
}

std::vector<ValidationTrace>
ValidationHarness::makeTraceSet(size_t count) const
{
    if (count == 0)
        fatal("ValidationHarness: empty trace set requested");

    static constexpr std::array<WorkloadType, 3> types = {
        WorkloadType::SingleThread, WorkloadType::MultiThread,
        WorkloadType::Graphics,
    };
    static constexpr std::array<double, 7> tdps = {4, 8, 10, 18,
                                                   25, 36, 50};

    std::vector<ValidationTrace> set;
    set.reserve(count);
    size_t i = 0;
    // ~10% of traces cover the battery-life power states (Fig. 4j).
    size_t cstate_count = std::max<size_t>(1, count / 10);
    while (set.size() + cstate_count < count) {
        ValidationTrace t;
        t.type = types[i % types.size()];
        t.tdp = watts(tdps[(i / types.size()) % tdps.size()]);
        t.ar = 0.40 + 0.40 * _noise.unit(i);
        t.name = strprintf("%s-%.0fW-ar%02.0f-%zu",
                           nameOf(t.type), inWatts(t.tdp),
                           t.ar * 100.0, i);
        set.push_back(std::move(t));
        ++i;
    }
    size_t j = 0;
    while (set.size() < count) {
        ValidationTrace t;
        t.cstate =
            batteryLifeCStates[j % batteryLifeCStates.size()];
        t.type = WorkloadType::BatteryLife;
        t.ar = 0.30;
        t.tdp = watts(tdps[j % tdps.size()]);
        t.name = strprintf("cstate-%s-%zu",
                           nameOf(t.cstate), j);
        set.push_back(std::move(t));
        ++j;
    }
    return set;
}

double
ValidationHarness::predictedEtee(const PdnModel &pdn,
                                 const ValidationTrace &trace) const
{
    OperatingPointModel::Query q;
    q.tdp = trace.tdp;
    q.type = trace.type;
    q.ar = trace.ar;
    q.cstate = trace.cstate;
    return pdn.evaluate(_platform.operatingPoints().build(q)).etee();
}

double
ValidationHarness::measuredEtee(const PdnModel &pdn,
                                const ValidationTrace &trace) const
{
    double predicted = predictedEtee(pdn, trace);
    double eps =
        _noiseAmplitude * _noise.signedUnit(pdn.name() + trace.name);
    return predicted * (1.0 + eps);
}

ValidationStats
ValidationHarness::validate(const PdnModel &pdn,
                            const std::vector<ValidationTrace> &set,
                            const ParallelRunner &runner) const
{
    if (set.empty())
        fatal("ValidationHarness: empty validation set");

    std::vector<double> accuracies =
        runner.map<double>(set.size(), [&](size_t i) {
            double predicted = predictedEtee(pdn, set[i]);
            double measured = measuredEtee(pdn, set[i]);
            return 1.0 - std::abs(measured - predicted) / measured;
        });

    ValidationStats stats;
    double sum = 0.0;
    for (double accuracy : accuracies) {
        sum += accuracy;
        stats.minAccuracy = std::min(stats.minAccuracy, accuracy);
        stats.maxAccuracy = std::max(stats.maxAccuracy, accuracy);
    }
    stats.traces = set.size();
    stats.avgAccuracy = sum / static_cast<double>(set.size());
    return stats;
}

} // namespace pdnspot
