#include "workload/trace_generator.hh"

#include "common/logging.hh"

namespace pdnspot
{

std::string
generatorTraceName(TraceGeneratorKind kind, uint64_t seed)
{
    if (kind == TraceGeneratorKind::RandomMix)
        return strprintf("%s-%llu", nameOf(kind),
                         static_cast<unsigned long long>(seed));
    return nameOf(kind);
}

namespace
{

void
checkArRange(double ar_min, double ar_max)
{
    if (!(ar_min >= 0.0 && ar_min <= ar_max && ar_max <= 1.0))
        fatal(strprintf("TraceGenerator: AR range [%g, %g] must "
                        "satisfy 0 <= ar_min <= ar_max <= 1",
                        ar_min, ar_max));
}

} // namespace

PhaseTrace
TraceGenerator::burstyCompute(size_t bursts, Time burst_len,
                              Time idle_len, double ar_min,
                              double ar_max) const
{
    if (bursts == 0)
        fatal("TraceGenerator: at least one burst required");
    checkArRange(ar_min, ar_max);

    std::vector<TracePhase> phases;
    phases.reserve(bursts * 2);
    for (size_t i = 0; i < bursts; ++i) {
        TracePhase work;
        work.duration = burst_len * (0.5 + unit(i * 4 + 0));
        work.cstate = PackageCState::C0;
        work.type = unit(i * 4 + 1) < 0.5 ? WorkloadType::SingleThread
                                          : WorkloadType::MultiThread;
        work.ar = ar_min + (ar_max - ar_min) * unit(i * 4 + 2);
        phases.push_back(work);

        TracePhase idle;
        idle.duration = idle_len * (0.5 + unit(i * 4 + 3));
        idle.cstate = unit(i * 4 + 3) < 0.3 ? PackageCState::C2
                                            : PackageCState::C8;
        idle.type = WorkloadType::BatteryLife;
        idle.ar = 0.3;
        phases.push_back(idle);
    }
    return PhaseTrace(
        generatorTraceName(TraceGeneratorKind::BurstyCompute, _seed),
        std::move(phases));
}

PhaseTrace
TraceGenerator::dayInTheLife() const
{
    std::vector<TracePhase> phases;
    auto active = [&](Time d, WorkloadType t, double ar) {
        TracePhase p;
        p.duration = d;
        p.cstate = PackageCState::C0;
        p.type = t;
        p.ar = ar;
        phases.push_back(p);
    };
    auto idle = [&](Time d, PackageCState s) {
        TracePhase p;
        p.duration = d;
        p.cstate = s;
        p.type = WorkloadType::BatteryLife;
        p.ar = 0.3;
        phases.push_back(p);
    };

    // Morning email/browsing: light single-thread bursts with idles.
    for (int i = 0; i < 4; ++i) {
        active(milliseconds(40.0), WorkloadType::SingleThread,
               0.42 + 0.1 * unit(100 + i));
        idle(milliseconds(120.0), PackageCState::C8);
    }
    // A compile: sustained multi-thread at high AR.
    active(milliseconds(400.0), WorkloadType::MultiThread, 0.74);
    // Lunch-break standby.
    idle(milliseconds(300.0), PackageCState::C8);
    // Gaming session: graphics-heavy with brief CPU interludes.
    for (int i = 0; i < 3; ++i) {
        active(milliseconds(150.0), WorkloadType::Graphics,
               0.55 + 0.15 * unit(200 + i));
        active(milliseconds(30.0), WorkloadType::MultiThread, 0.6);
    }
    // Evening video playback frames: short active, long display-only.
    for (int i = 0; i < 6; ++i) {
        active(milliseconds(3.3), WorkloadType::BatteryLife, 0.3);
        idle(milliseconds(1.7), PackageCState::C2);
        idle(milliseconds(28.0), PackageCState::C8);
    }
    // Overnight standby.
    idle(milliseconds(500.0), PackageCState::C8);

    return PhaseTrace(
        generatorTraceName(TraceGeneratorKind::DayInTheLife, _seed),
        std::move(phases));
}

PhaseTrace
TraceGenerator::randomMix(size_t phases_count, Time mean_phase_len,
                          double ar_min, double ar_max) const
{
    if (phases_count == 0)
        fatal("TraceGenerator: at least one phase required");
    checkArRange(ar_min, ar_max);

    std::vector<TracePhase> phases;
    phases.reserve(phases_count);
    for (size_t i = 0; i < phases_count; ++i) {
        TracePhase p;
        p.duration = mean_phase_len * (0.25 + 1.5 * unit(i * 8 + 0));
        double kind = unit(i * 8 + 1);
        if (kind < 0.5) {
            p.cstate = PackageCState::C0;
            double t = unit(i * 8 + 2);
            p.type = t < 0.4   ? WorkloadType::SingleThread
                     : t < 0.8 ? WorkloadType::MultiThread
                               : WorkloadType::Graphics;
            p.ar = ar_min + (ar_max - ar_min) * unit(i * 8 + 3);
        } else {
            static constexpr PackageCState idle_states[] = {
                PackageCState::C0Min, PackageCState::C2,
                PackageCState::C3, PackageCState::C6,
                PackageCState::C7, PackageCState::C8,
            };
            p.cstate = idle_states[static_cast<size_t>(
                unit(i * 8 + 4) * 5.999)];
            p.type = WorkloadType::BatteryLife;
            p.ar = 0.3;
        }
        phases.push_back(p);
    }
    return PhaseTrace(
        generatorTraceName(TraceGeneratorKind::RandomMix, _seed),
        std::move(phases));
}

} // namespace pdnspot
