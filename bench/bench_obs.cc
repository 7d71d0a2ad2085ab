/**
 * @file
 * Micro-benchmarks for the observability layer's zero-overhead
 * contracts: metricAdd and SpanScope with no registry/recorder
 * installed (one relaxed load + branch) vs installed, SignalProbe
 * frame ingestion, and the end-to-end simulator cost of running
 * probed vs unprobed.
 */

#include "bench_util.hh"

#include <chrono>

#include "obs/metrics.hh"
#include "obs/probe.hh"
#include "obs/span_trace.hh"
#include "sim/interval_simulator.hh"
#include "workload/trace_generator.hh"

namespace
{

using namespace pdnspot;

ProbeFrame
syntheticFrame(uint64_t phase)
{
    ProbeFrame f;
    f.phase = phase;
    f.start = seconds(0.01 * static_cast<double>(phase));
    f.duration = seconds(0.01);
    f.supplyPowerW = 5.0;
    f.nominalPowerW = 4.0;
    f.mode = 0;
    return f;
}

void
printFigure()
{
    bench::banner("Observability overhead - probes are pure "
                  "observers");

    const Platform &platform = bench::platform();
    IntervalSimulator sim(platform.operatingPoints(), watts(15.0));
    TraceGenerator gen(7);
    PhaseTrace trace = gen.randomMix(64, milliseconds(5.0));

    ProbeSpec spec;
    SignalProbe probe(spec, watts(15.0));
    SimResult probed = sim.run(trace, platform.pdn(PdnKind::IVR),
                               &probe);
    SimResult unprobed = sim.run(trace, platform.pdn(PdnKind::IVR));
    std::cout << "SimResult probed vs unprobed: "
              << (probed == unprobed ? "bit-identical"
                                     : "MISMATCH")
              << " over " << trace.phases().size() << " phases, "
              << probe.take().rows.size() << " rows captured\n\n";
}

void
obsMetricAddDisabled(benchmark::State &state)
{
    for (auto _ : state)
        metricAdd(Metric::CampaignPhases);
}

void
obsMetricAddEnabled(benchmark::State &state)
{
    // Installed, every add takes the registry's (uncontended) mutex.
    MetricsRegistry registry;
    {
        MetricsInstallation install(registry);
        for (auto _ : state)
            metricAdd(Metric::CampaignPhases);
    }
    benchmark::DoNotOptimize(
        registry.counterValue(Metric::CampaignPhases));
}

void
obsSpanScopeDisabled(benchmark::State &state)
{
    for (auto _ : state)
        SpanScope scope("bench", "obs");
}

void
obsSpanScopeEnabled(benchmark::State &state)
{
    // A bounded buffer fills and then drops; dropped spans still pay
    // the accounting, which is the steady-state cost on long runs.
    SpanRecorder recorder;
    SpanInstallation install(recorder);
    for (auto _ : state)
        SpanScope scope("bench", "obs");
    benchmark::DoNotOptimize(recorder.eventCount());
}

void
obsProbeSamplePhase(benchmark::State &state)
{
    // Per-frame ingestion cost with every signal selected: shadow
    // budget update, clip detection, row build.
    ProbeSpec spec;
    SignalProbe probe(spec, watts(15.0));
    uint64_t phase = 0;
    for (auto _ : state)
        probe.samplePhase(syntheticFrame(phase++));
    benchmark::DoNotOptimize(probe.take().rows.data());
}

void
obsProbeTriggeredSamplePhase(benchmark::State &state)
{
    // The ring path: no trigger ever fires, so every row is parked
    // and eventually evicted — the probe's cost on cells where
    // nothing interesting happens.
    ProbeSpec spec;
    spec.trigger = ProbeTriggerSpec{ProbeTriggerSpec::On::ModeSwitch,
                                    8};
    SignalProbe probe(spec, watts(15.0));
    uint64_t phase = 0;
    for (auto _ : state)
        probe.samplePhase(syntheticFrame(phase++));
    benchmark::DoNotOptimize(probe.take().rows.data());
}

void
obsSimProbed(benchmark::State &state)
{
    // End-to-end contract: probes compiled in but unbound (Arg 0)
    // must cost one null check per phase vs a bound probe (Arg 1).
    const Platform &platform = bench::platform();
    IntervalSimulator sim(platform.operatingPoints(), watts(15.0));
    TraceGenerator gen(7);
    PhaseTrace trace = gen.randomMix(64, milliseconds(5.0));
    PhaseSoA soa(trace);
    const bool bound = state.range(0) != 0;

    uint64_t phases = 0;
    auto start = std::chrono::steady_clock::now();
    for (auto _ : state) {
        ProbeSpec spec;
        SignalProbe probe(spec, watts(15.0));
        SimResult r = sim.run(soa, platform.pdn(PdnKind::IVR),
                              bound ? &probe : nullptr);
        benchmark::DoNotOptimize(r);
        phases += trace.phases().size();
    }
    double ns = std::chrono::duration<double, std::nano>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    state.counters["ns_per_phase"] =
        phases ? ns / static_cast<double>(phases) : 0.0;
}

BENCHMARK(obsMetricAddDisabled);
BENCHMARK(obsMetricAddEnabled);
BENCHMARK(obsSpanScopeDisabled);
BENCHMARK(obsSpanScopeEnabled);
BENCHMARK(obsProbeSamplePhase);
BENCHMARK(obsProbeTriggeredSamplePhase);
BENCHMARK(obsSimProbed)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"probe"})
    ->Unit(benchmark::kMicrosecond);

} // anonymous namespace

PDNSPOT_BENCH_MAIN(printFigure)
