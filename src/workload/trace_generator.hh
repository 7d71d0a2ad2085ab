/**
 * @file
 * Synthetic phase-trace generation.
 *
 * The paper's validation corpus (~5000 proprietary traces spanning
 * SPEC, graphics, productivity and idle behaviour, Sec. 4.1) is not
 * redistributable; TraceGenerator synthesizes deterministic stand-ins
 * with the same structure: bursts of CPU work at varying AR,
 * graphics scenes, and idle gaps, all reproducible from a seed.
 */

#ifndef PDNSPOT_WORKLOAD_TRACE_GENERATOR_HH
#define PDNSPOT_WORKLOAD_TRACE_GENERATOR_HH

#include <cstdint>

#include "common/names.hh"
#include "common/noise.hh"
#include "workload/trace.hh"

namespace pdnspot
{

/** The synthetic generators, one per TraceGenerator method. */
enum class TraceGeneratorKind
{
    BurstyCompute, ///< TraceGenerator::burstyCompute
    DayInTheLife,  ///< TraceGenerator::dayInTheLife
    RandomMix,     ///< TraceGenerator::randomMix
};

template <>
inline constexpr NameTable<TraceGeneratorKind, 3>
    nameTable<TraceGeneratorKind>{
        "generator kind",
        {{{TraceGeneratorKind::BurstyCompute, "bursty-compute"},
          {TraceGeneratorKind::DayInTheLife, "day-in-the-life"},
          {TraceGeneratorKind::RandomMix, "random-mix"}}}};
static_assert(inEnumOrder(nameTable<TraceGeneratorKind>));

/**
 * The name a generated trace carries: the kind's spelling, suffixed
 * "-<seed>" for random-mix (whose shape is all seed).
 */
std::string generatorTraceName(TraceGeneratorKind kind, uint64_t seed);

/** Deterministic synthetic trace builder. */
class TraceGenerator
{
  public:
    explicit TraceGenerator(uint64_t seed) : _noise(seed), _seed(seed) {}

    /**
     * A bursty interactive trace alternating compute bursts (mixed
     * single/multi-thread, AR drawn from [ar_min, ar_max]) with idle
     * periods in deep C-states. Exercises FlexWatts's mode predictor
     * in both directions.
     */
    PhaseTrace burstyCompute(size_t bursts, Time burst_len,
                             Time idle_len, double ar_min = 0.4,
                             double ar_max = 0.8) const;

    /**
     * A "day-in-the-life" client trace: office-style light work,
     * a compile-like multi-thread stretch, a gaming (graphics)
     * session, video playback, and standby.
     */
    PhaseTrace dayInTheLife() const;

    /**
     * A uniform random phase mix for property-style fuzzing: each
     * phase independently draws a state, type and an AR from
     * [ar_min, ar_max].
     */
    PhaseTrace randomMix(size_t phases, Time mean_phase_len,
                         double ar_min = 0.4,
                         double ar_max = 0.8) const;

  private:
    double unit(uint64_t k) const { return _noise.unit(k); }

    HashNoise _noise;
    uint64_t _seed;
};

} // namespace pdnspot

#endif // PDNSPOT_WORKLOAD_TRACE_GENERATOR_HH
