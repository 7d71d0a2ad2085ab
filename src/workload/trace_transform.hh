/**
 * @file
 * Declarative trace transforms: derive perturbed trace variants.
 *
 * The paper's sensitivity results hinge on how power-management
 * behavior shifts as workloads stretch, repeat and jitter. A
 * TraceTransform is a small value object describing one such
 * derivation step — repeat the trace, scale its time axis, truncate
 * it, perturb its activity ratios, or concatenate another trace —
 * and a TraceSpec (workload/trace_source.hh) can carry a chain of
 * them, applied in order after the base trace materializes. Every
 * transform is a pure function of its parameters (AR perturbation
 * draws from a seeded hash noise), so transformed traces resolve
 * deterministically: campaigns stay bit-identical at any thread
 * count and shard-compatible.
 */

#ifndef PDNSPOT_WORKLOAD_TRACE_TRANSFORM_HH
#define PDNSPOT_WORKLOAD_TRACE_TRANSFORM_HH

#include <cstdint>
#include <memory>
#include <string>

#include "common/units.hh"
#include "workload/trace.hh"

namespace pdnspot
{

class TraceSpec;

/**
 * One trace-derivation step. Construct through the factories, chain
 * via TraceSpec::transform(); apply() maps an input trace to the
 * derived one, keeping the input's name (TraceSpec::resolve() owns
 * naming).
 */
class TraceTransform
{
  public:
    enum class Kind
    {
        Repeat,    ///< phases repeated n times back to back
        TimeScale, ///< every phase duration multiplied by a factor
        Truncate,  ///< prefix up to a total duration (splits a phase)
        ArPerturb, ///< C0 activity ratios jittered by seeded noise
        Concat,    ///< another TraceSpec's phases appended
    };

    /** Repeat the whole trace `count` times (1 = no-op). */
    static TraceTransform repeat(size_t count);

    /**
     * Multiply every phase duration by `factor` (> 0): stretch the
     * workload (factor > 1) or compress it (factor < 1) without
     * changing its shape.
     */
    static TraceTransform timeScale(double factor);

    /**
     * Keep only the prefix of the trace up to `duration`, splitting
     * the phase spanning the cut. A duration at or past the trace's
     * total is a no-op, so one cut length can sweep a trace family.
     */
    static TraceTransform truncate(Time duration);

    /**
     * Jitter each C0 phase's activity ratio by a deterministic
     * per-phase draw from [-delta, +delta] (HashNoise(seed) keyed by
     * phase index), clamped to [0, 1]. Idle phases keep their
     * battery-life convention AR untouched.
     */
    static TraceTransform arPerturb(double delta, uint64_t seed);

    /** Append `tail`'s resolved phases after the trace's own. */
    static TraceTransform concat(TraceSpec tail);

    Kind kind() const { return _kind; }

    /**
     * Apply the (validated) transform to `trace`. The result carries
     * `trace`'s name and is phase-valid by construction.
     */
    PhaseTrace apply(const PhaseTrace &trace) const;

    /**
     * One-line description ("repeat(3)", "time-scale(x1.5)",
     * "ar-perturb(0.1, seed 7)", ...) for provenance listings.
     */
    std::string describe() const;

    /**
     * fatal() unless the transform's parameters are usable: a
     * positive repeat count, a positive finite scale factor and
     * truncation length, an AR delta in [0, 1], a valid concat
     * operand. `traceName` labels the error with the carrying spec.
     */
    void validate(const std::string &traceName) const;

    bool operator==(const TraceTransform &other) const;

  private:
    TraceTransform() = default;

    Kind _kind = Kind::Repeat;
    size_t _count = 1;    ///< Repeat
    double _factor = 1.0; ///< TimeScale factor / ArPerturb delta
    Time _duration;       ///< Truncate
    uint64_t _seed = 0;   ///< ArPerturb

    /**
     * Concat operand. Shared immutable ownership breaks the value
     * cycle with TraceSpec (which holds a vector of transforms);
     * equality compares the pointee.
     */
    std::shared_ptr<const TraceSpec> _tail;
};

} // namespace pdnspot

#endif // PDNSPOT_WORKLOAD_TRACE_TRANSFORM_HH
