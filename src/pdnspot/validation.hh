/**
 * @file
 * PDNspot validation harness (paper Sec. 4.3, Fig. 4).
 *
 * The paper validates each PDN model by comparing its predicted ETEE
 * against lab measurements over a 200-trace subset, reporting average
 * accuracy above 99%. Without lab hardware, the harness synthesizes
 * the "measured" reference as the model prediction perturbed by a
 * deterministic, trace-keyed error (default amplitude 0.7%) standing
 * in for instrument noise and unmodeled second-order effects; it then
 * exercises the identical compare-and-report pipeline.
 */

#ifndef PDNSPOT_PDNSPOT_VALIDATION_HH
#define PDNSPOT_PDNSPOT_VALIDATION_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/noise.hh"
#include "common/parallel.hh"
#include "pdn/pdn_model.hh"
#include "pdnspot/platform.hh"
#include "power/package_cstate.hh"
#include "power/workload_type.hh"

namespace pdnspot
{

/** One validation trace's identifying parameters. */
struct ValidationTrace
{
    std::string name;
    WorkloadType type = WorkloadType::SingleThread;
    double ar = 0.56;
    Power tdp = watts(15.0);
    PackageCState cstate = PackageCState::C0;
};

/** Accuracy summary of one PDN model over a trace set. */
struct ValidationStats
{
    double avgAccuracy = 0.0;
    double minAccuracy = 1.0;
    double maxAccuracy = 0.0;
    size_t traces = 0;
};

/** Generates trace sets and reference data; computes accuracy. */
class ValidationHarness
{
  public:
    /**
     * @param platform model under validation
     * @param seed deterministic reference-noise seed
     * @param noise_amplitude relative amplitude of the synthetic
     *        measurement error
     */
    explicit ValidationHarness(const Platform &platform,
                               uint64_t seed = 42,
                               double noise_amplitude = 0.007);

    /**
     * A balanced validation set like the paper's 200-trace subset:
     * single-/multi-thread/graphics traces across the TDP points and
     * the 40-80% AR band, plus the battery-life power states.
     */
    std::vector<ValidationTrace> makeTraceSet(size_t count) const;

    /** Model-predicted ETEE for one trace. */
    double predictedEtee(const PdnModel &pdn,
                         const ValidationTrace &trace) const;

    /** Synthetic "measured" ETEE for one trace. */
    double measuredEtee(const PdnModel &pdn,
                        const ValidationTrace &trace) const;

    /**
     * Accuracy = 1 - |measured - predicted| / measured, aggregated.
     * Per-trace evaluations fan out across `runner`; aggregation
     * walks the per-trace results in set order, so the stats are
     * bit-identical to a serial pass at any thread count.
     */
    ValidationStats validate(const PdnModel &pdn,
                             const std::vector<ValidationTrace> &set,
                             const ParallelRunner &runner) const;

  private:
    const Platform &_platform;
    HashNoise _noise;
    double _noiseAmplitude;
};

} // namespace pdnspot

#endif // PDNSPOT_PDNSPOT_VALIDATION_HH
