/**
 * @file
 * Deterministic pseudo-noise for reference-measurement synthesis.
 *
 * The PDNspot validation harness (paper Fig. 4) compares model-predicted
 * ETEE against lab measurements. Without lab hardware, this repo
 * synthesizes the "measured" reference as the model plus a small,
 * reproducible perturbation. HashNoise provides that perturbation:
 * a splitmix64-mixed hash of (seed, key) mapped to [-1, 1], so every
 * (trace, PDN) pair gets the same "measurement noise" on every run.
 */

#ifndef PDNSPOT_COMMON_NOISE_HH
#define PDNSPOT_COMMON_NOISE_HH

#include <cstdint>
#include <string>

namespace pdnspot
{

/** Deterministic keyed noise source. */
class HashNoise
{
  public:
    explicit HashNoise(uint64_t seed) : _seedMix(mix(seed)) {}

    /** Uniform value in [-1, 1] determined by (seed, key). */
    double signedUnit(uint64_t key) const { return 2.0 * unit(key) - 1.0; }

    /** Uniform value in [-1, 1] determined by (seed, hash(key)). */
    double signedUnit(const std::string &key) const;

    /** Uniform value in [0, 1). */
    double
    unit(uint64_t key) const
    {
        // 53 significant bits -> double in [0, 1)
        return static_cast<double>(mix(_seedMix ^ key) >> 11) *
               (1.0 / 9007199254740992.0);
    }

    /** splitmix64 finalizer; also the PhaseSoA dedupe hash. */
    static uint64_t
    mix(uint64_t x)
    {
        x += 0x9e3779b97f4a7c15ULL;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
        return x ^ (x >> 31);
    }

  private:
    uint64_t _seedMix; ///< mix(seed), shared by every key
};

} // namespace pdnspot

#endif // PDNSPOT_COMMON_NOISE_HH
