#include "common/noise.hh"

namespace pdnspot
{

double
HashNoise::unit(uint64_t key) const
{
    uint64_t h = mix(mix(_seed) ^ key);
    // 53 significant bits -> double in [0, 1)
    return static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
}

double
HashNoise::signedUnit(uint64_t key) const
{
    return 2.0 * unit(key) - 1.0;
}

double
HashNoise::signedUnit(const std::string &key) const
{
    // FNV-1a over the key bytes, then mix with the seed.
    uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : key) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return signedUnit(h);
}

} // namespace pdnspot
