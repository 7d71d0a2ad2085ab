#include "common/noise.hh"

namespace pdnspot
{

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
