#include "workload/gfx_3dmark06.hh"

namespace pdnspot
{

namespace
{

Workload
gfx(const char *name, double scalability, double ar)
{
    Workload w;
    w.name = name;
    w.type = WorkloadType::Graphics;
    w.scalability = scalability;
    w.ar = ar;
    return w;
}

} // anonymous namespace

const std::vector<Workload> &
gfx3dmark06()
{
    static const std::vector<Workload> suite = {
        gfx("GT1-ReturnToProxycon", 0.90, 0.60),
        gfx("GT2-FireflyForest", 0.92, 0.63),
        gfx("HDR1-CanyonFlight", 0.88, 0.58),
        gfx("HDR2-DeepFreeze", 0.94, 0.66),
        gfx("CPU1-RedValley", 0.55, 0.52),
        gfx("CPU2-RedValley", 0.58, 0.54),
    };
    return suite;
}

} // namespace pdnspot
