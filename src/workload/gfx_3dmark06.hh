/**
 * @file
 * 3DMark06 graphics benchmark characterizations.
 *
 * The paper's graphics evaluation (Fig. 8b) uses the 3DMark06 suite:
 * two shader-model-2 graphics tests, two HDR/SM3 tests, and two CPU
 * tests. During the graphics tests 80-90% of the compute budget goes
 * to the graphics engines (Sec. 7.1) and performance scales with the
 * GFX clock; scalability is high because the tests are GPU-bound.
 */

#ifndef PDNSPOT_WORKLOAD_GFX_3DMARK06_HH
#define PDNSPOT_WORKLOAD_GFX_3DMARK06_HH

#include <vector>

#include "workload/workload.hh"

namespace pdnspot
{

/** The 3DMark06 graphics sub-tests used for Fig. 8b. */
const std::vector<Workload> &gfx3dmark06();

} // namespace pdnspot

#endif // PDNSPOT_WORKLOAD_GFX_3DMARK06_HH
