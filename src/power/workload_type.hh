/**
 * @file
 * Workload-type classification used by the PMU and the ETEE models.
 *
 * The paper's ETEE curves (Fig. 4) and FlexWatts's mode-prediction
 * algorithm are keyed by workload type: single-threaded CPU,
 * multi-threaded CPU, graphics, or a battery-life (mostly idle)
 * workload. The PMU estimates the type at runtime from which domains
 * are active (paper Sec. 6).
 */

#ifndef PDNSPOT_POWER_WORKLOAD_TYPE_HH
#define PDNSPOT_POWER_WORKLOAD_TYPE_HH

#include <array>

#include "common/names.hh"

namespace pdnspot
{

/** High-level workload class, as classified by the PMU. */
enum class WorkloadType
{
    SingleThread, ///< one core active, graphics idle
    MultiThread,  ///< more than one core active, graphics idle
    Graphics,     ///< graphics engines active
    BatteryLife,  ///< mostly-idle duty-cycled workload
};

template <>
inline constexpr NameTable<WorkloadType, 4> nameTable<WorkloadType>{
    "workload type",
    {{{WorkloadType::SingleThread, "single-thread"},
      {WorkloadType::MultiThread, "multi-thread"},
      {WorkloadType::Graphics, "graphics"},
      {WorkloadType::BatteryLife, "battery-life"}}}};
static_assert(inEnumOrder(nameTable<WorkloadType>));

inline constexpr std::array<WorkloadType, 4> allWorkloadTypes =
    valuesOf(nameTable<WorkloadType>);

} // namespace pdnspot

#endif // PDNSPOT_POWER_WORKLOAD_TYPE_HH
