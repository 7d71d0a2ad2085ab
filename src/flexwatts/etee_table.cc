#include "flexwatts/etee_table.hh"

#include <array>

#include "common/logging.hh"

namespace pdnspot
{

namespace
{

/** Characterization grid (the paper's Fig. 4 axes). */
constexpr std::array<double, 7> gridTdpsW = {4.0,  8.0,  10.0, 18.0,
                                             25.0, 36.0, 50.0};
constexpr std::array<double, 7> gridArs = {0.30, 0.40, 0.50, 0.60,
                                           0.70, 0.80, 0.90};

} // namespace

size_t
EteeTable::modeIndex(HybridMode m)
{
    return static_cast<size_t>(m);
}

EteeTable::EteeTable(const FlexWattsPdn &pdn,
                     const OperatingPointModel &opm)
{
    // Active-state (C0) curves: one (TDP x AR) grid per mode and
    // workload type, row-major in TDP.
    static constexpr std::array<WorkloadType, 3> activeTypes = {
        WorkloadType::SingleThread, WorkloadType::MultiThread,
        WorkloadType::Graphics,
    };
    for (HybridMode mode : allHybridModes) {
        for (WorkloadType type : activeTypes) {
            std::vector<double> values;
            values.reserve(gridTdpsW.size() * gridArs.size());
            for (double tdp : gridTdpsW) {
                for (double ar : gridArs) {
                    OperatingPointModel::Query q;
                    q.tdp = watts(tdp);
                    q.type = type;
                    q.ar = ar;
                    values.push_back(
                        pdn.evaluate(opm.build(q), mode).etee());
                }
            }
            _active.emplace(
                std::make_pair(modeIndex(mode), type),
                BilinearGrid({gridTdpsW.begin(), gridTdpsW.end()},
                             {gridArs.begin(), gridArs.end()},
                             std::move(values)));
        }
        // The battery-life type reuses the multi-thread curves when
        // momentarily active (the PMU classifies by active domains).
        _active.emplace(
            std::make_pair(modeIndex(mode), WorkloadType::BatteryLife),
            _active.at(std::make_pair(modeIndex(mode),
                                      WorkloadType::MultiThread)));

        // Package C-state rows (TDP-independent, Sec. 5 Observation 3).
        for (PackageCState state : batteryLifeCStates) {
            OperatingPointModel::Query q;
            q.tdp = watts(15.0);
            q.cstate = state;
            _cstates.emplace(std::make_pair(modeIndex(mode), state),
                             pdn.evaluate(opm.build(q), mode).etee());
        }
    }
}

double
EteeTable::lookupActive(HybridMode mode, WorkloadType type, Power tdp,
                        double ar) const
{
    auto it = _active.find(std::make_pair(modeIndex(mode), type));
    if (it == _active.end())
        panic("EteeTable: missing active curve");
    return it->second.at(inWatts(tdp), ar);
}

double
EteeTable::lookupCState(HybridMode mode, PackageCState state) const
{
    if (state == PackageCState::C0)
        panic("EteeTable: C0 has no C-state row; use lookupActive");
    auto it = _cstates.find(std::make_pair(modeIndex(mode), state));
    if (it == _cstates.end())
        panic("EteeTable: missing C-state row");
    return it->second;
}

} // namespace pdnspot
