/**
 * @file
 * The PDNspot platform: one object bundling every model in the
 * framework, configured consistently.
 *
 * This is the main entry point of the library. A Platform owns the
 * operating-point model, all five PDN topologies, the FlexWatts ETEE
 * firmware tables and mode predictor, the performance model and the
 * BOM/area calculator. See examples/quickstart.cc for usage.
 */

#ifndef PDNSPOT_PDNSPOT_PLATFORM_HH
#define PDNSPOT_PDNSPOT_PLATFORM_HH

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "cost/board_budget.hh"
#include "flexwatts/etee_table.hh"
#include "flexwatts/flexwatts_pdn.hh"
#include "flexwatts/mode_predictor.hh"
#include "flexwatts/pdn_factory.hh"
#include "pdn/pdn_model.hh"
#include "perf/perf_model.hh"
#include "power/operating_point.hh"

namespace pdnspot
{

/** Platform-level configuration. */
struct PlatformConfig
{
    /** Identifies this platform in campaign results and CSV rows. */
    std::string name = "custom";

    /**
     * Sustained thermal design power of the modeled system; campaign
     * simulations run the interval simulator at this budget. Must lie
     * in the operating-point model's supported 4-50 W span.
     */
    Power tdp = watts(15.0);

    PdnPlatformParams pdnParams;
    double predictorHysteresis = 0.005; ///< 0.5% absolute ETEE margin
};

/**
 * Named platform presets spanning the paper's client segments
 * (Sec. 7.1 evaluates 4-50 W TDPs). Campaigns sweep these alongside
 * PDN kinds; see src/campaign/.
 */

/** 4 W fan-less tablet: 2S battery pack, passive cooling. */
PlatformConfig fanlessTabletPreset();

/** 15 W ultraportable notebook: the paper's default platform. */
PlatformConfig ultraportablePreset();

/** 45 W H-series performance notebook: 3S pack, active cooling. */
PlatformConfig hSeriesPreset();

/** The three presets above, in ascending-TDP order. */
const std::vector<PlatformConfig> &allPlatformPresets();

/** Look a preset up by its config name; fatal() on an unknown name. */
PlatformConfig platformPresetByName(const std::string &name);

/** Everything PDNspot knows about one modeled client platform. */
class Platform
{
  public:
    explicit Platform(PlatformConfig config = {});

    Platform(const Platform &) = delete;
    Platform &operator=(const Platform &) = delete;

    const OperatingPointModel &
    operatingPoints() const
    {
        return _opm;
    }

    /** Any of the five PDN architectures. */
    const PdnModel &pdn(PdnKind kind) const;

    /** The FlexWatts topology with its mode-level API. */
    const FlexWattsPdn &flexWatts() const { return *_flexwatts; }

    /** Pre-characterized ETEE curves (PMU firmware tables). */
    const EteeTable &eteeTable() const { return *_eteeTable; }

    /** Algorithm 1 over the firmware tables. */
    const ModePredictor &predictor() const { return *_predictor; }

    const PerfModel &perfModel() const { return _perf; }
    const BoardCostCalculator &costs() const { return _costs; }

    const PlatformConfig &config() const { return _config; }

  private:
    PlatformConfig _config;
    OperatingPointModel _opm;
    std::array<std::unique_ptr<PdnModel>, allPdnKinds.size()> _pdns;
    const FlexWattsPdn *_flexwatts = nullptr;
    std::unique_ptr<EteeTable> _eteeTable;
    std::unique_ptr<ModePredictor> _predictor;
    PerfModel _perf;
    BoardCostCalculator _costs;
};

} // namespace pdnspot

#endif // PDNSPOT_PDNSPOT_PLATFORM_HH
