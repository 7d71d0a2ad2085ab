#include "pdnspot/platform.hh"

#include "common/logging.hh"

namespace pdnspot
{

Platform::Platform(PlatformConfig config)
    : _config(config),
      _opm(),
      _perf(_opm),
      _costs(_opm)
{
    auto flexwatts = std::make_unique<FlexWattsPdn>(config.pdnParams);
    _flexwatts = flexwatts.get();
    for (size_t i = 0; i < allPdnKinds.size(); ++i) {
        if (allPdnKinds[i] == PdnKind::FlexWatts)
            _pdns[i] = std::move(flexwatts);
        else
            _pdns[i] = makePdn(allPdnKinds[i], config.pdnParams);
    }

    _eteeTable = std::make_unique<EteeTable>(*_flexwatts, _opm);
    _predictor = std::make_unique<ModePredictor>(
        *_eteeTable, config.predictorHysteresis);
}

const PdnModel &
Platform::pdn(PdnKind kind) const
{
    for (size_t i = 0; i < allPdnKinds.size(); ++i) {
        if (allPdnKinds[i] == kind)
            return *_pdns[i];
    }
    panic("Platform: unknown PdnKind");
}

} // namespace pdnspot
