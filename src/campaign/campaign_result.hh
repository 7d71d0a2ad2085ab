/**
 * @file
 * Results of one batch-simulation campaign: per-cell SimResults keyed
 * by (trace, platform, pdn), per-PDN summary statistics, and a CSV
 * export that round-trips bit-exactly through readCsv.
 *
 * Besides the in-memory CampaignResult, this header defines the
 * streaming consumption path: a CampaignSink receives cells in
 * canonical order as the engine completes them, so million-cell
 * campaigns can be exported (CampaignCsvSink) and summarized
 * (CampaignSummaryBuilder) without ever materializing every
 * SimResult at once.
 */

#ifndef PDNSPOT_CAMPAIGN_CAMPAIGN_RESULT_HH
#define PDNSPOT_CAMPAIGN_CAMPAIGN_RESULT_HH

#include <array>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "campaign/campaign_spec.hh"
#include "pdn/pdn_model.hh"
#include "sim/battery_model.hh"
#include "sim/sim_stats.hh"

namespace pdnspot
{

/** Identity and outcome of one (trace, platform, pdn) cell. */
struct CampaignCellResult
{
    std::string trace;
    std::string platform;
    PdnKind pdn = PdnKind::IVR;
    SimMode mode = SimMode::Static;
    SimResult sim;

    /**
     * The captured waveform when a probe (CampaignSpec::probes)
     * matched this cell; null otherwise. Rides the streaming
     * delivery in canonical cell order, and is deliberately outside
     * the CSV surface: writeCsv ignores it and readCsv leaves it
     * null, so campaign CSVs are byte-identical probe-on vs
     * probe-off. operator== compares the pointer (identity), which
     * keeps the unprobed determinism contracts (null == null) exact.
     */
    std::shared_ptr<const Waveform> waveform;

    bool operator==(const CampaignCellResult &) const = default;
};

/** Campaign-wide aggregates for one PDN architecture. */
struct CampaignPdnSummary
{
    PdnKind pdn = PdnKind::IVR;
    size_t cells = 0;
    Energy supplyEnergy;      ///< total over all cells
    Energy nominalEnergy;     ///< total over all cells
    uint64_t modeSwitches = 0;
    Power meanAveragePower;   ///< mean of per-cell average power
    double batteryLifeHours = 0.0; ///< at meanAveragePower

    /** Energy-weighted ETEE across the PDN's cells. */
    double
    meanEtee() const
    {
        if (supplyEnergy <= joules(0.0))
            return 0.0;
        return nominalEnergy / supplyEnergy;
    }
};

/**
 * Streaming consumer of campaign cells.
 *
 * CampaignEngine::run(spec, sink) delivers every cell exactly once,
 * in the canonical platform-major spec order, one wave of cells at a
 * time. Every call comes from the thread that called run(), so a
 * sink needs no locking; an exception thrown by consume() aborts the
 * campaign and propagates to the caller.
 */
class CampaignSink
{
  public:
    virtual ~CampaignSink() = default;

    virtual void consume(CampaignCellResult cell) = 0;
};

/**
 * Sink that streams cells to an ostream in CSV form. The header row
 * is written on construction; the accumulated output is byte-
 * identical to CampaignResult::writeCsv over the same cells, so the
 * streamed file re-imports through CampaignResult::readCsv.
 *
 * Sharded runs (CampaignEngine::run over a cell range) suppress the
 * header on every shard but the first, so concatenating the shard
 * files in order reproduces the unsharded CSV byte for byte.
 */
class CampaignCsvSink : public CampaignSink
{
  public:
    explicit CampaignCsvSink(std::ostream &os, bool header = true);

    void consume(CampaignCellResult cell) override;

    /** Data rows written so far (header excluded). */
    size_t rows() const { return _rows; }

  private:
    std::ostream &_os;
    size_t _rows = 0;
};

/**
 * Incremental per-PDN aggregation: feed cells in any order, then
 * project the summaries. CampaignResult::summarizeByPdn is this
 * builder over all cells; streaming consumers (the pdnspot_campaign
 * CLI) run it cell by cell instead of retaining them.
 */
class CampaignSummaryBuilder
{
  public:
    void add(const CampaignCellResult &cell);

    /**
     * Summaries of the cells added so far, in allPdnKinds order
     * (kinds with no cells omitted); battery life projected at each
     * PDN's mean average power.
     */
    std::vector<CampaignPdnSummary>
    summaries(const BatteryModel &battery) const;

  private:
    struct Totals
    {
        size_t cells = 0;
        Energy supplyEnergy;
        Energy nominalEnergy;
        uint64_t modeSwitches = 0;
        Power powerSum;
    };

    std::array<Totals, allPdnKinds.size()> _totals{};
};

/**
 * Every cell of one campaign, in platform-major spec order. The
 * simulation mode travels per cell (CampaignCellResult::mode), so a
 * result is exactly its cells — no state outside the CSV.
 */
struct CampaignResult
{
    std::vector<CampaignCellResult> cells;

    /** Lookup one cell; fatal() when absent. */
    const CampaignCellResult &cell(const std::string &trace,
                                   const std::string &platform,
                                   PdnKind pdn) const;

    /**
     * Per-PDN aggregates in allPdnKinds order (PDNs with no cells
     * omitted); battery life projected from the battery model at
     * each PDN's mean average power.
     */
    std::vector<CampaignPdnSummary>
    summarizeByPdn(const BatteryModel &battery) const;

    /**
     * One row per cell:
     * trace,platform,pdn,mode,duration_s,supply_energy_j,
     * nominal_energy_j,ivr_mode_s,ldo_mode_s,mode_switches,
     * switch_time_s,switch_energy_j
     * Numbers use shortest-round-trip formatting, so readCsv
     * reconstructs the exact in-memory result.
     */
    void writeCsv(std::ostream &os) const;

    /** Inverse of writeCsv; fatal() on malformed input. */
    static CampaignResult readCsv(std::istream &is);

    bool operator==(const CampaignResult &) const = default;
};

} // namespace pdnspot

#endif // PDNSPOT_CAMPAIGN_CAMPAIGN_RESULT_HH
