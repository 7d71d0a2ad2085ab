/**
 * @file
 * Sweep engine: the "multi-dimensional architecture-space exploration"
 * surface of PDNspot (paper Sec. 3).
 *
 * Produces named series of ETEE (or any per-PDN metric) against a
 * swept axis (AR, TDP, or package power state) for any subset of the
 * PDN architectures, and exports them as CSV for plotting. The paper
 * figures (pdnspot/figures.hh) print tables; this API is for
 * downstream users who want the raw series.
 */

#ifndef PDNSPOT_PDNSPOT_SWEEP_HH
#define PDNSPOT_PDNSPOT_SWEEP_HH

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/parallel.hh"
#include "pdnspot/platform.hh"

namespace pdnspot
{

/** One swept curve: a label and (x, y) points. */
struct SweepSeries
{
    std::string label;
    std::vector<std::pair<double, double>> points;
};

/** A set of curves sharing an x axis. */
struct SweepResult
{
    std::string xLabel;
    std::string yLabel;
    std::vector<SweepSeries> series;

    /** Emit as CSV: x, series-1, series-2, ... */
    void writeCsv(std::ostream &os) const;

    /**
     * Inverse of writeCsv, so exported figure data round-trips: the
     * header row supplies xLabel and the series labels, every data
     * row one x value and one y per series. The y-axis label is not
     * part of the CSV, so it comes back empty. For any text produced
     * by writeCsv, read-then-write reproduces it exactly (fixpoint).
     * fatal() on malformed input.
     */
    static SweepResult readCsv(std::istream &is);
};

/**
 * Sweeps platform operating points across the PDN architectures.
 *
 * Every PDN-kind × axis-point evaluation is independent, so sweeps
 * fan out across the runner's threads; results land at their own
 * (series, point) index, making the output bit-identical to a serial
 * sweep regardless of thread count.
 */
class SweepEngine
{
  public:
    /**
     * @param runner thread pool to fan evaluations across. Pass a
     * ParallelRunner(1) for serial evaluation.
     */
    SweepEngine(const Platform &platform,
                const ParallelRunner &runner);

    /**
     * The engine keeps a reference to the runner for its lifetime;
     * binding a temporary would dangle after this full expression.
     */
    SweepEngine(const Platform &platform,
                const ParallelRunner &&runner) = delete;

    /** ETEE vs AR at fixed (TDP, workload type) — a Fig. 4 panel. */
    SweepResult eteeVsAr(Power tdp, WorkloadType type,
                         const std::vector<double> &ars,
                         const std::vector<PdnKind> &kinds) const;

    /** ETEE vs TDP at fixed (type, AR) — the crossover view. */
    SweepResult eteeVsTdp(WorkloadType type, double ar,
                          const std::vector<double> &tdps_w,
                          const std::vector<PdnKind> &kinds) const;

    /** ETEE per battery-life power state — Fig. 4(j). */
    SweepResult eteeVsCState(const std::vector<PdnKind> &kinds) const;

    /** Normalized BOM (y) vs TDP (x) — Fig. 8(d). */
    SweepResult bomVsTdp(const std::vector<double> &tdps_w,
                         const std::vector<PdnKind> &kinds) const;

    /** Normalized board area vs TDP — Fig. 8(e). */
    SweepResult areaVsTdp(const std::vector<double> &tdps_w,
                          const std::vector<PdnKind> &kinds) const;

  private:
    double eteeAt(PdnKind kind, Power tdp, WorkloadType type,
                  double ar, PackageCState cstate) const;

    /**
     * Shared fan-out: evaluate eval(kind, x) for every kind × x,
     * in parallel, and assemble one series per kind with points in
     * axis order.
     */
    SweepResult
    sweep(std::string xLabel, std::string yLabel,
          const std::vector<double> &xs,
          const std::vector<PdnKind> &kinds,
          const std::function<double(PdnKind, double)> &eval) const;

    const Platform &_platform;
    const ParallelRunner &_runner;
};

} // namespace pdnspot

#endif // PDNSPOT_PDNSPOT_SWEEP_HH
