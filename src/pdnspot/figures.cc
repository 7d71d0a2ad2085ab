#include "pdnspot/figures.hh"

#include <array>
#include <locale>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/table.hh"
#include "flexwatts/flexwatts_pdn.hh"
#include "flexwatts/mode_switch.hh"
#include "pdn/rail_table.hh"
#include "pdn/transient.hh"
#include "pdnspot/experiments.hh"
#include "pdnspot/validation.hh"
#include "perf/budget_breakdown.hh"
#include "perf/budget_solver.hh"
#include "perf/freq_sensitivity.hh"
#include "sim/battery_model.hh"
#include "sim/interval_simulator.hh"
#include "vr/buck_vr.hh"
#include "workload/gfx_3dmark06.hh"
#include "workload/spec_cpu2006.hh"
#include "workload/trace_generator.hh"

namespace pdnspot
{

namespace
{

/** Banner naming the paper artifact the tables below regenerate. */
void
banner(std::ostream &os, const std::string &what)
{
    os << "\n=== PDNspot reproduction: " << what << " ===\n\n";
}

/** A PDN's ETEE at one operating point. */
double
eteeAt(const Platform &platform, PdnKind kind, Power tdp,
       WorkloadType type, double ar,
       PackageCState cstate = PackageCState::C0)
{
    OperatingPointModel::Query q;
    q.tdp = tdp;
    q.type = type;
    q.ar = ar;
    q.cstate = cstate;
    return platform.pdn(kind)
        .evaluate(platform.operatingPoints().build(q))
        .etee();
}

/**
 * A CSV figure: the header `xLabel,<PDN names>`, then one row per x
 * holding eval(kind, x) for each kind. The kind × x evaluations fan
 * out over the runner and land at their own index, and numbers print
 * through a classic-locale buffer at the default precision, so the
 * bytes depend on neither the pool size nor the caller's locale.
 */
template <class Eval>
void
printSeries(std::ostream &os, const ParallelRunner &runner,
            const char *xLabel, std::span<const double> xs,
            std::span<const PdnKind> kinds, Eval eval)
{
    size_t nx = xs.size();
    size_t total = kinds.size() * nx;
    std::vector<double> ys = runner.map<double>(
        total,
        [&](size_t t) { return eval(kinds[t / nx], xs[t % nx]); },
        runner.suggestedGrain(total));

    std::ostringstream buf;
    buf.imbue(std::locale::classic());
    buf << xLabel;
    for (PdnKind kind : kinds)
        buf << "," << toString(kind);
    buf << "\n";
    for (size_t i = 0; i < nx; ++i) {
        buf << xs[i];
        for (size_t k = 0; k < kinds.size(); ++k)
            buf << "," << ys[k * nx + i];
        buf << "\n";
    }
    os << buf.str();
}

/** Fig. 4(a-i) data: the classic PDNs' ETEE across the AR band. */
template <WorkloadType Type, int TdpW>
void
fig4EteeVsAr(std::ostream &os, const Platform &platform,
             const ParallelRunner &runner)
{
    static constexpr std::array<double, 9> ars = {
        0.40, 0.45, 0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80};
    printSeries(os, runner, "AR", ars, classicPdnKinds,
                [&](PdnKind kind, double ar) {
                    return eteeAt(platform, kind, watts(TdpW), Type,
                                  ar);
                });
}

/** The crossover view: all five PDNs' ETEE across TDP at AR 0.56. */
template <WorkloadType Type>
void
eteeVsTdp(std::ostream &os, const Platform &platform,
          const ParallelRunner &runner)
{
    static constexpr std::array<double, 12> tdps = {
        4, 6, 8, 10, 14, 18, 22, 25, 30, 36, 42, 50};
    printSeries(os, runner, "TDP_W", tdps, allPdnKinds,
                [&](PdnKind kind, double tdp) {
                    return eteeAt(platform, kind, watts(tdp), Type,
                                  0.56);
                });
}

/** Fig. 4(j) data: ETEE per battery-life C-state (by index), 15 W. */
void
fig4jEteeVsCState(std::ostream &os, const Platform &platform,
                  const ParallelRunner &runner)
{
    std::array<double, batteryLifeCStates.size()> indices;
    for (size_t i = 0; i < indices.size(); ++i)
        indices[i] = static_cast<double>(i);
    printSeries(os, runner, "cstate_index", indices, classicPdnKinds,
                [&](PdnKind kind, double i) {
                    return eteeAt(platform, kind, watts(15.0),
                                  WorkloadType::BatteryLife, 0.3,
                                  batteryLifeCStates[static_cast<
                                      size_t>(i)]);
                });
}

/** Fig. 8(d)/(e) data: a normalized board cost across TDP. */
template <double (*Normalized)(const Platform &, PdnKind, Power)>
void
costVsTdp(std::ostream &os, const Platform &platform,
          const ParallelRunner &runner)
{
    printSeries(os, runner, "TDP_W", evaluationTdpsW, allPdnKinds,
                [&](PdnKind kind, double tdp) {
                    return Normalized(platform, kind, watts(tdp));
                });
}

/** Table 1 (platform architecture) and Table 2 (model parameters). */
void
table2Params(std::ostream &os, const Platform &platform,
             const ParallelRunner &)
{
    banner(os, "Table 1 - processor architecture summary");
    {
        AsciiTable t({"Domain", "Description"});
        t.addRow({"Core0/1", "single clock domain, 0.8-4.0 GHz"});
        t.addRow({"GFX", "graphics engines, 0.1-1.2 GHz"});
        t.addRow({"LLC", "last-level cache, tracks core voltage"});
        t.addRow({"SA", "memory/display/IO fabric, fixed frequency"});
        t.addRow({"IO", "DDRIO + display IO, fixed frequency"});
        t.print(os);
    }

    banner(os, "Table 2 - main PDNspot model parameters");
    const OperatingPointModel &opm = platform.operatingPoints();
    IvrPdnParams ivr_p;
    MbvrParams mbvr_p;
    LdoPdnParams ldo_p;

    AsciiTable t({"Parameter", "IVR", "MBVR", "LDO"});
    t.addRow({"Load-line RLL (mOhm)",
              strprintf("IN=%.2f", inMilliohms(ivr_p.rllIn)),
              strprintf("Cores/GFX/SA/IO=%.1f/%.1f/%.1f/%.1f",
                        inMilliohms(mbvr_p.rllCores),
                        inMilliohms(mbvr_p.rllGfx),
                        inMilliohms(mbvr_p.rllSa),
                        inMilliohms(mbvr_p.rllIo)),
              strprintf("IN/SA/IO=%.2f/%.1f/%.1f",
                        inMilliohms(ldo_p.rllIn),
                        inMilliohms(ldo_p.rllSa),
                        inMilliohms(ldo_p.rllIo))});
    t.addRow({"VR tolerance band (mV)",
              strprintf("%.0f", inMillivolts(ivr_p.tob)),
              strprintf("%.0f", inMillivolts(mbvr_p.tob)),
              strprintf("%.0f", inMillivolts(ldo_p.tob))});
    t.addRow({"On-chip VR efficiency", "81-88% (buck model)", "-",
              "(Vout/Vin) x 99.1%"});
    t.addRow({"Off-chip VR efficiency",
              "72-93% f(Vin,Vout,Iout,PS)",
              "72-93% f(Vin,Vout,Iout,PS)",
              "72-93% f(Vin,Vout,Iout,PS)"});
    t.addRow({"Leakage fraction FL", "22% (45% GFX)", "same", "same"});
    t.addRow({"Cores PNOM (W)",
              strprintf("%.2f-%.1f over 4-50W TDP",
                        inWatts(opm.coresNominal(watts(4.0))),
                        inWatts(opm.coresNominal(watts(50.0)))),
              "same", "same"});
    t.addRow({"LLC PNOM (W)",
              strprintf("%.2f-%.1f",
                        inWatts(opm.llcNominal(watts(4.0))),
                        inWatts(opm.llcNominal(watts(50.0)))),
              "same", "same"});
    t.addRow({"GFX PNOM (W)",
              strprintf("%.2f-%.1f",
                        inWatts(opm.gfxNominal(watts(4.0))),
                        inWatts(opm.gfxNominal(watts(50.0)))),
              "same", "same"});
    t.addRow({"PG impedance RPG (mOhm)", "-", "1.5", "1.5 (SA/IO)"});
    t.print(os);
    os << "\n";
}

/**
 * Fig. 2: (a) the power budget required to raise the compute clock
 * by 1% per TDP, and (b) the TDP power-budget breakdown under the
 * worst commonly-used PDN.
 */
void
fig2PerfModel(std::ostream &os, const Platform &platform,
              const ParallelRunner &)
{
    const FreqSensitivity &sens = platform.perfModel().sensitivity();
    const PdnModel &ivr = platform.pdn(PdnKind::IVR);

    banner(os, "Fig. 2(a) - power-budget increase for +1% clock");
    {
        AsciiTable t({"TDP", "CPU (mW per 1%)", "GFX (mW per 1%)"});
        for (double tdp : evaluationTdpsW) {
            t.addRow({strprintf("%.0fW", tdp),
                      AsciiTable::num(
                          inMilliwatts(sens.supplyPerPercent(
                              watts(tdp), WorkloadType::MultiThread,
                              ivr)),
                          1),
                      AsciiTable::num(
                          inMilliwatts(sens.supplyPerPercent(
                              watts(tdp), WorkloadType::Graphics,
                              ivr)),
                          1)});
        }
        t.print(os);
    }

    banner(os, "Fig. 2(b) - power-budget breakdown (worst PDN)");
    {
        std::array<const PdnModel *, 3> pdns = {
            &platform.pdn(PdnKind::IVR), &platform.pdn(PdnKind::MBVR),
            &platform.pdn(PdnKind::LDO)};
        AsciiTable t({"TDP", "SA+IO", "CPU", "LLC", "PDN loss",
                      "worst PDN"});
        for (double tdp : evaluationTdpsW) {
            BudgetShares s = budgetBreakdown(
                platform.operatingPoints(), pdns, watts(tdp),
                WorkloadType::MultiThread);
            t.addRow({strprintf("%.0fW", tdp),
                      AsciiTable::percent(s.saIo, 0),
                      AsciiTable::percent(s.cpu, 0),
                      AsciiTable::percent(s.llc, 0),
                      AsciiTable::percent(s.pdnLoss, 0), s.worstPdn});
        }
        t.print(os);
    }
    os << "\n";
}

/**
 * Fig. 3: off-chip VR efficiency curves as a function of output
 * current, output voltage and VR power state (Vin = 7.2 V).
 */
void
fig3VrEfficiency(std::ostream &os, const Platform &,
                 const ParallelRunner &)
{
    banner(os, "Fig. 3 - off-chip VR efficiency curves (Vin=7.2V)");
    BuckVr vr(BuckParams::motherboard("V_IN"));

    const double currents[] = {0.1, 0.2, 0.5, 1.0, 2.0, 3.0,
                               5.0, 10.0, 20.0};
    for (VrPowerState ps : {VrPowerState::PS0, VrPowerState::PS1}) {
        os << "Power state " << toString(ps) << ":\n";
        AsciiTable t({"Iout (A)", "Vout=0.6", "Vout=0.7", "Vout=1.0",
                      "Vout=1.8"});
        for (double iout : currents) {
            if (amps(iout) > vr.stateParams(ps).maxCurrent)
                continue;
            std::vector<std::string> row = {AsciiTable::num(iout, 1)};
            for (double vout : {0.6, 0.7, 1.0, 1.8}) {
                row.push_back(AsciiTable::percent(
                    vr.efficiency(volts(7.2), volts(vout), amps(iout),
                                  ps),
                    1));
            }
            t.addRow(row);
        }
        t.print(os);
        os << "\n";
    }

    os << "Autonomous state selection (Vout=1.0V):\n";
    AsciiTable t({"Iout (A)", "best state", "efficiency"});
    for (double iout : {0.02, 0.05, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0}) {
        auto ps = vr.bestState(volts(7.2), volts(1.0), amps(iout));
        t.addRow({AsciiTable::num(iout, 2),
                  ps ? toString(*ps) : "none",
                  AsciiTable::percent(
                      vr.efficiencyAuto(volts(7.2), volts(1.0),
                                        amps(iout)),
                      1)});
    }
    t.print(os);
    os << "\n";
}

/**
 * Fig. 4: measured vs predicted ETEE for single-/multi-thread/
 * graphics traces at 4/18/50 W across the 40-80% AR band, the
 * package C-state ladder (Fig. 4j), and the Sec. 4.3 accuracy
 * summary.
 */
void
fig4Validation(std::ostream &os, const Platform &platform,
               const ParallelRunner &runner)
{
    ValidationHarness harness(platform);

    banner(os, "Fig. 4(a-i) - measured vs predicted ETEE");
    for (WorkloadType type :
         {WorkloadType::SingleThread, WorkloadType::MultiThread,
          WorkloadType::Graphics}) {
        for (double tdp : {4.0, 18.0, 50.0}) {
            os << toString(type) << " @ " << tdp << "W:\n";
            AsciiTable t({"AR", "IVR meas", "IVR pred", "MBVR meas",
                          "MBVR pred", "LDO meas", "LDO pred"});
            for (double ar = 0.40; ar <= 0.801; ar += 0.10) {
                ValidationTrace trace;
                trace.type = type;
                trace.tdp = watts(tdp);
                trace.ar = ar;
                trace.name = strprintf("%s-%.0f-%.0f",
                                       toString(type).c_str(), tdp,
                                       ar * 100);
                std::vector<std::string> row = {
                    AsciiTable::percent(ar, 0)};
                for (PdnKind kind : classicPdnKinds) {
                    const PdnModel &pdn = platform.pdn(kind);
                    row.push_back(AsciiTable::percent(
                        harness.measuredEtee(pdn, trace), 1));
                    row.push_back(AsciiTable::percent(
                        harness.predictedEtee(pdn, trace), 1));
                }
                t.addRow(row);
            }
            t.print(os);
            os << "\n";
        }
    }

    banner(os, "Fig. 4(j) - ETEE in battery-life power states");
    {
        AsciiTable t({"State", "IVR", "MBVR", "LDO"});
        for (PackageCState cs : batteryLifeCStates) {
            ValidationTrace trace;
            trace.cstate = cs;
            trace.type = WorkloadType::BatteryLife;
            std::vector<std::string> row = {toString(cs)};
            for (PdnKind kind : classicPdnKinds) {
                row.push_back(AsciiTable::percent(
                    harness.predictedEtee(platform.pdn(kind), trace),
                    1));
            }
            t.addRow(row);
        }
        t.print(os);
    }

    banner(os, "Sec. 4.3 - model accuracy over 200 traces");
    {
        auto set = harness.makeTraceSet(200);
        AsciiTable t({"PDN", "avg accuracy", "min", "max"});
        for (PdnKind kind : classicPdnKinds) {
            ValidationStats s =
                harness.validate(platform.pdn(kind), set, runner);
            t.addRow({toString(kind),
                      AsciiTable::percent(s.avgAccuracy, 2),
                      AsciiTable::percent(s.minAccuracy, 2),
                      AsciiTable::percent(s.maxAccuracy, 2)});
        }
        t.print(os);
    }
    os << "\n";
}

/**
 * Fig. 5: PDN power-conversion loss breakdown of the three
 * commonly-used PDNs at 4/18/50 W (CPU-intensive, AR = 56%), with
 * chip input current and load-line normalized to the IVR PDN.
 */
void
fig5LossBreakdown(std::ostream &os, const Platform &platform,
                  const ParallelRunner &)
{
    banner(os, "Fig. 5 - PDN power-conversion loss breakdown "
               "(CPU-intensive, AR=56%)");

    OperatingPointModel::Query q;
    q.ar = 0.56;
    q.type = WorkloadType::MultiThread;

    AsciiTable t({"PDN", "TDP", "VR ineff.", "I2R core+GFX",
                  "I2R SA+IO", "others", "ETEE", "Iin (norm)",
                  "RLL (norm)"});
    for (PdnKind kind : classicPdnKinds) {
        for (double tdp : {4.0, 18.0, 50.0}) {
            q.tdp = watts(tdp);
            PlatformState s = platform.operatingPoints().build(q);
            EteeResult r = platform.pdn(kind).evaluate(s);
            EteeResult ivr_r = platform.pdn(PdnKind::IVR).evaluate(s);
            t.addRow({toString(kind), strprintf("%.0fW", tdp),
                      AsciiTable::percent(r.lossFraction(r.loss.vrLoss),
                                          1),
                      AsciiTable::percent(
                          r.lossFraction(r.loss.conductionCompute), 1),
                      AsciiTable::percent(
                          r.lossFraction(r.loss.conductionUncore), 1),
                      AsciiTable::percent(r.lossFraction(r.loss.other),
                                          1),
                      AsciiTable::percent(r.etee(), 1),
                      AsciiTable::num(r.chipInputCurrent /
                                          ivr_r.chipInputCurrent,
                                      2),
                      AsciiTable::num(inMilliohms(r.computeLoadLine) /
                                          inMilliohms(
                                              ivr_r.computeLoadLine),
                                      2)});
        }
    }
    t.print(os);
    os << "\n";
}

/**
 * Fig. 7: per-benchmark SPEC CPU2006 performance of the five PDNs at
 * 4 W TDP, normalized to the IVR PDN, in suite order (sorted by
 * performance-scalability).
 */
void
fig7Spec4w(std::ostream &os, const Platform &platform,
           const ParallelRunner &runner)
{
    banner(os,
           "Fig. 7 - SPEC CPU2006 performance at 4W TDP (IVR = 100%)");

    std::array<std::vector<double>, allPdnKinds.size()> rel;
    for (size_t k = 0; k < allPdnKinds.size(); ++k) {
        rel[k] = suiteRelativePerf(platform, allPdnKinds[k], watts(4.0),
                                   specCpu2006(), runner);
    }

    AsciiTable t({"Benchmark", "Scal.", "IVR", "MBVR", "LDO", "I+MBVR",
                  "FlexWatts"});
    const auto &suite = specCpu2006();
    for (size_t i = 0; i < suite.size(); ++i) {
        t.addRow({suite[i].name,
                  AsciiTable::percent(suite[i].scalability, 0),
                  AsciiTable::percent(rel[0][i], 1),
                  AsciiTable::percent(rel[1][i], 1),
                  AsciiTable::percent(rel[2][i], 1),
                  AsciiTable::percent(rel[3][i], 1),
                  AsciiTable::percent(rel[4][i], 1)});
    }
    std::vector<std::string> avg = {"Average", "-"};
    for (size_t k = 0; k < allPdnKinds.size(); ++k) {
        double sum = 0.0;
        for (double r : rel[k])
            sum += r;
        avg.push_back(AsciiTable::percent(
            sum / static_cast<double>(rel[k].size()), 1));
    }
    t.addRow(avg);
    t.print(os);
    os << "\n";
}

/**
 * Figs. 8(a)/(b): a suite's average performance of the five PDNs
 * across the 4-50 W TDP range, normalized to the IVR PDN.
 */
void
suitePerfVsTdp(std::ostream &os, const Platform &platform,
               const ParallelRunner &runner, const std::string &title,
               const std::vector<Workload> &suite)
{
    banner(os, title);

    AsciiTable t({"TDP", "IVR", "MBVR", "LDO", "I+MBVR", "FlexWatts"});
    for (double tdp : evaluationTdpsW) {
        std::vector<std::string> row = {strprintf("%.0fW", tdp)};
        for (PdnKind kind : allPdnKinds) {
            row.push_back(AsciiTable::percent(
                suiteMeanRelativePerf(platform, kind, watts(tdp), suite,
                                      runner),
                1));
        }
        t.addRow(row);
    }
    t.print(os);
    os << "\n";
}

/**
 * Fig. 8(c): average power of the four battery-life workloads under
 * the five PDNs, normalized to the IVR PDN, plus a battery-life
 * projection for a 50 Wh pack. Each workload's profile runs as a
 * 33.3 ms-per-state trace, statically, at the platform's TDP.
 */
void
fig8cBattery(std::ostream &os, const Platform &platform,
             const ParallelRunner &)
{
    IntervalSimulator sim(platform.operatingPoints(),
                          platform.config().tdp);
    auto avg = [&](const BatteryProfile &profile, PdnKind kind) {
        PhaseSoA trace(
            traceFromBatteryProfile(profile, milliseconds(33.3), 4));
        return sim.run(trace, platform.pdn(kind)).averagePower();
    };

    banner(os, "Fig. 8(c) - battery-life workload average power "
               "(IVR = 100%)");

    AsciiTable t({"Workload", "IVR", "MBVR", "LDO", "I+MBVR",
                  "FlexWatts"});
    for (const BatteryProfile &profile : batteryLifeWorkloads()) {
        double base = inWatts(avg(profile, PdnKind::IVR));
        std::vector<std::string> row = {profile.name};
        for (PdnKind kind : allPdnKinds) {
            row.push_back(AsciiTable::percent(
                inWatts(avg(profile, kind)) / base, 1));
        }
        t.addRow(row);
    }
    t.print(os);

    banner(os, "Battery life with a 50 Wh pack (hours)");
    BatteryModel battery(wattHours(50.0));
    AsciiTable life({"Workload", "IVR", "FlexWatts", "gain"});
    for (const BatteryProfile &profile : batteryLifeWorkloads()) {
        double h_ivr = battery.lifeHours(avg(profile, PdnKind::IVR));
        double h_flex =
            battery.lifeHours(avg(profile, PdnKind::FlexWatts));
        life.addRow({profile.name, AsciiTable::num(h_ivr, 1),
                     AsciiTable::num(h_flex, 1),
                     AsciiTable::percent(h_flex / h_ivr - 1.0, 1)});
    }
    life.print(os);
    os << "\n";
}

/**
 * Fig. 8(d): bill-of-materials cost of the five PDNs across the TDP
 * range, normalized to the IVR PDN, with the worst-case rail sizing
 * behind it.
 */
void
fig8dBom(std::ostream &os, const Platform &platform,
         const ParallelRunner &)
{
    banner(os, "Fig. 8(d) - normalized BOM cost (IVR = 1.0)");

    AsciiTable t({"TDP", "IVR", "MBVR", "LDO", "I+MBVR", "FlexWatts",
                  "regime"});
    for (double tdp : evaluationTdpsW) {
        std::vector<std::string> row = {strprintf("%.0fW", tdp)};
        for (PdnKind kind : allPdnKinds) {
            row.push_back(AsciiTable::num(
                normalizedBom(platform, kind, watts(tdp)), 2));
        }
        row.push_back(platform.costs()
                              .evaluate(platform.pdn(PdnKind::IVR),
                                        watts(tdp))
                              .usesPmic
                          ? "PMIC"
                          : "VRM");
        t.addRow(row);
    }
    t.print(os);

    banner(os, "Worst-case rail sizing at 50W (per PDN)");
    AsciiTable rails({"PDN", "rail", "Vout", "Iccmax (A)"});
    for (PdnKind kind : allPdnKinds) {
        for (const OffChipRail &r : platform.costs().worstCaseRails(
                 platform.pdn(kind), watts(50.0))) {
            rails.addRow({toString(kind), r.name,
                          AsciiTable::num(inVolts(r.outputVoltage), 2),
                          AsciiTable::num(inAmps(r.iccMax), 1)});
        }
    }
    rails.print(os);
    os << "\n";
}

/**
 * Fig. 8(e): board area of the five PDNs across the TDP range,
 * normalized to the IVR PDN, plus the FlexWatts on-die area overhead
 * from Sec. 6.
 */
void
fig8eArea(std::ostream &os, const Platform &platform,
          const ParallelRunner &)
{
    banner(os, "Fig. 8(e) - normalized board area (IVR = 1.0)");

    AsciiTable t({"TDP", "IVR", "MBVR", "LDO", "I+MBVR", "FlexWatts"});
    for (double tdp : evaluationTdpsW) {
        std::vector<std::string> row = {strprintf("%.0fW", tdp)};
        for (PdnKind kind : allPdnKinds) {
            row.push_back(AsciiTable::num(
                normalizedArea(platform, kind, watts(tdp)), 2));
        }
        t.addRow(row);
    }
    t.print(os);

    banner(os, "Sec. 6 - FlexWatts on-die area overhead");
    double rail_mm2 =
        inSquareMillimetres(FlexWattsPdn::ldoModeAreaOverhead());
    os << "LDO-mode overhead per hybrid rail: "
       << AsciiTable::num(rail_mm2, 3) << " mm^2 (4 rails: "
       << AsciiTable::num(4.0 * rail_mm2, 3)
       << " mm^2; ~0.03-0.04% of a client die)\n\n";
}

/** Sec. 6: the 94 us mode-switch flow budget against DVFS latency. */
void
modeSwitching(std::ostream &os, const Platform &,
              const ParallelRunner &)
{
    banner(os, "Sec. 6 - mode-switching flow latency budget");
    ModeSwitchParams p;
    AsciiTable t({"Step", "Latency (us)"});
    t.addRow({"1. enter package C6 (context save, power off)",
              AsciiTable::num(inMicroseconds(p.enterC6), 0)});
    t.addRow({"2. retarget V_IN + reconfigure hybrid VRs",
              AsciiTable::num(inMicroseconds(p.retargetVrs), 0)});
    t.addRow({"3. exit package C6 and resume",
              AsciiTable::num(inMicroseconds(p.exitC6), 0)});
    t.addRow({"total",
              AsciiTable::num(inMicroseconds(p.totalLatency()), 0)});
    t.print(os);
    os << "\nFor reference, DVFS (P-state) transitions on "
          "client processors take up to 500 us.\n\n";
}

/**
 * Ablation study (an extension beyond the paper's evaluation):
 * FlexWatts mode policies on a bursty trace (oracle, Algorithm 1
 * with the 94 us switch cost, either mode pinned), a predictor
 * hysteresis sweep, and the paper's linearized performance model
 * against the exact TDP budget solver.
 */
void
ablationPredictor(std::ostream &os, const Platform &platform,
                  const ParallelRunner &)
{
    const Power tdp = watts(15.0);
    IntervalSimulator sim(platform.operatingPoints(), tdp);
    TraceGenerator gen(2026);
    PhaseTrace trace = gen.burstyCompute(12, milliseconds(60.0),
                                         milliseconds(90.0));

    banner(os, "Ablation 1 - mode policies on a bursty trace "
               "(15W TDP)");
    {
        SimResult oracle = sim.runOracle(trace, platform.flexWatts());

        PmuConfig cfg;
        cfg.tdp = tdp;
        Pmu pmu(cfg, platform.predictor());
        SimResult predicted = sim.run(trace, platform.flexWatts(), pmu);

        SimResult ivr_static = sim.run(trace, platform.pdn(PdnKind::IVR));
        SimResult mbvr_static =
            sim.run(trace, platform.pdn(PdnKind::MBVR));

        AsciiTable t({"Policy", "energy (J)", "avg ETEE", "switches",
                      "switch overhead (us)"});
        auto row = [&](const std::string &name, const SimResult &r) {
            t.addRow({name, AsciiTable::num(inJoules(r.supplyEnergy), 3),
                      AsciiTable::percent(r.averageEtee(), 1),
                      std::to_string(r.modeSwitches),
                      AsciiTable::num(
                          inMicroseconds(r.switchOverheadTime), 0)});
        };
        row("FlexWatts oracle (free switches)", oracle);
        row("FlexWatts Algorithm 1 + 94us flow", predicted);
        row("static IVR PDN", ivr_static);
        row("static MBVR PDN", mbvr_static);
        t.print(os);
    }

    banner(os, "Ablation 2 - predictor hysteresis sweep");
    {
        AsciiTable t({"hysteresis", "energy (J)", "switches"});
        for (double h : {0.0, 0.002, 0.005, 0.01, 0.02, 0.05}) {
            ModePredictor predictor(platform.eteeTable(), h);
            PmuConfig cfg;
            cfg.tdp = tdp;
            Pmu pmu(cfg, predictor);
            SimResult r = sim.run(trace, platform.flexWatts(), pmu);
            t.addRow({AsciiTable::percent(h, 1),
                      AsciiTable::num(inJoules(r.supplyEnergy), 3),
                      std::to_string(r.modeSwitches)});
        }
        t.print(os);
    }

    banner(os, "Ablation 3 - linearized perf model vs exact TDP "
               "budget solver (LDO vs IVR)");
    {
        BudgetSolver solver(platform.operatingPoints());
        Workload w;
        w.name = "ideal";
        w.type = WorkloadType::MultiThread;
        w.ar = 0.56;
        w.scalability = 1.0;

        AsciiTable t({"TDP", "linearized gain", "exact gain",
                      "exact clamped at Fmax"});
        for (double tdp_w : {4.0, 8.0, 10.0, 18.0}) {
            PerfResult lin = platform.perfModel().relativePerformance(
                platform.pdn(PdnKind::LDO), platform.pdn(PdnKind::IVR),
                watts(tdp_w), w);
            auto ivr_sol = solver.solve(platform.pdn(PdnKind::IVR),
                                        watts(tdp_w), w);
            auto ldo_sol = solver.solve(platform.pdn(PdnKind::LDO),
                                        watts(tdp_w), w);
            double exact_gain =
                ldo_sol.frequency / ivr_sol.frequency - 1.0;
            t.addRow({strprintf("%.0fW", tdp_w),
                      AsciiTable::percent(lin.freqGainPercent / 100.0,
                                          1),
                      AsciiTable::percent(exact_gain, 1),
                      ldo_sol.clampedAtFmax ? "yes" : "no"});
        }
        t.print(os);
        os << "\nThe linearization overstates the gain where "
              "dP/df steepens above the baseline clock.\n\n";
    }
}

/**
 * Extension study: transient (di/dt) first droop across the PDNs
 * for a Turbo-entry-class current step, and the largest step each
 * PDN absorbs within a 30 mV guardband. Quantifies Sec. 2.3: the IVR
 * PDN is the most di/dt-sensitive (little on-die decap), MBVR the
 * least, and FlexWatts inherits the IVR's decap stack.
 */
void
transientNoise(std::ostream &os, const Platform &,
               const ParallelRunner &)
{
    banner(os, "Extension - di/dt first-droop comparison");

    const Current step = amps(15.0); // Turbo-entry-class load step
    AsciiTable t({"PDN", "edge", "die droop (mV)", "pkg droop (mV)",
                  "board droop (mV)", "worst (mV)",
                  "max step @30mV (A)"});
    for (PdnKind kind : allPdnKinds) {
        TransientModel m(DecapStack::forPdn(kind));
        for (double edge_ns : {0.5, 5.0, 50.0}) {
            Time edge = microseconds(edge_ns * 1e-3);
            DroopEstimate e = m.droop(step, edge);
            t.addRow({toString(kind),
                      strprintf("%.1fns", edge_ns),
                      AsciiTable::num(inMillivolts(e.dieDroop), 1),
                      AsciiTable::num(inMillivolts(e.packageDroop), 1),
                      AsciiTable::num(inMillivolts(e.boardDroop), 1),
                      AsciiTable::num(inMillivolts(e.worst()), 1),
                      AsciiTable::num(
                          inAmps(m.maxStep(millivolts(30.0), edge)),
                          1)});
        }
    }
    t.print(os);
    os << "\nShape check: IVR-style stacks droop hardest at "
          "fast edges; MBVR absorbs the largest steps; "
          "FlexWatts == IVR (shared decap, Sec. 6).\n\n";
}

constexpr std::array<Figure, 28> figures = {{
    {"table2_params.txt", table2Params},
    {"fig2_perf_model.txt", fig2PerfModel},
    {"fig3_vr_efficiency.txt", fig3VrEfficiency},
    {"fig4_validation.txt", fig4Validation},
    {"fig4_etee_vs_ar_single-thread_4W.csv",
     fig4EteeVsAr<WorkloadType::SingleThread, 4>},
    {"fig4_etee_vs_ar_single-thread_18W.csv",
     fig4EteeVsAr<WorkloadType::SingleThread, 18>},
    {"fig4_etee_vs_ar_single-thread_50W.csv",
     fig4EteeVsAr<WorkloadType::SingleThread, 50>},
    {"fig4_etee_vs_ar_multi-thread_4W.csv",
     fig4EteeVsAr<WorkloadType::MultiThread, 4>},
    {"fig4_etee_vs_ar_multi-thread_18W.csv",
     fig4EteeVsAr<WorkloadType::MultiThread, 18>},
    {"fig4_etee_vs_ar_multi-thread_50W.csv",
     fig4EteeVsAr<WorkloadType::MultiThread, 50>},
    {"fig4_etee_vs_ar_graphics_4W.csv",
     fig4EteeVsAr<WorkloadType::Graphics, 4>},
    {"fig4_etee_vs_ar_graphics_18W.csv",
     fig4EteeVsAr<WorkloadType::Graphics, 18>},
    {"fig4_etee_vs_ar_graphics_50W.csv",
     fig4EteeVsAr<WorkloadType::Graphics, 50>},
    {"fig4j_etee_vs_cstate.csv", fig4jEteeVsCState},
    {"etee_vs_tdp_cpu.csv", eteeVsTdp<WorkloadType::MultiThread>},
    {"etee_vs_tdp_gfx.csv", eteeVsTdp<WorkloadType::Graphics>},
    {"fig5_loss_breakdown.txt", fig5LossBreakdown},
    {"fig7_spec_4w.txt", fig7Spec4w},
    {"fig8a_spec_tdp.txt",
     [](std::ostream &os, const Platform &platform,
        const ParallelRunner &runner) {
         suitePerfVsTdp(os, platform, runner,
                        "Fig. 8(a) - SPEC CPU2006 average performance "
                        "(IVR = 100%)",
                        specCpu2006());
     }},
    {"fig8b_graphics.txt",
     [](std::ostream &os, const Platform &platform,
        const ParallelRunner &runner) {
         suitePerfVsTdp(
             os, platform, runner,
             "Fig. 8(b) - 3DMark06 average performance (IVR = 100%)",
             gfx3dmark06());
     }},
    {"fig8c_battery.txt", fig8cBattery},
    {"fig8d_bom.txt", fig8dBom},
    {"fig8d_bom_vs_tdp.csv", costVsTdp<normalizedBom>},
    {"fig8e_area.txt", fig8eArea},
    {"fig8e_area_vs_tdp.csv", costVsTdp<normalizedArea>},
    {"mode_switching.txt", modeSwitching},
    {"ablation_predictor.txt", ablationPredictor},
    {"transient_noise.txt", transientNoise},
}};

} // anonymous namespace

std::span<const Figure>
paperFigures()
{
    return figures;
}

} // namespace pdnspot
