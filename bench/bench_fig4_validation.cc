/**
 * @file
 * Regenerates Fig. 4: PDNspot validation - measured vs predicted ETEE
 * for single-/multi-thread/graphics traces at 4/18/50 W across the
 * 40-80% AR band, the package C-state ladder (Fig. 4j), and the
 * Sec. 4.3 accuracy summary.
 */

#include "bench_util.hh"

#include "common/table.hh"
#include "pdnspot/validation.hh"

namespace
{

using namespace pdnspot;

void
printFigure()
{
    const Platform &pf = bench::platform();
    ValidationHarness harness(pf);

    bench::banner("Fig. 4(a-i) - measured vs predicted ETEE");
    for (WorkloadType type :
         {WorkloadType::SingleThread, WorkloadType::MultiThread,
          WorkloadType::Graphics}) {
        for (double tdp : {4.0, 18.0, 50.0}) {
            std::cout << toString(type) << " @ " << tdp << "W:\n";
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
                    const PdnModel &pdn = pf.pdn(kind);
                    row.push_back(AsciiTable::percent(
                        harness.measuredEtee(pdn, trace), 1));
                    row.push_back(AsciiTable::percent(
                        harness.predictedEtee(pdn, trace), 1));
                }
                t.addRow(row);
            }
            t.print(std::cout);
            std::cout << "\n";
        }
    }

    bench::banner("Fig. 4(j) - ETEE in battery-life power states");
    {
        AsciiTable t({"State", "IVR", "MBVR", "LDO"});
        for (PackageCState cs : batteryLifeCStates) {
            ValidationTrace trace;
            trace.cstate = cs;
            trace.type = WorkloadType::BatteryLife;
            std::vector<std::string> row = {toString(cs)};
            for (PdnKind kind : classicPdnKinds) {
                row.push_back(AsciiTable::percent(
                    harness.predictedEtee(pf.pdn(kind), trace), 1));
            }
            t.addRow(row);
        }
        t.print(std::cout);
    }

    bench::banner("Sec. 4.3 - model accuracy over 200 traces");
    {
        auto set = harness.makeTraceSet(200);
        ParallelRunner pool;
        AsciiTable t({"PDN", "avg accuracy", "min", "max"});
        for (PdnKind kind : classicPdnKinds) {
            ValidationStats s =
                harness.validate(pf.pdn(kind), set, pool);
            t.addRow({toString(kind),
                      AsciiTable::percent(s.avgAccuracy, 2),
                      AsciiTable::percent(s.minAccuracy, 2),
                      AsciiTable::percent(s.maxAccuracy, 2)});
        }
        t.print(std::cout);
    }
    std::cout << "\n";
}

void
validate200Traces(benchmark::State &state)
{
    const Platform &pf = bench::platform();
    ValidationHarness harness(pf);
    auto set = harness.makeTraceSet(200);
    ParallelRunner pool;
    for (auto _ : state) {
        ValidationStats s =
            harness.validate(pf.pdn(PdnKind::IVR), set, pool);
        benchmark::DoNotOptimize(s);
    }
}

BENCHMARK(validate200Traces);

} // anonymous namespace

PDNSPOT_BENCH_MAIN(printFigure)
