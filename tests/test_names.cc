/**
 * @file
 * The name tables (common/names.hh), table-driven: every vocabulary
 * a spec, CSV or command line spells round-trips through its one
 * table, an unknown name raises the one error form
 *
 *     unknown <what> "<name>" (expected one of <a>, <b>, ...)
 *
 * and every spec binder raises it at the offending value's
 * file:line:col position.
 */

#include <cctype>
#include <functional>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "campaign/campaign_spec.hh"
#include "common/logging.hh"
#include "config/campaign_config.hh"
#include "config/fleet_config.hh"
#include "config/json.hh"
#include "flexwatts/hybrid_mode.hh"
#include "obs/metrics.hh"
#include "obs/probe.hh"
#include "pdn/pdn_model.hh"
#include "pdnspot/platform.hh"
#include "power/domain.hh"
#include "power/package_cstate.hh"
#include "power/workload_type.hh"
#include "vr/ldo_vr.hh"
#include "vr/vr_power_state.hh"
#include "workload/battery_profiles.hh"
#include "workload/trace_generator.hh"
#include "workload/trace_io.hh"
#include "workload/trace_source.hh"

namespace pdnspot
{
namespace
{

/** The ConfigError message `body` raises ("" if none). */
std::string
errorOf(const std::function<void()> &body)
{
    try {
        body();
    } catch (const ConfigError &e) {
        return e.message();
    }
    return "";
}

std::string
unknown(const std::string &what, const std::string &name,
        const std::string &expected)
{
    return "unknown " + what + " \"" + name + "\" (expected one of " +
           expected + ")";
}

/**
 * One enum vocabulary: its table is in enumerator order, every row
 * round-trips through nameOf/toString/parseName/nameFromJson, the
 * listing is `expected`, and an unknown name fails with the one
 * error form — at the value's position when bound from JSON.
 */
template <typename E>
void
expectVocabulary(const std::string &what, const std::string &expected)
{
    constexpr const auto &table = nameTable<E>;
    SCOPED_TRACE(what);
    EXPECT_STREQ(table.what, what.c_str());
    EXPECT_TRUE(inEnumOrder(table));
    EXPECT_EQ(namesOf(table), expected);
    for (const Named<E> &row : table) {
        EXPECT_STREQ(nameOf(row.value), row.name);
        EXPECT_EQ(toString(row.value), row.name);
        EXPECT_EQ(parseName<E>(row.name), row.value);
        JsonValue doc = parseJson(
            std::string("{\"v\": \"") + row.name + "\"}", "spec.json");
        EXPECT_EQ(nameFromJson<E>(*doc.find("v")), row.value);
    }

    EXPECT_EQ(errorOf([] { parseName<E>("no-such"); }),
              unknown(what, "no-such", expected));
    // Spellings are exact: no case folding, no empty name.
    std::string flipped = table.rows[0].name;
    for (char &c : flipped)
        c = std::islower(static_cast<unsigned char>(c))
                ? static_cast<char>(std::toupper(c))
                : static_cast<char>(std::tolower(c));
    EXPECT_EQ(errorOf([&] { parseName<E>(flipped); }),
              unknown(what, flipped, expected));
    EXPECT_EQ(errorOf([] { parseName<E>(""); }),
              unknown(what, "", expected));

    JsonValue doc = parseJson("{\"v\":  \"no-such\"}", "spec.json");
    EXPECT_EQ(errorOf([&] { nameFromJson<E>(*doc.find("v")); }),
              "spec.json:1:8: " + unknown(what, "no-such", expected));
}

TEST(NameTableTest, EveryVocabularyRoundTripsAndRejectsUnknownNames)
{
    expectVocabulary<PdnKind>("PDN kind",
                              "IVR, MBVR, LDO, I+MBVR, FlexWatts");
    expectVocabulary<SimMode>("simulation mode", "static, pmu, oracle");
    expectVocabulary<PackageCState>("C-state",
                                    "C0, C0MIN, C2, C3, C6, C7, C8");
    expectVocabulary<WorkloadType>(
        "workload type",
        "single-thread, multi-thread, graphics, battery-life");
    expectVocabulary<HybridMode>("hybrid mode", "IVR-Mode, LDO-Mode");
    expectVocabulary<LdoMode>("LDO mode", "regulation, bypass, power-gate");
    expectVocabulary<VrPowerState>("VR power state", "PS0, PS1, PS3, PS4");
    expectVocabulary<DomainId>("domain", "Core0, Core1, LLC, GFX, SA, IO");
    expectVocabulary<ProbeSignal>(
        "probe signal",
        "supply_power_w, nominal_power_w, etee, mode, vr_loss_w, "
        "conduction_compute_w, conduction_uncore_w, other_loss_w, "
        "battery_soc");
    expectVocabulary<MetricKind>("metric kind",
                                 "counter, gauge, histogram");
    expectVocabulary<LogLevel>("log level", "info, warn, silent");
    expectVocabulary<JsonValue::Kind>(
        "JSON kind", "null, boolean, number, string, array, object");
    expectVocabulary<TraceGeneratorKind>(
        "generator kind", "bursty-compute, day-in-the-life, random-mix");
}

TEST(NameTableTest, ValueListsFollowTheTables)
{
    EXPECT_EQ(allPdnKinds, valuesOf(nameTable<PdnKind>));
    EXPECT_EQ(allProbeSignals.size(), probeSignalCount);
    for (size_t i = 0; i < allProbeSignals.size(); ++i)
        EXPECT_EQ(static_cast<size_t>(allProbeSignals[i]), i);
}

TEST(NameTableTest, CataloguesShareTheErrorForm)
{
    EXPECT_EQ(errorOf([] { platformPresetByName("atx-750w"); }),
              unknown("platform preset", "atx-750w",
                      namesOf(allPlatformPresets())));
    EXPECT_EQ(namesOf(allPlatformPresets()),
              "fanless-tablet-4w, ultraportable-15w, h-series-45w");
    EXPECT_EQ(errorOf([] { batteryProfileByName("mining"); }),
              unknown("battery profile", "mining",
                      namesOf(batteryLifeWorkloads())));
    EXPECT_EQ(errorOf([] { TraceSpec::library("no-such").resolve(); }),
              unknown("library trace", "no-such",
                      namesOf(standardCampaignTraces(42))));
    for (const PlatformConfig &cfg : allPlatformPresets())
        EXPECT_EQ(platformPresetByName(cfg.name).name, cfg.name);
}

/**
 * Every spec binder that spells a vocabulary: each row's text holds
 * one "bogus" value, and the error must name the vocabulary at that
 * value's (line 1) column.
 */
struct BinderRow
{
    const char *binder;
    std::string text;
    std::string what;
    std::string expected;
};

TEST(NameTableTest, SpecBindersFailAtTheValuesPosition)
{
    const std::string kinds = namesOf(nameTable<PdnKind>);
    const std::string modes = namesOf(nameTable<SimMode>);
    const std::string presets = namesOf(allPlatformPresets());
    auto campaign = [](const std::string &traces,
                       const std::string &rest) {
        return R"({"traces": )" + traces +
               R"(, "platforms": ["ultraportable-15w"], "pdns": ["IVR"])" +
               rest + "}";
    };
    const std::string lib = R"([{"library": "bursty-compute"}])";
    const std::vector<BinderRow> rows = {
        {"campaign", campaign(lib, R"(, "mode": "bogus")"),
         "simulation mode", modes},
        {"campaign",
         R"({"traces": [{"library": "bursty-compute"}], )"
         R"("platforms": ["ultraportable-15w"], "pdns": ["bogus"]})",
         "PDN kind", kinds},
        {"campaign",
         R"({"traces": [{"library": "bursty-compute"}], )"
         R"("platforms": ["bogus"], "pdns": "all"})",
         "platform preset", presets},
        {"campaign",
         R"({"traces": [{"library": "bursty-compute"}], )"
         R"("platforms": [{"preset": "bogus"}], "pdns": "all"})",
         "platform preset", presets},
        {"campaign", campaign(R"([{"library": "bogus"}])", ""),
         "library trace", namesOf(standardCampaignTraces(42))},
        {"campaign", campaign(R"({"names": ["bogus"]})", ""),
         "library trace", namesOf(standardCampaignTraces(42))},
        {"campaign", campaign(R"([{"generator": {"kind": "bogus"}}])", ""),
         "generator kind", namesOf(nameTable<TraceGeneratorKind>)},
        {"campaign", campaign(R"([{"profile": "bogus"}])", ""),
         "battery profile", namesOf(batteryLifeWorkloads())},
        {"campaign", campaign(lib, R"(, "probes": [{"pdn": "bogus"}])"),
         "PDN kind", kinds},
        {"campaign", campaign(lib, R"(, "probes": [{"mode": "bogus"}])"),
         "simulation mode", modes},
        {"campaign",
         campaign(lib, R"(, "probes": [{"signals": ["etee", "bogus"]}])"),
         "probe signal", namesOf(nameTable<ProbeSignal>)},
        {"fleet",
         R"({"cohorts": [{"name": "a", "count": 1, )"
         R"("platform": "ultraportable-15w", "pdn": "bogus", )"
         R"("trace": {"library": "bursty-compute"}}]})",
         "PDN kind", kinds},
        {"fleet",
         R"({"cohorts": [{"name": "a", "count": 1, )"
         R"("platform": "ultraportable-15w", "mode": "bogus", )"
         R"("trace": {"library": "bursty-compute"}}]})",
         "simulation mode", modes},
        {"trace", R"({"phases": [{"duration_ms": 1, "cstate": "bogus"}]})",
         "C-state", namesOf(nameTable<PackageCState>)},
        {"trace",
         R"({"phases": [{"duration_ms": 1, "cstate": "C0", )"
         R"("type": "bogus"}]})",
         "workload type", namesOf(nameTable<WorkloadType>)},
    };
    for (const BinderRow &row : rows) {
        SCOPED_TRACE(row.text);
        size_t at = row.text.find("\"bogus\"");
        ASSERT_NE(at, std::string::npos);
        std::string want = "spec.json:1:" + std::to_string(at + 1) +
                           ": " + unknown(row.what, "bogus", row.expected);
        std::string binder = row.binder;
        EXPECT_EQ(errorOf([&] {
                      if (binder == "campaign")
                          loadCampaignSpec(row.text, "spec.json");
                      else if (binder == "fleet")
                          loadFleetSpec(row.text, "spec.json");
                      else
                          traceFromJson(parseJson(row.text, "spec.json"),
                                        "t");
                  }),
                  want);
    }
}

TEST(NameTableTest, TraceCsvRowsNameTheLineAndTheVocabulary)
{
    std::istringstream csv("duration_s,cstate,type,ar\n"
                           "0.01,C0,single-thread,0.5\n"
                           "0.01,c0,single-thread,0.5\n");
    EXPECT_EQ(errorOf([&] { readTraceCsv(csv, "t", "t.csv"); }),
              "t.csv:3: " + unknown("C-state", "c0",
                                    namesOf(nameTable<PackageCState>)));
}

} // namespace
} // namespace pdnspot
