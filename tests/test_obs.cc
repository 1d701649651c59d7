/**
 * @file
 * Tests for the observability layer: deterministic JSON emission,
 * ledger sections/tables and their JSON/CSV exports, the subsystem
 * builders, and the conservation audits (clean results pass, cooked
 * books are caught with a `source:metric expected-vs-got` line).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "dnn/networks.hh"
#include "estimator/npu_estimator.hh"
#include "npusim/sim.hh"
#include "obs/audit.hh"
#include "obs/json_reader.hh"
#include "obs/json_writer.hh"
#include "obs/ledger.hh"
#include "serving/simulator.hh"

namespace supernpu {
namespace obs {
namespace {

// --- JSON writer ------------------------------------------------------

TEST(JsonWriter, EscapesControlAndSpecialCharacters)
{
    EXPECT_EQ(jsonEscaped("plain"), "plain");
    EXPECT_EQ(jsonEscaped("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscaped("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscaped("a\nb\tc"), "a\\nb\\tc");
    EXPECT_EQ(jsonEscaped(std::string("x\x01y")), "x\\u0001y");
}

TEST(JsonWriter, NumbersRoundTripExactly)
{
    for (double v : {0.0, 1.0, -2.5, 1.0 / 3.0, 52.6e9, 1e-300}) {
        const std::string text = jsonNumber(v);
        EXPECT_EQ(std::strtod(text.c_str(), nullptr), v) << text;
    }
}

TEST(JsonWriter, BuildsNestedDocumentInOrder)
{
    JsonWriter writer;
    writer.beginObject()
        .key("a")
        .value((std::uint64_t)1)
        .key("b")
        .beginArray()
        .value(2.5)
        .value("three")
        .value(true)
        .endArray()
        .endObject();
    const std::string doc = writer.str();
    // Keys in insertion order, values rendered deterministically.
    EXPECT_LT(doc.find("\"a\""), doc.find("\"b\""));
    EXPECT_NE(doc.find("2.5"), std::string::npos);
    EXPECT_NE(doc.find("\"three\""), std::string::npos);
    EXPECT_NE(doc.find("true"), std::string::npos);
}

TEST(JsonWriterDeath, NonFiniteNumberHasNoJsonRepresentation)
{
    // `%.17g` renders NaN as `nan` and infinity as `inf` — neither
    // is JSON, so every strict reader downstream choked on the
    // ledger. Dying at the write names the bug at its source.
    EXPECT_DEATH(jsonNumber(std::numeric_limits<double>::quiet_NaN()),
                 "no JSON representation");
    EXPECT_DEATH(jsonNumber(std::numeric_limits<double>::infinity()),
                 "no JSON representation");
}

TEST(JsonWriterDeath, NonFiniteValueNamesItsKeyPath)
{
    JsonWriter json;
    json.beginObject();
    json.key("sections").beginObject();
    json.key("sim").beginObject();
    json.key("totalSec").value(1.0);
    EXPECT_DEATH(
        json.key("throughput")
            .value(std::numeric_limits<double>::quiet_NaN()),
        "sections\\.sim\\.throughput");
}

TEST(JsonWriterDeath, NonFiniteArrayElementNamesItsIndex)
{
    JsonWriter json;
    json.beginObject();
    json.key("samples").beginArray();
    json.value(1.0);
    json.value(2.0);
    EXPECT_DEATH(
        json.value(std::numeric_limits<double>::infinity()),
        "samples\\[2\\]");
}

TEST(JsonWriter, FiniteValuesStillParseAfterPathTracking)
{
    // The breadcrumb bookkeeping exists only for error paths; a
    // document of finite values must still be strict JSON. (The
    // bench baseline's byte-equality gate pins the exact bytes.)
    JsonWriter json;
    json.beginObject();
    json.key("a").beginArray();
    json.value(1.0).value(2.0);
    json.endArray();
    json.key("b").beginObject();
    json.key("c").value(3.0);
    json.endObject();
    json.endObject();
    std::string error;
    const auto doc = parseJson(json.str(), &error);
    ASSERT_TRUE(doc.has_value()) << error;
    const JsonValue *list = doc->find("a");
    ASSERT_TRUE(list && list->isArray());
    EXPECT_EQ(list->array.size(), 2u);
}

TEST(JsonWriter, IdenticalInputsGiveIdenticalBytes)
{
    const auto build = [] {
        JsonWriter writer;
        writer.beginObject()
            .key("x")
            .value(1.0 / 7.0)
            .key("y")
            .value((std::uint64_t)42)
            .endObject();
        return writer.str();
    };
    EXPECT_EQ(build(), build());
}

// --- Value ------------------------------------------------------------

TEST(LedgerValue, KindsAndNumericView)
{
    const Value i = Value::integer(7);
    const Value r = Value::real(2.5);
    const Value t = Value::text("label");
    EXPECT_EQ(i.kind(), Value::Kind::Int);
    EXPECT_EQ(i.asInt(), 7ull);
    EXPECT_DOUBLE_EQ(i.number(), 7.0);
    EXPECT_DOUBLE_EQ(r.number(), 2.5);
    EXPECT_DOUBLE_EQ(t.number(), 0.0);
    EXPECT_EQ(t.asText(), "label");
}

TEST(LedgerValue, CsvTextNeutralizesDelimiters)
{
    EXPECT_EQ(Value::text("a,b\nc").csvText(), "a;b;c");
    EXPECT_EQ(Value::integer(9).csvText(), "9");
}

// --- RunLedger --------------------------------------------------------

TEST(RunLedger, CountersAreOrderedAndFindable)
{
    RunLedger ledger;
    ledger.setInt("run", "cycles", 100);
    ledger.setReal("run", "seconds", 0.5);
    ledger.setText("run", "network", "AlexNet");
    ledger.incInt("run", "cycles", 11);
    ledger.incInt("run", "retries", 3); // created at delta

    const Value *cycles = ledger.find("run", "cycles");
    ASSERT_NE(cycles, nullptr);
    EXPECT_EQ(cycles->asInt(), 111ull);
    const Value *retries = ledger.find("run", "retries");
    ASSERT_NE(retries, nullptr);
    EXPECT_EQ(retries->asInt(), 3ull);
    EXPECT_EQ(ledger.find("run", "missing"), nullptr);
    EXPECT_EQ(ledger.find("nope", "cycles"), nullptr);

    // Insertion order is preserved in the export.
    const std::string json = ledger.json();
    EXPECT_LT(json.find("\"cycles\""), json.find("\"seconds\""));
    EXPECT_LT(json.find("\"seconds\""), json.find("\"network\""));
    EXPECT_NE(json.find(kLedgerSchema), std::string::npos);
}

TEST(RunLedger, TablesKeepColumnsAndRows)
{
    RunLedger ledger;
    ledger.table("layers", {"layer", "cycles"});
    ledger.addRow("layers",
                  {Value::text("c1"), Value::integer(10)});
    ledger.addRow("layers",
                  {Value::text("c2"), Value::integer(20)});
    const RunLedger::Table *table = ledger.findTable("layers");
    ASSERT_NE(table, nullptr);
    ASSERT_EQ(table->rows.size(), 2u);
    EXPECT_EQ(table->rows[1][1].asInt(), 20ull);
    EXPECT_EQ(ledger.findTable("missing"), nullptr);
}

TEST(RunLedgerDeath, RowWidthMustMatchColumns)
{
    RunLedger ledger;
    ledger.table("t", {"a", "b"});
    EXPECT_DEATH(ledger.addRow("t", {Value::integer(1)}), "");
}

TEST(RunLedger, JsonAndCsvAreDeterministic)
{
    const auto build = [] {
        RunLedger ledger;
        ledger.setReal("s", "x", 1.0 / 3.0);
        ledger.table("t", {"k", "v"});
        ledger.addRow("t", {Value::text("one"), Value::real(0.1)});
        return ledger;
    };
    EXPECT_EQ(build().json(), build().json());
    EXPECT_EQ(build().csv(), build().csv());

    const std::string csv = build().csv();
    EXPECT_NE(csv.find("# section s"), std::string::npos);
    EXPECT_NE(csv.find("# table t"), std::string::npos);
    EXPECT_NE(csv.find("k,v"), std::string::npos);
}

TEST(RunLedger, WritePicksFormatFromExtension)
{
    RunLedger ledger;
    ledger.setInt("s", "n", 1);
    const std::string json_path = "test_obs_ledger_out.json";
    const std::string csv_path = "test_obs_ledger_out.csv";
    ASSERT_TRUE(ledger.write(json_path));
    ASSERT_TRUE(ledger.write(csv_path));
    const auto slurp = [](const std::string &path) {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream out;
        out << in.rdbuf();
        return out.str();
    };
    EXPECT_EQ(slurp(json_path), ledger.json());
    EXPECT_EQ(slurp(csv_path), ledger.csv());
    std::remove(json_path.c_str());
    std::remove(csv_path.c_str());
    EXPECT_FALSE(ledger.write("no/such/dir/ledger.json"));
}

// --- builders + audits over real runs ---------------------------------

class ObsFixture : public ::testing::Test
{
  protected:
    sfq::DeviceConfig dev;
    sfq::CellLibrary lib{dev};
    estimator::NpuEstimator estimator{lib};

    npusim::SimResult
    simResult() const
    {
        const auto config = estimator::NpuConfig::superNpu();
        npusim::NpuSimulator sim(estimator.estimate(config));
        return sim.run(dnn::makeAlexNet(), 4);
    }
};

TEST_F(ObsFixture, SimResultPassesAuditAndFillsLedger)
{
    const npusim::SimResult result = simResult();
    const AuditReport audit = auditSim(result);
    EXPECT_TRUE(audit.ok()) << audit.summary();

    RunLedger ledger;
    addSimResult(ledger, result);
    const Value *total = ledger.find("sim", "totalCycles");
    ASSERT_NE(total, nullptr);
    EXPECT_EQ(total->asInt(), result.totalCycles);
    const RunLedger::Table *layers = ledger.findTable("layers");
    ASSERT_NE(layers, nullptr);
    EXPECT_EQ(layers->rows.size(), result.layers().size());
}

TEST_F(ObsFixture, CookedSimBooksAreCaught)
{
    npusim::SimResult result = simResult();
    result.totalCycles += 1; // breaks compute + prep + stall
    const AuditReport audit = auditSim(result);
    ASSERT_FALSE(audit.ok());
    EXPECT_NE(audit.summary().find("sim:totalCycles"),
              std::string::npos);
    EXPECT_NE(audit.summary().find("expected"), std::string::npos);
}

TEST_F(ObsFixture, CookedLayerDramStreamsAreCaught)
{
    npusim::SimResult result = simResult();
    ASSERT_FALSE(result.layers().empty());
    // A run() result owns every layer: tamper with its first one.
    std::vector<npusim::LayerResult> layers(result.layers().begin(),
                                            result.layers().end());
    layers[0].dramWeightBytes += 8;
    result.setLayers(std::move(layers));
    const AuditReport audit = auditSim(result);
    ASSERT_FALSE(audit.ok());
    EXPECT_NE(audit.summary().find(":dramBytes"), std::string::npos);
}

TEST_F(ObsFixture, ServingRunPassesAuditAndFillsLedger)
{
    const dnn::Network net = dnn::makeMobileNet();
    const auto config = estimator::NpuConfig::superNpu();
    const auto estimate = estimator.estimate(config);
    serving::BatchServiceModel service(estimate, net);
    serving::ServingConfig serving_cfg;
    serving_cfg.chips = 2;
    serving_cfg.arrival.ratePerSec = 0.5 * 2.0 * service.peakRps(8);
    serving_cfg.batching.maxBatch = 8;
    serving_cfg.requests = 2000;
    const serving::ServingReport report =
        serving::ServingSimulator(service, serving_cfg).run();

    const AuditReport audit = auditServing(report);
    EXPECT_TRUE(audit.ok()) << audit.summary();

    RunLedger ledger;
    addServingReport(ledger, report);
    const Value *completed = ledger.find("serving", "completed");
    ASSERT_NE(completed, nullptr);
    EXPECT_EQ(completed->asInt(), report.completed);
    const RunLedger::Table *chips = ledger.findTable("chips");
    ASSERT_NE(chips, nullptr);
    EXPECT_EQ(chips->rows.size(), (std::size_t)report.chips);
}

TEST_F(ObsFixture, CookedServingBooksAreCaught)
{
    serving::ServingReport report;
    report.generated = 10;
    report.completed = 10;
    report.latencyP50 = 2.0; // above p95: tail ordering broken
    report.latencyP95 = 1.0;
    report.latencyP99 = 1.0;
    report.latencyP999 = 1.0;
    report.latencyMax = 2.5;
    report.maxBatchLaunched = 1;
    const AuditReport audit = auditServing(report);
    ASSERT_FALSE(audit.ok());
    EXPECT_NE(audit.summary().find("serving:latencyP50"),
              std::string::npos);
}

TEST_F(ObsFixture, KillRetryImbalanceIsCaught)
{
    serving::ServingReport report;
    report.resilienceActive = true;
    report.requestsKilled = 5;
    report.retriesTotal = 3; // + 0 give-ups != 5 killed
    const AuditReport audit = auditServing(report);
    ASSERT_FALSE(audit.ok());
    EXPECT_NE(audit.summary().find("serving:requestsKilled"),
              std::string::npos);
}

TEST(AuditReportMerge, CombinesViolations)
{
    AuditReport a, b;
    a.violations.push_back({"sim", "x", "1", "2"});
    b.violations.push_back({"serving", "y", "3", "4"});
    a.merge(b);
    EXPECT_EQ(a.violations.size(), 2u);
    EXPECT_EQ(a.violations[1].str(), "serving:y expected 3 got 4");
}

TEST(AuditEnforce, FatalOnViolations)
{
    AuditReport report;
    report.violations.push_back({"sim", "cycles", "1", "2"});
    EXPECT_EXIT(enforce(report, "test run"),
                ::testing::ExitedWithCode(1), "audit failed");
    enforce(AuditReport{}, "clean"); // no-op, must return
}

TEST(AuditEnabled, EnvironmentVariableWins)
{
    ::setenv("SUPERNPU_AUDIT", "1", 1);
    EXPECT_TRUE(auditEnabled());
    ::setenv("SUPERNPU_AUDIT", "0", 1);
    EXPECT_FALSE(auditEnabled());
    ::unsetenv("SUPERNPU_AUDIT");
}

// --- fault schedule / cache / pool builders ---------------------------

TEST(LedgerBuilders, FaultScheduleSummary)
{
    reliability::FaultScheduleConfig config;
    config.chips = 2;
    config.horizonSec = 1.0;
    config.pulseDropRatePerSec = 50.0;
    config.linkGlitchRatePerSec = 10.0;
    const auto schedule = reliability::FaultSchedule::generate(config);
    RunLedger ledger;
    addFaultSchedule(ledger, schedule);
    const Value *events = ledger.find("faults", "events");
    ASSERT_NE(events, nullptr);
    EXPECT_EQ(events->asInt(), schedule.size());
    const Value *drops = ledger.find("faults", "pulseDrops");
    ASSERT_NE(drops, nullptr);
    const Value *glitches = ledger.find("faults", "linkGlitches");
    ASSERT_NE(glitches, nullptr);
    EXPECT_EQ(drops->asInt() + glitches->asInt(), schedule.size());
}

TEST(LedgerBuilders, PoolStatsSection)
{
    ThreadPool pool(2);
    pool.parallelFor(10, [](std::size_t) {});
    pool.parallelFor(7, [](std::size_t) {});
    RunLedger ledger;
    addPoolStats(ledger, pool.stats());
    const Value *loops = ledger.find("threadPool", "loops");
    const Value *tasks = ledger.find("threadPool", "tasks");
    ASSERT_NE(loops, nullptr);
    ASSERT_NE(tasks, nullptr);
    EXPECT_EQ(loops->asInt(), 2ull);
    EXPECT_EQ(tasks->asInt(), 17ull);
}

} // namespace
} // namespace obs
} // namespace supernpu
