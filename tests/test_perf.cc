/**
 * @file
 * Tests for the src/perf layer: the scoped profiler's semantics and
 * its disabled-path cost, the obs JSON reader, the auditPerf roll-up
 * invariants, the bench harness's deterministic BENCH JSON, and the
 * baseline comparison gates in both directions.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "dnn/parser.hh"
#include "estimator/npu_estimator.hh"
#include "obs/audit.hh"
#include "obs/json_reader.hh"
#include "obs/ledger.hh"
#include "perf/bench_runner.hh"
#include "perf/profile.hh"
#include "serving/simulator.hh"

namespace supernpu {
namespace {

/** Restore a clean, disabled profiler around every test. */
class PerfTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        perf::setEnabled(false);
        perf::reset();
    }
    void TearDown() override
    {
        perf::setEnabled(false);
        perf::reset();
    }
};

TEST_F(PerfTest, DisabledRecordsNothing)
{
    perf::Counter &counter = perf::counter("test.disabled");
    counter.add(5);
    {
        perf::Scope scope("test.disabledScope");
    }
    const perf::Report report = perf::report();
    EXPECT_EQ(report.counterValue("test.disabled"), 0u);
    EXPECT_EQ(report.phase("test.disabledScope"), nullptr);
}

TEST_F(PerfTest, ScopesNestIntoPaths)
{
    perf::setEnabled(true);
    {
        perf::Scope outer("outer");
        {
            perf::Scope inner("inner");
        }
        {
            perf::Scope inner("inner");
        }
    }
    const perf::Report report = perf::report();
    const perf::PhaseStat *outer = report.phase("outer");
    const perf::PhaseStat *inner = report.phase("outer/inner");
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(outer->count, 1u);
    EXPECT_EQ(inner->count, 2u);
    // Child intervals are subintervals of the parent.
    EXPECT_LE(inner->ns, outer->ns);
    EXPECT_EQ(report.phase("inner"), nullptr);
}

TEST_F(PerfTest, CountersAccumulateAndReset)
{
    perf::setEnabled(true);
    perf::Counter &counter = perf::counter("test.counter");
    counter.add(3);
    counter.add(4);
    EXPECT_EQ(perf::report().counterValue("test.counter"), 7u);

    perf::reset();
    EXPECT_TRUE(perf::report().empty());
    // The registration (and the reference) survives reset.
    counter.add(2);
    EXPECT_EQ(perf::report().counterValue("test.counter"), 2u);
}

TEST_F(PerfTest, ReportIsNameSorted)
{
    perf::setEnabled(true);
    perf::counter("zeta").add(1);
    perf::counter("alpha").add(1);
    {
        perf::Scope b("bbb");
    }
    {
        perf::Scope a("aaa");
    }
    const perf::Report report = perf::report();
    ASSERT_EQ(report.counters.size(), 2u);
    EXPECT_EQ(report.counters[0].name, "alpha");
    EXPECT_EQ(report.counters[1].name, "zeta");
    ASSERT_EQ(report.phases.size(), 2u);
    EXPECT_EQ(report.phases[0].path, "aaa");
    EXPECT_EQ(report.phases[1].path, "bbb");
}

// The whole point of the design: when profiling is off, scopes and
// counters must stay so cheap the simulators can keep them inline.
// The bound is deliberately loose (sanitizer builds run this too) —
// it exists to catch an accidental always-on mutex or allocation,
// which would cost well over a microsecond per scope.
TEST_F(PerfTest, DisabledPathStaysCheap)
{
    perf::Counter &counter = perf::counter("test.hot");
    const int iterations = 500000;
    const std::uint64_t start = perf::nowNs();
    for (int i = 0; i < iterations; ++i) {
        perf::Scope scope("test.hotScope");
        counter.add(1);
    }
    const double sec = (double)(perf::nowNs() - start) * 1e-9;
    EXPECT_LT(sec, 2.0);
    EXPECT_EQ(perf::report().counterValue("test.hot"), 0u);
}

TEST_F(PerfTest, AuditPerfAcceptsRealNesting)
{
    perf::setEnabled(true);
    const std::uint64_t start = perf::nowNs();
    {
        perf::Scope outer("run");
        {
            perf::Scope inner("layer");
        }
        {
            perf::Scope inner("layer");
        }
    }
    const std::uint64_t wall = perf::nowNs() - start;
    const obs::AuditReport audit =
        obs::auditPerf(perf::report(), wall);
    EXPECT_TRUE(audit.ok()) << audit.summary();
}

TEST(AuditPerf, FlagsChildrenSummingPastParent)
{
    perf::Report report;
    report.phases.push_back({"run", 1, 100});
    report.phases.push_back({"run/layer", 3, 150});
    const obs::AuditReport audit = obs::auditPerf(report);
    ASSERT_FALSE(audit.ok());
    EXPECT_NE(audit.summary().find("childSum run"), std::string::npos);
}

TEST(AuditPerf, FlagsOrphanAndWallOverrun)
{
    perf::Report orphan;
    orphan.phases.push_back({"lost/child", 1, 10});
    EXPECT_FALSE(obs::auditPerf(orphan).ok());

    perf::Report over;
    over.phases.push_back({"run", 1, 2000});
    EXPECT_FALSE(obs::auditPerf(over, 1000).ok());
    EXPECT_TRUE(obs::auditPerf(over, 3000).ok());
}

TEST(PerfLedger, AddPerfReportBuildsSectionAndTable)
{
    perf::Report report;
    report.counters.push_back({"simCache.hits", 7});
    report.phases.push_back({"run", 2, 500});
    report.phases.push_back({"run/layer", 4, 300});

    obs::RunLedger ledger;
    obs::addPerfReport(ledger, report);
    const obs::Value *hits = ledger.find("perf", "simCache.hits");
    ASSERT_NE(hits, nullptr);
    EXPECT_EQ(hits->asInt(), 7u);
    const obs::RunLedger::Table *phases =
        ledger.findTable("perfPhases");
    ASSERT_NE(phases, nullptr);
    ASSERT_EQ(phases->rows.size(), 2u);
    EXPECT_EQ(phases->rows[1][0].asText(), "run/layer");
    EXPECT_EQ(phases->rows[1][2].asInt(), 300u);
}

// --- obs JSON reader -------------------------------------------------

TEST(JsonReader, ParsesNestedDocument)
{
    const std::string text = R"({
      "schema": "supernpu-bench-v1",
      "count": 42,
      "ratio": -1.5e2,
      "flag": true,
      "nothing": null,
      "text": "a\"b\\c\nA",
      "list": [1, 2, {"k": "v"}]
    })";
    std::string error;
    const auto doc = obs::parseJson(text, &error);
    ASSERT_TRUE(doc.has_value()) << error;
    EXPECT_EQ(doc->stringAt("schema"), "supernpu-bench-v1");
    EXPECT_EQ(doc->numberAt("count"), 42.0);
    EXPECT_EQ(doc->numberAt("ratio"), -150.0);
    EXPECT_EQ(doc->stringAt("text"), "a\"b\\c\nA");
    const obs::JsonValue *list = doc->find("list");
    ASSERT_NE(list, nullptr);
    ASSERT_TRUE(list->isArray());
    ASSERT_EQ(list->array.size(), 3u);
    EXPECT_EQ(list->array[2].stringAt("k"), "v");
    // Object member order is document order.
    EXPECT_EQ(doc->object.front().first, "schema");
}

TEST(JsonReader, RejectsMalformedDocuments)
{
    std::string error;
    EXPECT_FALSE(obs::parseJson("{\"a\": 1,}", &error).has_value());
    EXPECT_FALSE(obs::parseJson("{} trailing", &error).has_value());
    EXPECT_NE(error.find("byte"), std::string::npos);
    EXPECT_FALSE(obs::parseJson("\"unterminated", &error).has_value());
    EXPECT_FALSE(obs::parseJson("{\"a\": nope}", &error).has_value());
    EXPECT_FALSE(obs::parseJson("", &error).has_value());
}

TEST(JsonReader, RoundTripsWriterIntegers)
{
    // %.17g keeps every uint64 below 2^53 exact through the double
    // path — which is why bench metrics stay exactly comparable.
    const std::string text = "{\"v\": 483428375488}";
    const auto doc = obs::parseJson(text);
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ((std::uint64_t)doc->numberAt("v"), 483428375488ull);
}

// --- bench harness ---------------------------------------------------

bench::BenchOptions
fastOptions()
{
    bench::BenchOptions options;
    options.suite = "smoke";
    options.repetitions = 1;
    options.warmups = 0;
    options.only = {"micro_kernels"};
    return options;
}

TEST(BenchHarness, DeterministicJsonAndSchema)
{
    const bench::BenchReport a = bench::runSuite(fastOptions());
    const bench::BenchReport b = bench::runSuite(fastOptions());
    const std::string ja = bench::benchJson(a, false);
    const std::string jb = bench::benchJson(b, false);
    EXPECT_EQ(ja, jb) << "no-timing BENCH JSON must be byte-stable";

    const auto doc = obs::parseJson(ja);
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->stringAt("schema"), bench::kBenchSchema);
    const obs::JsonValue *cases = doc->find("cases");
    ASSERT_NE(cases, nullptr);
    ASSERT_EQ(cases->array.size(), 1u);
    EXPECT_EQ(cases->array[0].stringAt("name"), "micro_kernels");
    // The deterministic form carries no wall-clock fields.
    EXPECT_EQ(cases->array[0].find("timing"), nullptr);
    EXPECT_EQ(ja.find("wallSec"), std::string::npos);
    // The timed form does.
    const std::string timed = bench::benchJson(a, true);
    EXPECT_NE(timed.find("medianWallSec"), std::string::npos);
}

TEST(BenchHarness, RepetitionsKeepMetricsIdentical)
{
    // runSuite fatals if a case's metrics drift across repetitions;
    // running two reps of every smoke case is the determinism check.
    bench::BenchOptions options;
    options.suite = "smoke";
    options.repetitions = 2;
    options.warmups = 0;
    const bench::BenchReport report = bench::runSuite(options);
    EXPECT_EQ(report.cases.size(), 8u);
    for (const auto &c : report.cases) {
        EXPECT_GT(c.work, 0u) << c.name;
        EXPECT_GT(c.throughput, 0.0) << c.name;
        EXPECT_EQ(c.wallSec.size(), 2u) << c.name;
    }
}

TEST(BenchHarness, SuiteCaseNamesMatchRegistry)
{
    const auto names = bench::suiteCaseNames("smoke");
    ASSERT_EQ(names.size(), 8u);
    EXPECT_EQ(names[0], "micro_kernels");
    EXPECT_EQ(names[4], "pipeline_scaling");
    EXPECT_EQ(names[5], "shard_scaling");
    EXPECT_EQ(names[6], "planner_search");
    EXPECT_EQ(names[7], "check_fuzz");
}

TEST(BenchHarness, NorthstarServeRunsInTheFullSuiteOnly)
{
    const auto full = bench::suiteCaseNames("full");
    ASSERT_EQ(full.size(), 9u);
    EXPECT_EQ(full[8], "serve_northstar");
    const auto smoke = bench::suiteCaseNames("smoke");
    EXPECT_EQ(std::count(smoke.begin(), smoke.end(), "serve_northstar"),
              0);
}

TEST(BenchHarness, TimedBaselineGateFailsOnSlowdown)
{
    const bench::BenchReport current = bench::runSuite(fastOptions());

    // A synthetic timed baseline 3x faster than the current run:
    // slowdown is exactly 200%, with no wall-clock noise involved.
    bench::BenchReport faster = current;
    faster.cases[0].throughput = current.cases[0].throughput * 3.0;
    const std::string baseline = bench::benchJson(faster, true);

    const bench::CompareOutcome fail =
        bench::compareToBaseline(current, baseline, 50.0);
    ASSERT_EQ(fail.deltas.size(), 1u);
    EXPECT_FALSE(fail.ok);
    EXPECT_TRUE(fail.deltas[0].regressed);
    EXPECT_NEAR(fail.deltas[0].slowdownPct, 200.0, 1e-6);

    // The identical report as its own baseline always passes.
    const bench::CompareOutcome pass = bench::compareToBaseline(
        current, bench::benchJson(current, true), 0.5);
    EXPECT_TRUE(pass.ok);
    EXPECT_FALSE(pass.deltas[0].regressed);
}

TEST(BenchHarness, InjectSlowdownTripsTheGate)
{
    bench::BenchOptions honest_options = fastOptions();
    honest_options.warmups = 1;
    const bench::BenchReport honest = bench::runSuite(honest_options);
    const std::string baseline = bench::benchJson(honest, true);

    // The injected report is the honest run's own wall samples put
    // through the multiplier runSuite applies for --inject-slowdown,
    // so the 10x slowdown is exact rather than re-measured.
    bench::BenchReport injected = honest;
    for (bench::CaseResult &c : injected.cases)
        bench::settleTiming(c, 900.0);
    ASSERT_FALSE(injected.cases.empty());
    EXPECT_NEAR(injected.cases[0].medianWallSec,
                10.0 * honest.cases[0].medianWallSec,
                1e-9 * honest.cases[0].medianWallSec);

    const bench::CompareOutcome outcome =
        bench::compareToBaseline(injected, baseline, 150.0);
    EXPECT_FALSE(outcome.ok);
    EXPECT_TRUE(outcome.deltas[0].regressed);
}

TEST(BenchHarness, UntimedBaselineGatesOnExactMetrics)
{
    const bench::BenchReport current = bench::runSuite(fastOptions());
    const std::string untimed = bench::benchJson(current, false);

    const bench::CompareOutcome same =
        bench::compareToBaseline(current, untimed, 10.0);
    EXPECT_TRUE(same.ok);
    EXPECT_TRUE(same.deltas[0].comparable);
    EXPECT_EQ(same.deltas[0].baselineThroughput, 0.0);

    bench::BenchReport drifted = current;
    ASSERT_FALSE(drifted.cases[0].metrics.empty());
    drifted.cases[0].metrics[0].value += 1;
    const bench::CompareOutcome fail =
        bench::compareToBaseline(drifted, untimed, 10.0);
    EXPECT_FALSE(fail.ok);
    EXPECT_TRUE(fail.deltas[0].regressed);
    EXPECT_NE(fail.deltas[0].note.find("drifted"), std::string::npos);
}

TEST(BenchHarness, MissingAndUnknownBaselineCases)
{
    const bench::BenchReport current = bench::runSuite(fastOptions());

    // A case absent from the baseline is noted, never a failure.
    bench::BenchReport renamed = current;
    renamed.cases[0].name = "somebody_else";
    const bench::CompareOutcome missing = bench::compareToBaseline(
        current, bench::benchJson(renamed, true), 10.0);
    EXPECT_TRUE(missing.ok);
    EXPECT_FALSE(missing.deltas[0].comparable);

    // A baseline with the wrong schema is an error, not a pass.
    const bench::CompareOutcome bad = bench::compareToBaseline(
        current, "{\"schema\": \"someone-elses-v9\", \"cases\": []}",
        10.0);
    EXPECT_FALSE(bad.ok);
    EXPECT_FALSE(bad.error.empty());

    const bench::CompareOutcome garbage =
        bench::compareToBaseline(current, "not json", 10.0);
    EXPECT_FALSE(garbage.ok);
    EXPECT_FALSE(garbage.error.empty());
}

TEST_F(PerfTest, BenchProfileSatisfiesAudit)
{
    bench::BenchOptions options = fastOptions();
    options.profile = true;
    // runSuite itself enforces auditPerf per case under profile;
    // reaching here means the roll-up invariants held.
    const bench::BenchReport report = bench::runSuite(options);
    ASSERT_EQ(report.cases.size(), 1u);
    const perf::Report &profile = report.cases[0].profile;
    EXPECT_FALSE(profile.empty());
    EXPECT_EQ(profile.counterValue("npusim.runs"), 6u);
    ASSERT_NE(profile.phase("npusim.run"), nullptr);
    EXPECT_EQ(profile.phase("npusim.run")->count, 6u);
    // Harness-run audit again, with no wall bound, for good measure.
    EXPECT_TRUE(obs::auditPerf(profile).ok());
}

TEST(ServingEvents, ReportCountsCalendarPops)
{
    // eventsProcessed backs the harness's events metric: every
    // request needs at least its arrival pop, so the count is
    // bounded below by the volume the run certainly processed.
    sfq::DeviceConfig dev;
    sfq::CellLibrary lib(dev);
    const dnn::Network net =
        dnn::parseNetwork("network PerfServeTest\n"
                          "conv c1  3 16 16 3 1 1\n"
                          "conv c2 16 16 16 3 1 1\n");
    const estimator::NpuConfig config =
        estimator::NpuConfig::superNpu();
    const estimator::NpuEstimate estimate =
        estimator::NpuEstimator(lib).estimate(config);
    const serving::BatchServiceModel service(estimate, net);

    serving::ServingConfig serving_cfg;
    serving_cfg.arrival.ratePerSec = 0.5 * service.peakRps(4);
    serving_cfg.batching.maxBatch = 4;
    serving_cfg.batching.timeoutSec = 1e-4;
    serving_cfg.requests = 500;
    const serving::ServingReport report =
        serving::ServingSimulator(service, serving_cfg).run();

    EXPECT_EQ(report.completed, 500u);
    EXPECT_GE(report.eventsProcessed, report.completed);
    EXPECT_GE(report.eventsProcessed,
              report.completed +
                  (std::uint64_t)report.batchesLaunched);
}

} // namespace
} // namespace supernpu
