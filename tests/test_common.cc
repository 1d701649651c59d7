/**
 * @file
 * Unit tests for the common module: units, stats, tables, RNG, the
 * FNV-1a hasher and the single-flight memo.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <set>
#include <thread>
#include <vector>

#include "common/hash.hh"
#include "common/logging.hh"
#include "common/memo.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/units.hh"

namespace supernpu {
namespace {

// --- units -----------------------------------------------------------

TEST(Units, FrequencyPeriodRoundTrip)
{
    EXPECT_DOUBLE_EQ(units::psToGHz(1000.0), 1.0);
    EXPECT_DOUBLE_EQ(units::ghzToPs(1.0), 1000.0);
    for (double f : {0.7, 52.6, 133.0}) {
        EXPECT_NEAR(units::psToGHz(units::ghzToPs(f)), f, 1e-9);
    }
}

TEST(Units, GhzToHz)
{
    EXPECT_DOUBLE_EQ(units::ghzToHz(52.6), 52.6e9);
}

TEST(Units, PowerEnergyConversions)
{
    EXPECT_DOUBLE_EQ(units::uwToW(3.6), 3.6e-6);
    EXPECT_DOUBLE_EQ(units::mwToW(5.6), 5.6e-3);
    EXPECT_DOUBLE_EQ(units::ajToJ(1.4), 1.4e-18);
}

TEST(Units, CapacityConstants)
{
    EXPECT_EQ(units::MiB, 1024ull * units::kiB);
    EXPECT_EQ(units::GiB, 1024ull * units::MiB);
    EXPECT_DOUBLE_EQ(units::gbpsToBps(300.0), 300e9);
}

TEST(Units, SiPrefixedFormatting)
{
    EXPECT_EQ(units::siPrefixed(3.366e15, 2), "3.37 P");
    EXPECT_EQ(units::siPrefixed(52.6e9, 1), "52.6 G");
    EXPECT_EQ(units::siPrefixed(3.6e-6, 1), "3.6 u");
    EXPECT_EQ(units::siPrefixed(0.0, 1), "0.0 ");
}

TEST(Units, BytesHuman)
{
    EXPECT_EQ(units::bytesHuman(512), "512 B");
    EXPECT_EQ(units::bytesHuman(24ull * units::MiB), "24.0 MiB");
    EXPECT_EQ(units::bytesHuman(64ull * units::kiB), "64.0 KiB");
}

// --- logging ----------------------------------------------------------

TEST(LoggingDeath, PanicAbortsWithComposedMessage)
{
    EXPECT_DEATH(panic("broke at step ", 7, " of ", "run"),
                 "broke at step 7 of run");
}

TEST(LoggingDeath, FatalExitsCleanlyWithCodeOne)
{
    EXPECT_EXIT(fatal("bad config: ", 42),
                ::testing::ExitedWithCode(1), "bad config: 42");
}

TEST(LoggingDeath, AssertMacroNamesTheCondition)
{
    const int x = 3;
    EXPECT_DEATH(SUPERNPU_ASSERT(x == 4, "x was ", x),
                 "assertion 'x == 4' failed");
}

TEST(Logging, WarnAndInformDoNotTerminate)
{
    warn("approximation in effect: ", 1.5);
    inform("status ", "message");
    SUCCEED();
}

// --- stats -----------------------------------------------------------

TEST(Stats, EmptyAccumulator)
{
    RunningStats stats;
    EXPECT_EQ(stats.count(), 0u);
    EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
    EXPECT_DOUBLE_EQ(stats.geomean(), 0.0);
    EXPECT_DOUBLE_EQ(stats.min(), 0.0);
    EXPECT_DOUBLE_EQ(stats.max(), 0.0);
}

TEST(Stats, EmptyExtremaStayZeroAndRecover)
{
    // The empty contract is load-bearing: serving reports built from
    // zero-completion runs must publish 0.0 extrema, and the audit
    // layer pins them to 0. A first negative sample must still
    // displace the 0.0 placeholder in both directions.
    RunningStats stats;
    EXPECT_DOUBLE_EQ(stats.sum(), 0.0);
    stats.add(-4.0);
    EXPECT_DOUBLE_EQ(stats.min(), -4.0);
    EXPECT_DOUBLE_EQ(stats.max(), -4.0);
}

TEST(Histogram, EmptyMomentsAreZero)
{
    const Histogram hist;
    EXPECT_DOUBLE_EQ(hist.min(), 0.0);
    EXPECT_DOUBLE_EQ(hist.max(), 0.0);
    EXPECT_DOUBLE_EQ(hist.mean(), 0.0);
    EXPECT_DOUBLE_EQ(hist.sum(), 0.0);
    EXPECT_DOUBLE_EQ(hist.percentile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(hist.percentile(100.0), 0.0);
}

TEST(Stats, BasicMoments)
{
    RunningStats stats;
    for (double v : {2.0, 8.0})
        stats.add(v);
    EXPECT_EQ(stats.count(), 2u);
    EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
    EXPECT_NEAR(stats.geomean(), 4.0, 1e-12);
    EXPECT_DOUBLE_EQ(stats.min(), 2.0);
    EXPECT_DOUBLE_EQ(stats.max(), 8.0);
    EXPECT_DOUBLE_EQ(stats.sum(), 10.0);
}

TEST(Stats, GeomeanSkipsNonPositive)
{
    RunningStats stats;
    stats.add(-1.0);
    stats.add(0.0);
    stats.add(4.0);
    stats.add(9.0);
    EXPECT_NEAR(stats.geomean(), 6.0, 1e-12);
    EXPECT_DOUBLE_EQ(stats.min(), -1.0);
    EXPECT_EQ(stats.count(), 4u);
}

TEST(Stats, VectorHelpers)
{
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_NEAR(geomean({1.0, 100.0}), 10.0, 1e-9);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

/** Geometric mean is invariant under reordering (property). */
TEST(Stats, GeomeanOrderInvariant)
{
    const std::vector<double> a = {3.0, 7.0, 0.5, 11.0, 2.2};
    std::vector<double> b = a;
    std::reverse(b.begin(), b.end());
    EXPECT_NEAR(geomean(a), geomean(b), 1e-12);
}

TEST(Stats, ExactPercentileInterpolates)
{
    EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);
    EXPECT_DOUBLE_EQ(percentile({7.0}, 0.0), 7.0);
    EXPECT_DOUBLE_EQ(percentile({7.0}, 100.0), 7.0);
    const std::vector<double> v = {4.0, 1.0, 3.0, 2.0};
    EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 50.0), 2.5);
    EXPECT_DOUBLE_EQ(percentile(v, 100.0), 4.0);
    EXPECT_DOUBLE_EQ(percentile(v, 75.0), 3.25);
}

TEST(Histogram, EmptyAndSingleSample)
{
    Histogram hist;
    EXPECT_EQ(hist.count(), 0u);
    EXPECT_DOUBLE_EQ(hist.percentile(99.0), 0.0);
    hist.add(3.5e-3);
    EXPECT_EQ(hist.count(), 1u);
    // A single sample pins every percentile to itself via the
    // min/max clamp.
    EXPECT_DOUBLE_EQ(hist.percentile(0.0), 3.5e-3);
    EXPECT_DOUBLE_EQ(hist.percentile(50.0), 3.5e-3);
    EXPECT_DOUBLE_EQ(hist.percentile(100.0), 3.5e-3);
}

TEST(Histogram, TracksExactMomentsAndClampsRange)
{
    Histogram hist(1e-6, 1e2, 10);
    // Underflow (including zero) and overflow land in the clamp bins.
    hist.add(0.0);
    hist.add(1e-9);
    hist.add(5.0);
    hist.add(1e6);
    EXPECT_EQ(hist.count(), 4u);
    EXPECT_DOUBLE_EQ(hist.min(), 0.0);
    EXPECT_DOUBLE_EQ(hist.max(), 1e6);
    EXPECT_DOUBLE_EQ(hist.sum(), 1e6 + 5.0 + 1e-9);
    EXPECT_DOUBLE_EQ(hist.percentile(100.0), 1e6);
    EXPECT_DOUBLE_EQ(hist.percentile(0.0), 0.0);
}

/**
 * Sketch percentiles track exact percentiles within the documented
 * bin ratio (10^(1/binsPerDecade)) on a deterministic log-uniform
 * sample set.
 */
TEST(Histogram, PercentilesMatchExactWithinBinResolution)
{
    Rng rng(99);
    Histogram hist(1e-6, 1e1, 53);
    std::vector<double> samples;
    for (int i = 0; i < 20000; ++i) {
        // Log-uniform latencies from 10 us to 1 s.
        const double value =
            std::pow(10.0, rng.uniform(-5.0, 0.0));
        samples.push_back(value);
        hist.add(value);
    }
    const double ratio = std::pow(10.0, 1.0 / 53.0);
    for (double p : {10.0, 50.0, 90.0, 95.0, 99.0, 99.9}) {
        const double exact = percentile(samples, p);
        const double sketch = hist.percentile(p);
        EXPECT_LT(sketch / exact, ratio * 1.01) << "p" << p;
        EXPECT_GT(sketch / exact, 1.0 / (ratio * 1.01)) << "p" << p;
    }
}

/** Percentiles are monotone in p by construction. */
TEST(Histogram, PercentileMonotoneInP)
{
    Rng rng(7);
    Histogram hist;
    for (int i = 0; i < 5000; ++i)
        hist.add(1e-4 * (1.0 + rng.uniform()));
    double previous = 0.0;
    for (double p : {0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0}) {
        const double value = hist.percentile(p);
        EXPECT_GE(value, previous) << "p" << p;
        previous = value;
    }
}

/**
 * The binning formula Histogram documents, evaluated here with
 * log10 exactly as the sketch once computed it per sample.
 */
std::size_t
formulaBin(double x, double lo, double hi, int bins_per_decade)
{
    const double log_lo = std::log10(lo);
    const double bpd = (double)bins_per_decade;
    const std::size_t regular =
        (std::size_t)std::ceil((std::log10(hi) - log_lo) * bpd);
    if (!(x >= lo))
        return 0;
    if (x >= hi)
        return regular + 1;
    return 1 + std::min((std::size_t)((std::log10(x) - log_lo) * bpd),
                        regular - 1);
}

/**
 * The log10-free lookup puts every sample in the bin the formula
 * names: at each bin edge and 4 ulps either side, on seeded
 * log-uniform samples, and on the range ends and special values.
 */
TEST(Histogram, EdgeTableMatchesLog10Formula)
{
    struct Shape
    {
        double lo, hi;
        int binsPerDecade;
    };
    const double inf = std::numeric_limits<double>::infinity();
    for (const Shape shape : {Shape{1e-8, 1e3, 53}, Shape{1e-9, 1e4, 53},
                              Shape{1e-6, 1e2, 10}, Shape{1e-6, 1e1, 53}}) {
        const Histogram hist(shape.lo, shape.hi, shape.binsPerDecade);
        const auto expect = [&](double x) {
            return formulaBin(x, shape.lo, shape.hi, shape.binsPerDecade);
        };
        int mismatches = 0; // reported up to a handful per shape
        const auto check = [&](double x) {
            if (hist.binIndex(x) != expect(x) && ++mismatches <= 5) {
                ADD_FAILURE() << "x=" << x << " lands in bin "
                              << hist.binIndex(x) << ", formula "
                              << expect(x) << "; shape (" << shape.lo
                              << ", " << shape.hi << ", "
                              << shape.binsPerDecade << ")";
            }
        };
        const std::size_t overflow = expect(shape.hi);
        ASSERT_EQ(hist.binIndex(shape.hi), overflow);

        // Every edge: the least double the formula puts in bin b,
        // found from the nominal 10^(log10(lo) + (b-1)/bpd) by
        // stepping out of the bin and back to its first double.
        const double log_lo = std::log10(shape.lo);
        for (std::size_t b = 2; b < overflow; ++b) {
            double edge = std::pow(
                10.0, log_lo + (double)(b - 1) / (double)shape.binsPerDecade);
            while (expect(edge) >= b)
                edge = std::nextafter(edge, 0.0);
            while (expect(edge) < b)
                edge = std::nextafter(edge, inf);
            ASSERT_EQ(expect(edge), b);
            ASSERT_EQ(expect(std::nextafter(edge, 0.0)), b - 1);
            double x = edge;
            for (int i = 0; i < 4; ++i)
                x = std::nextafter(x, 0.0);
            for (int i = 0; i < 9; ++i) {
                check(x);
                x = std::nextafter(x, inf);
            }
        }

        Rng rng(20261019);
        for (int i = 0; i < 100000; ++i) {
            check(std::pow(10.0, rng.uniform(log_lo - 1.0,
                                             std::log10(shape.hi) + 1.0)));
        }

        const double denorm = std::numeric_limits<double>::denorm_min();
        const double max = std::numeric_limits<double>::max();
        for (double x : {shape.lo, std::nextafter(shape.lo, 0.0),
                         std::nextafter(shape.lo, inf), shape.hi,
                         std::nextafter(shape.hi, 0.0),
                         std::nextafter(shape.hi, inf), 0.0, -0.0, -1.0,
                         -shape.lo, denorm, 1e-310, -denorm, max, -max,
                         inf, -inf,
                         std::numeric_limits<double>::quiet_NaN()})
            check(x);
        EXPECT_EQ(mismatches, 0);
    }
}

// --- non-finite exclusion --------------------------------------------

TEST(Stats, NonFiniteSamplesAreExcludedFromEveryMoment)
{
    // A NaN that reaches min/max first sticks forever (NaN wins
    // every std::min/std::max comparison it enters first) and any
    // non-finite sample poisons the running sum; both corrupted the
    // serving latency roll-ups before add() learned to reject them.
    RunningStats stats;
    stats.add(std::numeric_limits<double>::quiet_NaN());
    stats.add(std::numeric_limits<double>::infinity());
    stats.add(-std::numeric_limits<double>::infinity());
    EXPECT_EQ(stats.count(), 0u);
    EXPECT_EQ(stats.nonFiniteCount(), 3u);
    EXPECT_DOUBLE_EQ(stats.sum(), 0.0);

    stats.add(2.0);
    stats.add(std::numeric_limits<double>::quiet_NaN());
    stats.add(4.0);
    EXPECT_EQ(stats.count(), 2u);
    EXPECT_EQ(stats.nonFiniteCount(), 4u);
    EXPECT_DOUBLE_EQ(stats.min(), 2.0);
    EXPECT_DOUBLE_EQ(stats.max(), 4.0);
    EXPECT_DOUBLE_EQ(stats.mean(), 3.0);
    EXPECT_DOUBLE_EQ(stats.sum(), 6.0);
}

TEST(Stats, PercentileDropsNonFiniteBeforeSorting)
{
    // NaN breaks std::sort's strict weak order, so a poisoned vector
    // made the selected rank unspecified. The finite answer must
    // match the same set without the NaNs.
    std::vector<double> clean{1.0, 2.0, 3.0, 4.0};
    std::vector<double> poisoned{
        std::numeric_limits<double>::quiet_NaN(), 1.0, 2.0,
        std::numeric_limits<double>::quiet_NaN(), 3.0, 4.0};
    for (double p : {0.0, 25.0, 50.0, 90.0, 100.0})
        EXPECT_DOUBLE_EQ(percentile(poisoned, p),
                         percentile(clean, p))
            << "p" << p;
    EXPECT_DOUBLE_EQ(
        percentile({std::numeric_limits<double>::infinity()}, 50.0),
        0.0);
}

TEST(Histogram, NonFiniteSamplesSkipTheBins)
{
    // A NaN fails `sample >= lo` and so landed in the underflow bin,
    // dragging every low quantile toward min(); it must not count at
    // all.
    Histogram poisoned, clean;
    poisoned.add(1.0);
    poisoned.add(std::numeric_limits<double>::quiet_NaN());
    poisoned.add(std::numeric_limits<double>::infinity());
    poisoned.add(3.0);
    clean.add(1.0);
    clean.add(3.0);
    EXPECT_EQ(poisoned.count(), 2u);
    EXPECT_EQ(poisoned.nonFiniteCount(), 2u);
    EXPECT_DOUBLE_EQ(poisoned.min(), 1.0);
    EXPECT_DOUBLE_EQ(poisoned.max(), 3.0);
    for (double p : {0.0, 25.0, 50.0, 75.0, 100.0})
        EXPECT_DOUBLE_EQ(poisoned.percentile(p),
                         clean.percentile(p))
            << "p" << p;
}

// --- table -----------------------------------------------------------

TEST(Table, AlignsColumnsAndSeparatesHeader)
{
    TextTable table("demo");
    table.row().cell("name").cell("value");
    table.row().cell("x").cell(3.14159, 2);
    table.row().cell("long-name").cell(7ll);
    const std::string rendered = table.str();
    EXPECT_NE(rendered.find("== demo =="), std::string::npos);
    EXPECT_NE(rendered.find("3.14"), std::string::npos);
    EXPECT_NE(rendered.find("long-name"), std::string::npos);
    // Header separator exists.
    EXPECT_NE(rendered.find("----"), std::string::npos);
}

TEST(Table, NumericCellFormats)
{
    TextTable table;
    table.row().cell(-5ll).cell(42ull).cell(1.5, 3).cell((std::size_t)9);
    const std::string rendered = table.str();
    EXPECT_NE(rendered.find("-5"), std::string::npos);
    EXPECT_NE(rendered.find("42"), std::string::npos);
    EXPECT_NE(rendered.find("1.500"), std::string::npos);
}

TEST(Table, CsvEscapesSpecials)
{
    TextTable table("ignored title");
    table.row().cell("plain").cell("with,comma").cell("with\"quote");
    table.row().cell(1.5, 1).cell(2ll).cell("x");
    const std::string csv = table.csv();
    EXPECT_EQ(csv,
              "plain,\"with,comma\",\"with\"\"quote\"\n1.5,2,x\n");
    // The title never leaks into machine-readable output.
    EXPECT_EQ(csv.find("ignored"), std::string::npos);
}

TEST(Table, CsvOfEmptyTableIsEmpty)
{
    TextTable table;
    EXPECT_EQ(table.csv(), "");
}

// --- rng -------------------------------------------------------------

TEST(Rng, Deterministic)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(Rng, UniformInRange)
{
    Rng rng;
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformIntCoversRangeInclusively)
{
    Rng rng;
    std::set<std::int64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        const std::int64_t v = rng.uniformInt(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NormalMoments)
{
    Rng rng;
    double sum = 0.0, sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double v = rng.normal();
        sum += v;
        sq += v * v;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.05);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

// --- hashing ---------------------------------------------------------

TEST(Fnv1a, MatchesTheStandard64BitVectors)
{
    EXPECT_EQ(Fnv1a().value(), 0xcbf29ce484222325ull);
    EXPECT_EQ(Fnv1a().bytes("a", 1).value(), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(Fnv1a().bytes("foobar", 6).value(), 0x85944171f73967e8ull);
    // word() is the little-endian byte order on any host; text() is
    // the length as a word, then the bytes.
    EXPECT_EQ(Fnv1a().word(0x61).value(),
              Fnv1a().bytes("a\0\0\0\0\0\0\0", 8).value());
    EXPECT_EQ(Fnv1a().text("a").value(),
              Fnv1a().word(1).bytes("a", 1).value());
}

// --- memo ------------------------------------------------------------

TEST(Memo, ComputeErrorReachesLeaderAndEveryWaiter)
{
    struct ComputeFailed
    {
    };
    Memo<int, int> memo;
    constexpr int kWaiters = 3;
    std::atomic<int> computes{0};
    const auto failing = [&]() -> int {
        ++computes;
        // Hold the flight open until every waiter has joined it
        // (joining counts a hit), so each of them must see the error.
        while (memo.stats().hits < (std::uint64_t)kWaiters)
            std::this_thread::yield();
        throw ComputeFailed{};
    };
    std::vector<int> caught(kWaiters + 1, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t <= kWaiters; ++t) {
        threads.emplace_back([&, t] {
            try {
                memo.getOrCompute(7, failing);
            } catch (const ComputeFailed &) {
                caught[(std::size_t)t] = 1;
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    for (int c : caught)
        EXPECT_EQ(c, 1);
    EXPECT_EQ(computes.load(), 1);
    EXPECT_EQ(memo.size(), 0u);
    EXPECT_EQ(memo.stats().misses, 1u);
    EXPECT_EQ(memo.stats().hits, (std::uint64_t)kWaiters);

    // Nothing was stored: the next call is a fresh miss that succeeds.
    EXPECT_EQ(*memo.getOrCompute(7, [] { return 42; }), 42);
    EXPECT_EQ(memo.stats().misses, 2u);
    EXPECT_EQ(memo.size(), 1u);
}

} // namespace
} // namespace supernpu
