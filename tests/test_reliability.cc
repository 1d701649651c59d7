/**
 * @file
 * Reliability-subsystem tests: deterministic fault-schedule
 * generation, degraded-geometry re-estimation, cycle-level fault
 * injection (including the SimCache fault-hash keying regression),
 * and functional error propagation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "dnn/networks.hh"
#include "dnn/parser.hh"
#include "estimator/npu_estimator.hh"
#include "npusim/sim_cache.hh"
#include "reliability/error_propagation.hh"
#include "reliability/fault_model.hh"
#include "reliability/injector.hh"

using namespace supernpu;
using namespace supernpu::reliability;

namespace {

FaultScheduleConfig
allKindsConfig()
{
    FaultScheduleConfig config;
    config.horizonSec = 0.5;
    config.chips = 2;
    config.pulseDropRatePerSec = 200.0;
    config.fluxTrapRatePerSec = 4.0;
    config.clockSkewRatePerSec = 50.0;
    config.linkGlitchRatePerSec = 80.0;
    return config;
}

bool
eventsEqual(const FaultEvent &a, const FaultEvent &b)
{
    return a.timeSec == b.timeSec && a.kind == b.kind &&
           a.chip == b.chip && a.magnitude == b.magnitude &&
           a.durationSec == b.durationSec &&
           a.trapTarget == b.trapTarget;
}

/** A hand-written event; the parameters are stored as given. */
FaultEvent
handEvent(double time_sec, FaultKind kind, int chip, double magnitude,
          double duration_sec,
          FluxTrapTarget target = FluxTrapTarget::PeColumn)
{
    FaultEvent event;
    event.timeSec = time_sec;
    event.kind = kind;
    event.chip = chip;
    event.magnitude = magnitude;
    event.durationSec = duration_sec;
    event.trapTarget = target;
    return event;
}

/**
 * Fourteen hand-written events on 3 chips over a 1 s horizon: default
 * and non-default magnitudes and durations for every kind, -0.0
 * durations and magnitudes (bitwise not the default 0.0; one on a
 * flux trap whose magnitude is the default), parameters on a pulse
 * drop (unused by serving, still hashed), both trap targets, a tie on
 * (time, chip, kind) and two times past the horizon.
 */
std::vector<FaultEvent>
handWrittenEvents()
{
    using K = FaultKind;
    const FluxTrapTarget chunk = FluxTrapTarget::BufferChunk;
    return {
        handEvent(0.1, K::FluxTrap, 0, 3.0, 0.0),
        handEvent(0.1, K::FluxTrap, 1, 2.0, 0.0, chunk),
        handEvent(0.2, K::ClockSkew, 2, 1.25, -0.0),
        handEvent(0.3, K::ClockSkew, 0, 1.5, 1e-3),
        handEvent(0.3, K::ClockSkew, 1, 1.5, 2.5e-3),
        handEvent(0.4, K::LinkGlitch, 2, 7e-5, 0.0),
        handEvent(0.45, K::LinkGlitch, 1, 5e-5, 1e-4),
        handEvent(2.5, K::LinkGlitch, 0, 5e-5, 0.0),
        handEvent(0.05, K::PulseDrop, 1, 0.0, 0.0),
        handEvent(0.6, K::PulseDrop, 2, 0.75, 0.0, chunk),
        handEvent(7.0, K::FluxTrap, 2, 2.0, 0.0, chunk),
        handEvent(0.2, K::ClockSkew, 2, 1.5, 0.0),
        handEvent(0.2, K::FluxTrap, 2, 2.0, -0.0),
        handEvent(0.7, K::PulseDrop, 0, -0.0, 0.0),
    };
}

FaultScheduleConfig
handWrittenConfig()
{
    FaultScheduleConfig config;
    config.chips = 3;
    config.horizonSec = 1.0;
    return config;
}

/** Every field equal, doubles bit for bit. */
bool
eventsIdentical(const FaultEvent &a, const FaultEvent &b)
{
    return std::bit_cast<std::uint64_t>(a.timeSec) ==
               std::bit_cast<std::uint64_t>(b.timeSec) &&
           a.kind == b.kind && a.chip == b.chip &&
           std::bit_cast<std::uint64_t>(a.magnitude) ==
               std::bit_cast<std::uint64_t>(b.magnitude) &&
           std::bit_cast<std::uint64_t>(a.durationSec) ==
               std::bit_cast<std::uint64_t>(b.durationSec) &&
           a.trapTarget == b.trapTarget;
}

/** Per-kind counts taken over the events themselves. */
void
expectCountsMatchEvents(const FaultSchedule &schedule)
{
    for (int k = 0; k < faultKindCount; ++k) {
        const FaultKind kind = (FaultKind)k;
        const auto counted = std::count_if(
            schedule.events().begin(), schedule.events().end(),
            [&](const FaultEvent &event) { return event.kind == kind; });
        EXPECT_EQ(schedule.count(kind), (std::uint64_t)counted)
            << faultKindName(kind);
    }
}

} // namespace

// --- schedule generation ---------------------------------------------

TEST(FaultSchedule, SameSeedIsByteIdentical)
{
    const FaultScheduleConfig config = allKindsConfig();
    const FaultSchedule a = FaultSchedule::generate(config);
    const FaultSchedule b = FaultSchedule::generate(config);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_GT(a.size(), 0u);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_TRUE(eventsEqual(a.events()[i], b.events()[i]));
    EXPECT_EQ(a.hash(), b.hash());

    FaultScheduleConfig reseeded = config;
    reseeded.seed += 1;
    EXPECT_NE(FaultSchedule::generate(reseeded).hash(), a.hash());
}

TEST(FaultSchedule, EventsSortedAndInsideHorizon)
{
    const FaultSchedule schedule =
        FaultSchedule::generate(allKindsConfig());
    for (std::size_t i = 0; i < schedule.size(); ++i) {
        const FaultEvent &event = schedule.events()[i];
        EXPECT_GE(event.timeSec, 0.0);
        EXPECT_LT(event.timeSec, 0.5);
        if (i > 0) {
            EXPECT_GE(event.timeSec,
                      schedule.events()[i - 1].timeSec);
        }
    }
}

TEST(FaultSchedule, RateScalesEventCount)
{
    FaultScheduleConfig low;
    low.horizonSec = 2.0;
    low.pulseDropRatePerSec = 100.0;
    FaultScheduleConfig high = low;
    high.pulseDropRatePerSec = 400.0;
    const std::size_t low_count =
        FaultSchedule::generate(low).size();
    const std::size_t high_count =
        FaultSchedule::generate(high).size();
    // ~200 vs ~800 expected events: 4x the rate must show clearly.
    EXPECT_GT(low_count, 100u);
    EXPECT_GT(high_count, 2 * low_count);
}

TEST(FaultSchedule, ChipStreamsAreIndependentOfFleetSize)
{
    // Adding a chip must not disturb the schedules of the chips that
    // were already there: every (chip, kind) pair has its own stream.
    FaultScheduleConfig two = allKindsConfig();
    FaultScheduleConfig three = allKindsConfig();
    three.chips = 3;
    const FaultSchedule small = FaultSchedule::generate(two);
    const FaultSchedule large = FaultSchedule::generate(three);

    for (int chip = 0; chip < 2; ++chip) {
        std::vector<FaultEvent> from_small, from_large;
        for (const FaultEvent &event : small.events())
            if (event.chip == chip)
                from_small.push_back(event);
        for (const FaultEvent &event : large.events())
            if (event.chip == chip)
                from_large.push_back(event);
        ASSERT_EQ(from_small.size(), from_large.size());
        for (std::size_t i = 0; i < from_small.size(); ++i)
            EXPECT_TRUE(eventsEqual(from_small[i], from_large[i]));
    }
    const auto added_chip_drops = std::count_if(
        large.events().begin(), large.events().end(),
        [](const FaultEvent &event) {
            return event.chip == 2 && event.kind == FaultKind::PulseDrop;
        });
    EXPECT_GT(added_chip_drops, 0);
}

TEST(FaultSchedule, BurstArrivalKeepsLongRunRate)
{
    FaultScheduleConfig poisson;
    poisson.horizonSec = 4.0;
    poisson.pulseDropRatePerSec = 200.0;
    FaultScheduleConfig burst = poisson;
    burst.arrival = FaultArrival::Burst;
    const double p = (double)FaultSchedule::generate(poisson).size();
    const double b = (double)FaultSchedule::generate(burst).size();
    // Same long-run rate within 30%, but a different event pattern.
    EXPECT_NEAR(b / p, 1.0, 0.3);
    EXPECT_NE(FaultSchedule::generate(burst).hash(),
              FaultSchedule::generate(poisson).hash());
}

TEST(FaultSchedule, EmptyHashesToZeroAndEventsPerturbIt)
{
    EXPECT_EQ(FaultSchedule().hash(), 0u);
    EXPECT_EQ(FaultSchedule::fromEvents(FaultScheduleConfig{}, {})
                  .hash(),
              0u);

    FaultEvent event;
    event.timeSec = 0.25;
    event.kind = FaultKind::ClockSkew;
    event.magnitude = 1.5;
    event.durationSec = 1e-3;
    const std::uint64_t base =
        FaultSchedule::fromEvents(FaultScheduleConfig{}, {event})
            .hash();
    EXPECT_NE(base, 0u);
    FaultEvent moved = event;
    moved.timeSec = 0.2500001;
    EXPECT_NE(FaultSchedule::fromEvents(FaultScheduleConfig{}, {moved})
                  .hash(),
              base);
}

TEST(FaultSchedule, GeneratedScheduleIsPinned)
{
    // Size and hash of generated schedules, pinned so a change to the
    // generator or to the event order cannot pass unnoticed.
    struct Pin
    {
        const char *name;
        FaultScheduleConfig config;
        std::size_t size;
        std::uint64_t hash;
    };
    std::vector<Pin> pins;

    // The perfbench serve_faults shape at seed 5: 64 chips, pulse
    // drops and link glitches.
    FaultScheduleConfig serve;
    serve.horizonSec = 1.5;
    serve.chips = 64;
    serve.seed = streamSeed(5, 3);
    serve.pulseDropRatePerSec = 10.0;
    serve.linkGlitchRatePerSec = 1000.0;
    pins.push_back({"serve_faults", serve, 97270, 6105207507228009580ull});

    FaultScheduleConfig burst = allKindsConfig();
    burst.chips = 4;
    burst.horizonSec = 2.0;
    burst.arrival = FaultArrival::Burst;
    pins.push_back({"burst", burst, 2566, 2093352114402348355ull});

    FaultScheduleConfig one_chip;
    one_chip.horizonSec = 1.0;
    one_chip.seed = 7;
    one_chip.pulseDropRatePerSec = 300.0;
    one_chip.clockSkewRatePerSec = 100.0;
    pins.push_back({"one_chip", one_chip, 421, 7625469696093316163ull});

    FaultScheduleConfig traps;
    traps.horizonSec = 1.0;
    traps.chips = 3;
    traps.seed = 11;
    traps.pulseDropRatePerSec = 50.0;
    traps.fluxTrapRatePerSec = 200.0;
    pins.push_back({"flux_traps", traps, 727, 18173395616866214963ull});

    for (const Pin &pin : pins) {
        SCOPED_TRACE(pin.name);
        const FaultSchedule schedule = FaultSchedule::generate(pin.config);
        EXPECT_EQ(schedule.size(), pin.size);
        EXPECT_EQ(schedule.hash(), pin.hash);
    }
}

TEST(FaultSchedule, EqualKeysKeepInputOrder)
{
    // Two flux traps that differ only in their target tie on (time,
    // chip, kind): the schedule keeps them in the order given, so its
    // hash follows the input and not the standard library's sort.
    FaultScheduleConfig config;
    config.chips = 2;
    FaultEvent column;
    column.timeSec = 0.5;
    column.kind = FaultKind::FluxTrap;
    column.chip = 1;
    column.magnitude = config.fluxTrapDerate;
    column.trapTarget = FluxTrapTarget::PeColumn;
    FaultEvent chunk = column;
    chunk.trapTarget = FluxTrapTarget::BufferChunk;
    FaultEvent earlier;
    earlier.timeSec = 0.25;

    const FaultSchedule a =
        FaultSchedule::fromEvents(config, {column, chunk, earlier});
    const FaultSchedule b =
        FaultSchedule::fromEvents(config, {chunk, earlier, column});
    ASSERT_EQ(a.size(), 3u);
    ASSERT_EQ(b.size(), 3u);
    EXPECT_TRUE(eventsEqual(a.events()[0], earlier));
    EXPECT_TRUE(eventsEqual(a.events()[1], column));
    EXPECT_TRUE(eventsEqual(a.events()[2], chunk));
    EXPECT_TRUE(eventsEqual(b.events()[0], earlier));
    EXPECT_TRUE(eventsEqual(b.events()[1], chunk));
    EXPECT_TRUE(eventsEqual(b.events()[2], column));
    EXPECT_NE(a.hash(), b.hash());
}

TEST(FaultSchedule, TimeFarPastHorizonIsOrdered)
{
    // 1e300 s maps far outside any time bucket; it must land in the
    // last one without an out-of-range conversion (the sanitizer
    // build runs this test).
    FaultScheduleConfig config;
    FaultEvent now;
    FaultEvent late;
    late.timeSec = 1e300;
    for (const auto &input :
         {std::vector<FaultEvent>{now, late},
          std::vector<FaultEvent>{late, now}}) {
        const FaultSchedule schedule =
            FaultSchedule::fromEvents(config, input);
        ASSERT_EQ(schedule.size(), 2u);
        EXPECT_EQ(schedule.events()[0].timeSec, 0.0);
        EXPECT_EQ(schedule.events()[1].timeSec, 1e300);
    }
}

TEST(FaultSchedule, FromEventsMatchesAStableSort)
{
    // Random hand-written events with many tied keys, a crowd packed
    // into one time bucket and a tail past the horizon: the schedule
    // order equals a stable sort by (time, chip, kind).
    FaultScheduleConfig config;
    config.horizonSec = 1.0;
    config.chips = 3;
    Rng rng(2026);
    std::vector<FaultEvent> events;
    for (int i = 0; i < 600; ++i) {
        FaultEvent event;
        const double pick = rng.uniform();
        if (pick < 0.4)
            event.timeSec = (double)rng.uniformInt(0, 40) / 40.0;
        else if (pick < 0.6)
            event.timeSec = 0.3 + 1e-6 * rng.uniform();
        else if (pick < 0.8)
            event.timeSec = rng.uniform(1.0, 5.0);
        else
            event.timeSec = rng.uniform();
        event.chip = (int)rng.uniformInt(0, config.chips - 1);
        event.kind = (FaultKind)rng.uniformInt(0, faultKindCount - 1);
        event.magnitude = 1.0 + i; // tells tied events apart
        events.push_back(event);
    }

    std::vector<FaultEvent> expected = events;
    std::stable_sort(expected.begin(), expected.end(),
                     [](const FaultEvent &a, const FaultEvent &b) {
                         if (a.timeSec != b.timeSec)
                             return a.timeSec < b.timeSec;
                         if (a.chip != b.chip)
                             return a.chip < b.chip;
                         return (int)a.kind < (int)b.kind;
                     });
    const FaultSchedule schedule =
        FaultSchedule::fromEvents(config, events);
    ASSERT_EQ(schedule.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_TRUE(eventsEqual(schedule.events()[i], expected[i]))
            << "at " << i;
}

TEST(FaultSchedule, HandWrittenScheduleIsPinned)
{
    // Size and hash of a hand-written schedule whose events carry
    // their own parameters, pinned from the event-list layout that
    // stored every field per event.
    const FaultSchedule schedule =
        FaultSchedule::fromEvents(handWrittenConfig(), handWrittenEvents());
    EXPECT_EQ(schedule.size(), 14u);
    EXPECT_EQ(schedule.hash(), 2175056927197051394ull);
}

TEST(FaultSchedule, HandWrittenEventsRoundTripBitForBit)
{
    // Every field of every input event reads back bit for bit, in
    // the order a stable sort by (time, chip, kind) gives.
    const std::vector<FaultEvent> input = handWrittenEvents();
    std::vector<FaultEvent> expected = input;
    std::stable_sort(expected.begin(), expected.end(),
                     [](const FaultEvent &a, const FaultEvent &b) {
                         if (a.timeSec != b.timeSec)
                             return a.timeSec < b.timeSec;
                         if (a.chip != b.chip)
                             return a.chip < b.chip;
                         return (int)a.kind < (int)b.kind;
                     });
    const FaultSchedule schedule =
        FaultSchedule::fromEvents(handWrittenConfig(), input);
    ASSERT_EQ(schedule.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_TRUE(eventsIdentical(schedule.events()[i], expected[i]))
            << "at " << i;

    // Each -0.0 kept its sign, also where it compares equal to the
    // kind's default.
    const auto negative_zeros = [](const auto &events) {
        return std::count_if(
            events.begin(), events.end(), [](const FaultEvent &event) {
                return std::signbit(event.magnitude) ||
                       std::signbit(event.durationSec);
            });
    };
    EXPECT_EQ(negative_zeros(input), 3);
    EXPECT_EQ(negative_zeros(schedule.events()), 3);

    // Iterators from separate views of one schedule meet.
    const std::vector<FaultEvent> copied(schedule.events().begin(),
                                         schedule.events().end());
    ASSERT_EQ(copied.size(), schedule.size());
    EXPECT_EQ(schedule.events().end() - schedule.events().begin(),
              (std::ptrdiff_t)schedule.size());
    for (std::size_t i = 0; i < copied.size(); ++i)
        EXPECT_TRUE(eventsIdentical(copied[i], schedule.events()[i]));
}

TEST(FaultSchedule, GeneratedEventsCarryTheConfigParameters)
{
    FaultScheduleConfig config = allKindsConfig();
    config.fluxTrapDerate = 2.5;
    config.clockSkewDerate = 1.25;
    config.clockSkewDurationSec = 3e-3;
    config.linkGlitchDelaySec = 7e-5;
    const FaultSchedule schedule = FaultSchedule::generate(config);
    for (const FaultEvent event : schedule.events()) {
        switch (event.kind) {
          case FaultKind::PulseDrop:
            EXPECT_EQ(event.magnitude, 0.0);
            EXPECT_EQ(event.durationSec, 0.0);
            break;
          case FaultKind::FluxTrap:
            EXPECT_EQ(event.magnitude, 2.5);
            EXPECT_EQ(event.durationSec, 0.0);
            break;
          case FaultKind::ClockSkew:
            EXPECT_EQ(event.magnitude, 1.25);
            EXPECT_EQ(event.durationSec, 3e-3);
            break;
          case FaultKind::LinkGlitch:
            EXPECT_EQ(event.magnitude, 7e-5);
            EXPECT_EQ(event.durationSec, 0.0);
            break;
        }
        if (event.kind != FaultKind::FluxTrap) {
            EXPECT_EQ(event.trapTarget, FluxTrapTarget::PeColumn);
        }
    }
}

TEST(FaultSchedule, KindCountsMatchTheEvents)
{
    FaultScheduleConfig burst = allKindsConfig();
    burst.arrival = FaultArrival::Burst;
    for (const FaultSchedule &schedule :
         {FaultSchedule::generate(allKindsConfig()),
          FaultSchedule::generate(burst),
          FaultSchedule::fromEvents(handWrittenConfig(),
                                    handWrittenEvents()),
          FaultSchedule()}) {
        expectCountsMatchEvents(schedule);
    }
    const FaultSchedule hand =
        FaultSchedule::fromEvents(handWrittenConfig(), handWrittenEvents());
    EXPECT_EQ(hand.count(FaultKind::PulseDrop), 3u);
    EXPECT_EQ(hand.count(FaultKind::FluxTrap), 4u);
    EXPECT_EQ(hand.count(FaultKind::ClockSkew), 4u);
    EXPECT_EQ(hand.count(FaultKind::LinkGlitch), 3u);
}

TEST(FaultSchedule, CopiesShareOneBody)
{
    // A copy reads the same stored events, not a second list.
    const FaultSchedule schedule =
        FaultSchedule::generate(allKindsConfig());
    const FaultSchedule copy = schedule;
    ASSERT_FALSE(copy.empty());
    EXPECT_TRUE(copy.events().begin() == schedule.events().begin());
    EXPECT_EQ(copy.hash(), schedule.hash());
    EXPECT_TRUE(FaultSchedule().events().empty());
}

TEST(FaultSchedule, FromEventsRejectsMalformedParameters)
{
    // Each kind is checked on the fields it uses: a flux trap or
    // clock skew of magnitude 0 would make service free or its loss
    // infinite, so it is a fatal input error, not a silent result.
    const FaultScheduleConfig config = handWrittenConfig();
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const auto build = [&](const FaultEvent &event) {
        (void)FaultSchedule::fromEvents(config, {event});
    };
    using K = FaultKind;
    EXPECT_DEATH(build(handEvent(0.1, K::FluxTrap, 0, 0.0, 0.0)),
                 "flux-trap fault event needs a finite magnitude >= 1");
    EXPECT_DEATH(build(handEvent(0.1, K::FluxTrap, 0, 0.5, 0.0)),
                 "flux-trap fault event needs a finite magnitude >= 1");
    EXPECT_DEATH(build(handEvent(0.1, K::FluxTrap, 0, inf, 0.0)),
                 "flux-trap fault event needs a finite magnitude >= 1");
    EXPECT_DEATH(build(handEvent(0.1, K::ClockSkew, 0, 0.0, 1e-3)),
                 "clock-skew fault event needs a finite magnitude >= 1");
    EXPECT_DEATH(build(handEvent(0.1, K::ClockSkew, 0, nan, 1e-3)),
                 "clock-skew fault event needs a finite magnitude >= 1");
    EXPECT_DEATH(build(handEvent(0.1, K::ClockSkew, 0, 1.5, -1e-3)),
                 "clock-skew fault event needs a duration >= 0");
    EXPECT_DEATH(build(handEvent(0.1, K::LinkGlitch, 0, -1e-5, 0.0)),
                 "link-glitch fault event needs a finite stall >= 0");
    EXPECT_DEATH(build(handEvent(0.1, K::LinkGlitch, 0, inf, 0.0)),
                 "link-glitch fault event needs a finite stall >= 0");
    EXPECT_DEATH(build(handEvent(inf, K::PulseDrop, 0, 0.0, 0.0)),
                 "pulse-drop fault event needs a finite time");
    EXPECT_DEATH(build(handEvent(nan, K::LinkGlitch, 0, 5e-5, 0.0)),
                 "link-glitch fault event needs a finite time");

    // Fields a kind does not use are stored, not checked; boundary
    // values pass.
    EXPECT_EQ(FaultSchedule::fromEvents(
                  config, {handEvent(0.1, K::PulseDrop, 0, -3.0, -1.0),
                           handEvent(0.1, K::FluxTrap, 1, 1.0, -1.0),
                           handEvent(0.1, K::ClockSkew, 2, 1.0, 0.0),
                           handEvent(0.2, K::LinkGlitch, 0, 0.0, -1.0)})
                  .size(),
              4u);
}

// --- degraded geometry -----------------------------------------------

class InjectorFixture : public ::testing::Test
{
  protected:
    InjectorFixture()
        : net(dnn::parseNetwork("network FaultTest\n"
                                "conv c1  3 16 16 3 1 1\n"
                                "conv c2 16 16 16 3 1 1\n")),
          config(estimator::NpuConfig::superNpu()),
          estimate(estimator::NpuEstimator(lib).estimate(config))
    {
    }

    static FaultSchedule
    singleTrap(FluxTrapTarget target)
    {
        FaultScheduleConfig config;
        FaultEvent event;
        event.kind = FaultKind::FluxTrap;
        event.trapTarget = target;
        event.magnitude = config.fluxTrapDerate;
        return FaultSchedule::fromEvents(config, {event});
    }

    static FaultSchedule
    pulseDrops(int count)
    {
        FaultScheduleConfig config;
        std::vector<FaultEvent> events;
        for (int i = 0; i < count; ++i) {
            FaultEvent event;
            event.timeSec = 1e-9 * i;
            events.push_back(event);
        }
        return FaultSchedule::fromEvents(config, events);
    }

    sfq::DeviceConfig dev;
    sfq::CellLibrary lib{dev};
    dnn::Network net;
    estimator::NpuConfig config;
    estimator::NpuEstimate estimate;
};

TEST_F(InjectorFixture, PristineGeometryIsAStrictNoOp)
{
    EXPECT_TRUE(geometryAfter(FaultSchedule(), 0).pristine());
    const auto same = degradeEstimate(estimate, DegradedGeometry{});
    EXPECT_EQ(npusim::hashEstimate(same),
              npusim::hashEstimate(estimate));
}

TEST_F(InjectorFixture, TrapsAccumulateIntoGeometry)
{
    const auto geometry =
        geometryAfter(singleTrap(FluxTrapTarget::PeColumn), 0);
    EXPECT_EQ(geometry.disabledColumns, 1);
    EXPECT_EQ(geometry.disabledChunks, 0);
    // The trap hit chip 0; chip 5 is untouched.
    EXPECT_TRUE(
        geometryAfter(singleTrap(FluxTrapTarget::PeColumn), 5)
            .pristine());
}

TEST_F(InjectorFixture, ColumnLossNarrowsTheArray)
{
    DegradedGeometry geometry;
    geometry.disabledColumns = 2;
    const auto degraded = degradeEstimate(estimate, geometry);
    EXPECT_EQ(degraded.config.peWidth, estimate.config.peWidth - 2);
    EXPECT_LT(degraded.peakMacPerSec, estimate.peakMacPerSec);
    EXPECT_NE(npusim::hashEstimate(degraded),
              npusim::hashEstimate(estimate));
}

// --- cycle-level injection -------------------------------------------

TEST_F(InjectorFixture, EmptyScheduleIsBitIdenticalToCleanRun)
{
    npusim::SimCache cache;
    FaultInjector injector(estimate, &cache);
    const auto injected = injector.run(net, 2, FaultSchedule());
    const auto direct = npusim::NpuSimulator(estimate).run(net, 2);
    EXPECT_EQ(injected->totalCycles, direct.totalCycles);
    EXPECT_DOUBLE_EQ(injected->seconds(), direct.seconds());
    EXPECT_EQ(injected->faultEventsInjected, 0u);
    EXPECT_EQ(injected->faultRecomputeCycles, 0u);
    EXPECT_DOUBLE_EQ(injected->secondsWithRecompute(),
                     injected->seconds());
}

TEST_F(InjectorFixture, CacheKeysCarryTheFaultHash)
{
    // Regression: a pure pulse-drop schedule leaves the degraded
    // geometry (and so the degraded estimate) identical to the clean
    // one. Before SimKey::faultHash the two runs collided in the
    // cache and a clean lookup could return fault-charged results.
    npusim::SimCache cache;
    FaultInjector injector(estimate, &cache);
    const auto faulted = injector.run(net, 2, pulseDrops(4));
    const auto clean = injector.run(net, 2, FaultSchedule());
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(clean->faultRecomputeCycles, 0u);
    EXPECT_GT(faulted->faultRecomputeCycles, 0u);
    // Same clean cycle counts — only the recompute surcharge differs.
    EXPECT_EQ(faulted->totalCycles, clean->totalCycles);

    // Distinct schedules must also key distinctly.
    const auto more = injector.run(net, 2, pulseDrops(8));
    EXPECT_EQ(cache.size(), 3u);
    EXPECT_GT(more->faultRecomputeCycles,
              faulted->faultRecomputeCycles);
}

TEST_F(InjectorFixture, TrapRemapCostsMeasuredCycles)
{
    npusim::SimCache cache;
    FaultInjector injector(estimate, &cache);
    const auto schedule = singleTrap(FluxTrapTarget::PeColumn);
    const auto clean = injector.run(net, 2, FaultSchedule());
    const auto trapped = injector.run(net, 2, schedule);
    EXPECT_GT(trapped->totalCycles, clean->totalCycles);
    const double derate = injector.serviceDerate(net, 2, schedule);
    EXPECT_GE(derate, 1.0);
    EXPECT_DOUBLE_EQ(derate, trapped->secondsWithRecompute() /
                                 clean->seconds());
}

// --- functional error propagation ------------------------------------

TEST(ErrorPropagation, SequentialChainsOnly)
{
    const dnn::Network plain =
        dnn::parseNetwork("network Seq\n"
                          "conv c1  3 16 16 3 1 1\n"
                          "conv c2 16 16 16 3 1 1\n");
    EXPECT_TRUE(canPropagate(plain));
    // Residual projections branch the shape graph.
    EXPECT_FALSE(canPropagate(dnn::makeResNet50()));
}

TEST(ErrorPropagation, ZeroRateMeansZeroError)
{
    const dnn::Network net =
        dnn::parseNetwork("network Seq\n"
                          "conv c1  3 16 16 3 1 1\n"
                          "conv c2 16 16 16 3 1 1\n");
    const auto report = propagateErrors(net, 0.0);
    EXPECT_EQ(report.totalFlips(), 0u);
    for (const auto &layer : report.layers) {
        EXPECT_EQ(layer.wrongOutputs, 0u);
        EXPECT_EQ(layer.maxAbsError, 0);
    }
}

TEST(ErrorPropagation, FlipsCorruptDeterministically)
{
    const dnn::Network net =
        dnn::parseNetwork("network Seq\n"
                          "conv c1  3 16 16 3 1 1\n"
                          "conv c2 16 16 16 3 1 1\n");
    const auto a = propagateErrors(net, 400.0);
    const auto b = propagateErrors(net, 400.0);
    EXPECT_GT(a.totalFlips(), 0u);
    EXPECT_GT(a.final().wrongOutputs, 0u);
    ASSERT_EQ(a.layers.size(), b.layers.size());
    for (std::size_t i = 0; i < a.layers.size(); ++i) {
        EXPECT_EQ(a.layers[i].wrongOutputs, b.layers[i].wrongOutputs);
        EXPECT_DOUBLE_EQ(a.layers[i].meanAbsError,
                         b.layers[i].meanAbsError);
    }
    // A different seed draws different flip sites.
    const auto c = propagateErrors(net, 400.0, 12345);
    EXPECT_NE(c.final().meanAbsError, a.final().meanAbsError);
}
