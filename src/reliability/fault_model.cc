/**
 * @file
 * Fault-schedule generation: one seeded RNG stream per (chip, kind),
 * appended to one event list and put into canonical order by a
 * time-bucket pass that is linear in the event count.
 */

#include "fault_model.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "common/hash.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/rng.hh"

namespace supernpu {
namespace reliability {

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::PulseDrop:
        return "pulse-drop";
      case FaultKind::FluxTrap:
        return "flux-trap";
      case FaultKind::ClockSkew:
        return "clock-skew";
      case FaultKind::LinkGlitch:
        return "link-glitch";
    }
    panic("bad fault kind");
}

const char *
faultArrivalName(FaultArrival arrival)
{
    switch (arrival) {
      case FaultArrival::Poisson:
        return "poisson";
      case FaultArrival::Burst:
        return "burst";
    }
    panic("bad fault arrival");
}

void
FaultScheduleConfig::check() const
{
    if (horizonSec <= 0)
        fatal("fault schedule needs a positive horizon");
    if (chips < 1)
        fatal("fault schedule needs at least one chip");
    if (pulseDropRatePerSec < 0 || fluxTrapRatePerSec < 0 ||
        clockSkewRatePerSec < 0 || linkGlitchRatePerSec < 0)
        fatal("fault rates must be non-negative");
    if (fluxTrapDerate < 1.0 || clockSkewDerate < 1.0)
        fatal("fault derates are service multipliers and must be >= 1");
    if (clockSkewDurationSec < 0 || linkGlitchDelaySec < 0)
        fatal("fault durations must be non-negative");
    if (arrival == FaultArrival::Burst &&
        (burstMeanOnSec <= 0 || burstMeanOffSec <= 0))
        fatal("burst arrivals need positive on/off phase means");
}

namespace {

/** Exponential variate with the given rate. */
double
expGap(Rng &rng, double rate_per_sec)
{
    double u = rng.uniform();
    if (u < 1e-300)
        u = 1e-300;
    return -std::log(u) / rate_per_sec;
}

/**
 * Append one (chip, kind) stream to `events`: copies of `proto` at
 * the stream's arrival times in [0, horizon), in increasing order.
 * Arrivals are Poisson at `rate`, or — for transient kinds under
 * Burst arrivals — an on/off modulated Poisson whose on-rate is
 * scaled by 1/duty so the long-run rate still equals `rate`.
 */
void
appendStream(std::vector<FaultEvent> &events, Rng &rng,
             const FaultScheduleConfig &cfg, double rate, bool bursty,
             FaultEvent proto)
{
    if (rate <= 0)
        return;

    if (!bursty) {
        for (double t = expGap(rng, rate); t < cfg.horizonSec;
             t += expGap(rng, rate)) {
            proto.timeSec = t;
            events.push_back(proto);
        }
        return;
    }

    // On/off modulation: arrivals only inside on-phases, with the
    // on-rate scaled by 1/duty so the long-run rate is unchanged.
    const double duty =
        cfg.burstMeanOnSec / (cfg.burstMeanOnSec + cfg.burstMeanOffSec);
    const double on_rate = rate / duty;
    double t = 0.0;
    double on_end = expGap(rng, 1.0 / cfg.burstMeanOnSec);
    while (t < cfg.horizonSec) {
        t += expGap(rng, on_rate);
        if (t >= on_end) {
            // The arrival fell past the on-phase: sit out the off
            // phase and resume inside the next on-phase.
            t = on_end + expGap(rng, 1.0 / cfg.burstMeanOffSec);
            on_end = t + expGap(rng, 1.0 / cfg.burstMeanOnSec);
            continue;
        }
        if (t < cfg.horizonSec) {
            proto.timeSec = t;
            events.push_back(proto);
        }
    }
}

/** Canonical event order: (time, chip, kind). */
bool
eventBefore(const FaultEvent &a, const FaultEvent &b)
{
    if (a.timeSec != b.timeSec)
        return a.timeSec < b.timeSec;
    if (a.chip != b.chip)
        return a.chip < b.chip;
    return (int)a.kind < (int)b.kind;
}

/**
 * Stably order one time bucket: insertion sort for the few events a
 * bucket holds when times spread over the horizon, std::stable_sort
 * for a crowded one (hand-written times bunched together or past the
 * horizon).
 */
void
orderBucket(FaultEvent *first, FaultEvent *last)
{
    constexpr std::ptrdiff_t insertionMax = 16;
    if (last - first < 2)
        return;
    if (last - first > insertionMax) {
        std::stable_sort(first, last, eventBefore);
        return;
    }
    for (FaultEvent *it = first + 1; it != last; ++it) {
        if (!eventBefore(*it, it[-1]))
            continue;
        const FaultEvent held = *it;
        FaultEvent *hole = it;
        do {
            *hole = hole[-1];
            --hole;
        } while (hole != first && eventBefore(held, hole[-1]));
        *hole = held;
    }
}

/**
 * Put `events` into canonical (time, chip, kind) order, equal keys in
 * input order: a counting pass over n time buckets gives each event
 * its destination, the permutation is applied in place (no second
 * copy of the events), and each bucket is then ordered on its own.
 */
void
orderEvents(std::vector<FaultEvent> &events, double horizon_sec)
{
    const std::size_t n = events.size();
    if (n < 2)
        return;
    SUPERNPU_ASSERT(n <= UINT32_MAX, "fault schedule of ", n,
                    " events is too long to order");

    // Bucket t * n / horizon, clamped in double before the integer
    // conversion: a time far past the horizon (or an infinite scale)
    // lands in the last bucket instead of overflowing. A positive
    // scale keeps the index monotone in t, so bucket order never
    // contradicts time order.
    const double scale = (double)n / horizon_sec;
    const double last = (double)(n - 1);
    std::vector<std::uint32_t> dest(n);
    std::vector<std::uint32_t> next(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        const double at = events[i].timeSec * scale;
        dest[i] = at < last ? (std::uint32_t)at : (std::uint32_t)last;
        ++next[dest[i]];
    }
    // Bucket counts -> first slots; then hand out slots in input
    // order, which leaves next[b] at the end of bucket b.
    std::uint32_t slot = 0;
    for (std::uint32_t &count : next) {
        const std::uint32_t size = count;
        count = slot;
        slot += size;
    }
    for (std::uint32_t &to : dest)
        to = next[to]++;

    // Apply the permutation in place, one cycle at a time: each swap
    // puts one event in its final slot.
    for (std::size_t i = 0; i < n; ++i) {
        while (dest[i] != i) {
            const std::uint32_t to = dest[i];
            std::swap(events[i], events[to]);
            std::swap(dest[i], dest[to]);
        }
    }

    std::uint32_t begin = 0;
    for (const std::uint32_t end : next) {
        orderBucket(events.data() + begin, events.data() + end);
        begin = end;
    }
}

} // namespace

FaultSchedule
FaultSchedule::generate(const FaultScheduleConfig &config)
{
    config.check();

    FaultSchedule schedule;
    schedule._config = config;

    struct KindSpec
    {
        FaultKind kind;
        double rate;
        bool bursty;
    };
    const KindSpec kinds[faultKindCount] = {
        {FaultKind::PulseDrop, config.pulseDropRatePerSec,
         config.arrival == FaultArrival::Burst},
        {FaultKind::FluxTrap, config.fluxTrapRatePerSec, false},
        {FaultKind::ClockSkew, config.clockSkewRatePerSec,
         config.arrival == FaultArrival::Burst},
        {FaultKind::LinkGlitch, config.linkGlitchRatePerSec,
         config.arrival == FaultArrival::Burst},
    };

    // Room for the expected count plus four standard deviations of a
    // Poisson count, so the event list is allocated once.
    double expected = 0.0;
    for (const KindSpec &spec : kinds)
        expected += spec.rate;
    expected *= config.horizonSec * (double)config.chips;
    const double room = expected + 4.0 * std::sqrt(expected) + 16.0;
    std::vector<FaultEvent> &events = schedule._events;
    if (room < (double)events.max_size())
        events.reserve((std::size_t)room);

    for (int chip = 0; chip < config.chips; ++chip) {
        for (int k = 0; k < faultKindCount; ++k) {
            const KindSpec &spec = kinds[k];
            FaultEvent proto;
            proto.kind = spec.kind;
            proto.chip = chip;
            switch (spec.kind) {
              case FaultKind::PulseDrop:
                break;
              case FaultKind::FluxTrap:
                proto.magnitude = config.fluxTrapDerate;
                break;
              case FaultKind::ClockSkew:
                proto.magnitude = config.clockSkewDerate;
                proto.durationSec = config.clockSkewDurationSec;
                break;
              case FaultKind::LinkGlitch:
                proto.magnitude = config.linkGlitchDelaySec;
                break;
            }
            // One independent stream per (chip, kind): adding chips
            // or kinds never perturbs another stream's sequence.
            Rng rng(streamSeed(config.seed,
                               (std::uint64_t)chip * faultKindCount +
                                   (std::uint64_t)k));
            const std::size_t first = events.size();
            appendStream(events, rng, config, spec.rate, spec.bursty,
                         proto);
            // Trap targets are drawn after the stream's arrival
            // times, from the same stream.
            if (spec.kind == FaultKind::FluxTrap) {
                for (std::size_t i = first; i < events.size(); ++i)
                    events[i].trapTarget =
                        rng.uniform() < 0.5 ? FluxTrapTarget::PeColumn
                                            : FluxTrapTarget::BufferChunk;
            }
        }
    }

    orderEvents(events, config.horizonSec);
    return schedule;
}

FaultSchedule
FaultSchedule::fromEvents(const FaultScheduleConfig &config,
                          std::vector<FaultEvent> events)
{
    config.check();
    for (const FaultEvent &event : events) {
        SUPERNPU_ASSERT(event.chip >= 0 && event.chip < config.chips,
                        "fault event on chip ", event.chip,
                        " outside [0, ", config.chips, ")");
        SUPERNPU_ASSERT(event.timeSec >= 0, "fault before t = 0");
    }
    FaultSchedule schedule;
    schedule._config = config;
    schedule._events = std::move(events);
    orderEvents(schedule._events, config.horizonSec);
    return schedule;
}

std::uint64_t
FaultSchedule::hash() const
{
    if (_events.empty())
        return 0; // the clean-run SimKey value
    Fnv1a hash;
    hash.word((std::uint64_t)_events.size());
    for (const FaultEvent &event : _events) {
        hash.real(event.timeSec);
        hash.word((std::uint64_t)event.kind);
        hash.word((std::uint64_t)event.chip);
        hash.real(event.magnitude);
        hash.real(event.durationSec);
        hash.word((std::uint64_t)event.trapTarget);
    }
    return hash.value();
}

} // namespace reliability
} // namespace supernpu
