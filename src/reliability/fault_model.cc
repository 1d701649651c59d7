/**
 * @file
 * Fault-schedule generation: one seeded RNG stream per (chip, kind),
 * appended to one list of 16-byte records and put into canonical
 * order by a time-bucket pass that is linear in the event count.
 */

#include "fault_model.hh"

#include <algorithm>
#include <bit>
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

// The helpers in this namespace take the stored record type as a
// template parameter: it is private to FaultSchedule.
namespace {

/** Packing of a stored event's word: kind, trap target, table index. */
constexpr std::uint32_t kindMask = 0x3;
constexpr std::uint32_t trapBit = 0x4;
constexpr int paramShift = 3;
/** Parameter-table entries a 29-bit index can address. */
constexpr std::size_t maxParams = std::size_t{1} << (32 - paramShift);
static_assert(faultKindCount <= (int)kindMask + 1,
              "fault kinds must fit the word's kind bits");

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
 * Append one (chip, kind) stream to `records`: copies of `proto` at
 * the stream's arrival times in [0, horizon), in increasing order.
 * Arrivals are Poisson at `rate`, or — for transient kinds under
 * Burst arrivals — an on/off modulated Poisson whose on-rate is
 * scaled by 1/duty so the long-run rate still equals `rate`.
 */
template <typename Record>
void
appendStream(std::vector<Record> &records, Rng &rng,
             const FaultScheduleConfig &cfg, double rate, bool bursty,
             Record proto)
{
    if (rate <= 0)
        return;

    if (!bursty) {
        for (double t = expGap(rng, rate); t < cfg.horizonSec;
             t += expGap(rng, rate)) {
            proto.timeSec = t;
            records.push_back(proto);
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
            records.push_back(proto);
        }
    }
}

/** Canonical event order: (time, chip, kind). */
template <typename Record>
bool
recordBefore(const Record &a, const Record &b)
{
    if (a.timeSec != b.timeSec)
        return a.timeSec < b.timeSec;
    if (a.chip != b.chip)
        return a.chip < b.chip;
    return (a.word & kindMask) < (b.word & kindMask);
}

/**
 * Stably order one time bucket: insertion sort for the few events a
 * bucket holds when times spread over the horizon, std::stable_sort
 * for a crowded one (hand-written times bunched together or past the
 * horizon).
 */
template <typename Record>
void
orderBucket(Record *first, Record *last)
{
    constexpr std::ptrdiff_t insertionMax = 16;
    if (last - first < 2)
        return;
    if (last - first > insertionMax) {
        std::stable_sort(first, last, recordBefore<Record>);
        return;
    }
    for (Record *it = first + 1; it != last; ++it) {
        if (!recordBefore(*it, it[-1]))
            continue;
        const Record held = *it;
        Record *hole = it;
        do {
            *hole = hole[-1];
            --hole;
        } while (hole != first && recordBefore(held, hole[-1]));
        *hole = held;
    }
}

/**
 * Put `records` into canonical (time, chip, kind) order, equal keys
 * in input order: a counting pass over n time buckets gives each
 * record its destination, the permutation is applied in place (no
 * second copy of the records), and each bucket is then ordered on its
 * own.
 */
template <typename Record>
void
orderRecords(std::vector<Record> &records, double horizon_sec)
{
    const std::size_t n = records.size();
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
        const double at = records[i].timeSec * scale;
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
    // puts one record in its final slot.
    for (std::size_t i = 0; i < n; ++i) {
        while (dest[i] != i) {
            const std::uint32_t to = dest[i];
            std::swap(records[i], records[to]);
            std::swap(dest[i], dest[to]);
        }
    }

    std::uint32_t begin = 0;
    for (const std::uint32_t end : next) {
        orderBucket(records.data() + begin, records.data() + end);
        begin = end;
    }
}

/** Bitwise equality: -0.0 differs from 0.0, a NaN equals itself. */
bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) ==
           std::bit_cast<std::uint64_t>(b);
}

/** Fatal unless `event` carries parameters its kind can use. */
void
checkEvent(const FaultEvent &event, int chips)
{
    SUPERNPU_ASSERT(event.chip >= 0 && event.chip < chips,
                    "fault event on chip ", event.chip, " outside [0, ",
                    chips, ")");
    SUPERNPU_ASSERT((int)event.kind >= 0 &&
                        (int)event.kind < faultKindCount,
                    "bad fault kind ", (int)event.kind);
    SUPERNPU_ASSERT(event.trapTarget == FluxTrapTarget::PeColumn ||
                        event.trapTarget == FluxTrapTarget::BufferChunk,
                    "bad flux-trap target");
    const char *name = faultKindName(event.kind);
    if (!std::isfinite(event.timeSec))
        fatal(name, " fault event needs a finite time, got ",
              event.timeSec);
    SUPERNPU_ASSERT(event.timeSec >= 0, "fault before t = 0");
    switch (event.kind) {
      case FaultKind::PulseDrop:
        break;
      case FaultKind::FluxTrap:
      case FaultKind::ClockSkew:
        // A service multiplier below 1 would speed the chip up, and
        // 0 would make service free.
        if (!std::isfinite(event.magnitude) || !(event.magnitude >= 1.0))
            fatal(name, " fault event needs a finite magnitude >= 1, got ",
                  event.magnitude);
        if (event.kind == FaultKind::ClockSkew &&
            !(event.durationSec >= 0.0))
            fatal(name, " fault event needs a duration >= 0, got ",
                  event.durationSec);
        break;
      case FaultKind::LinkGlitch:
        if (!std::isfinite(event.magnitude) || !(event.magnitude >= 0.0))
            fatal(name, " fault event needs a finite stall >= 0, got ",
                  event.magnitude);
        break;
    }
}

} // namespace

FaultEvent
FaultSchedule::event(const Record &record, const Params *params)
{
    const Params &p = params[record.word >> paramShift];
    FaultEvent out;
    out.timeSec = record.timeSec;
    out.kind = (FaultKind)(record.word & kindMask);
    out.chip = record.chip;
    out.magnitude = p.magnitude;
    out.durationSec = p.durationSec;
    out.trapTarget = (record.word & trapBit) != 0
                         ? FluxTrapTarget::BufferChunk
                         : FluxTrapTarget::PeColumn;
    return out;
}

const FaultSchedule::Body &
FaultSchedule::body() const
{
    static const Body empty;
    return _body ? *_body : empty;
}

FaultSchedule::EventView
FaultSchedule::events() const
{
    const Body &b = body();
    return EventView(b.records.data(), b.params.data(), b.records.size());
}

std::shared_ptr<FaultSchedule::Body>
FaultSchedule::newBody(const FaultScheduleConfig &config)
{
    auto body = std::make_shared<Body>();
    body->config = config;
    // Table entries 0..3: each kind's parameters as the config sets
    // them, in FaultKind order, so a kind indexes its own default.
    body->params = {
        {0.0, 0.0},
        {config.fluxTrapDerate, 0.0},
        {config.clockSkewDerate, config.clockSkewDurationSec},
        {config.linkGlitchDelaySec, 0.0},
    };
    return body;
}

FaultSchedule
FaultSchedule::finish(std::shared_ptr<Body> body)
{
    for (const Record &record : body->records)
        ++body->perKind[record.word & kindMask];
    orderRecords(body->records, body->config.horizonSec);
    FaultSchedule schedule;
    schedule._body = std::move(body);
    return schedule;
}

FaultSchedule
FaultSchedule::generate(const FaultScheduleConfig &config)
{
    config.check();

    std::shared_ptr<Body> body = newBody(config);

    struct KindSpec
    {
        double rate;
        bool bursty;
    };
    const KindSpec kinds[faultKindCount] = {
        {config.pulseDropRatePerSec, config.arrival == FaultArrival::Burst},
        {config.fluxTrapRatePerSec, false},
        {config.clockSkewRatePerSec, config.arrival == FaultArrival::Burst},
        {config.linkGlitchRatePerSec, config.arrival == FaultArrival::Burst},
    };

    // Room for the expected count plus four standard deviations of a
    // Poisson count, so the record list is allocated once.
    double expected = 0.0;
    for (const KindSpec &spec : kinds)
        expected += spec.rate;
    expected *= config.horizonSec * (double)config.chips;
    const double room = expected + 4.0 * std::sqrt(expected) + 16.0;
    std::vector<Record> &records = body->records;
    if (room < (double)records.max_size())
        records.reserve((std::size_t)room);

    for (int chip = 0; chip < config.chips; ++chip) {
        for (int k = 0; k < faultKindCount; ++k) {
            const KindSpec &spec = kinds[k];
            const Record proto{0.0, chip,
                               (std::uint32_t)k |
                                   ((std::uint32_t)k << paramShift)};
            // One independent stream per (chip, kind): adding chips
            // or kinds never perturbs another stream's sequence.
            Rng rng(streamSeed(config.seed,
                               (std::uint64_t)chip * faultKindCount +
                                   (std::uint64_t)k));
            const std::size_t first = records.size();
            appendStream(records, rng, config, spec.rate, spec.bursty,
                         proto);
            // Trap targets are drawn after the stream's arrival
            // times, from the same stream.
            if (k == (int)FaultKind::FluxTrap) {
                for (std::size_t i = first; i < records.size(); ++i)
                    if (rng.uniform() >= 0.5)
                        records[i].word |= trapBit; // BufferChunk
            }
        }
    }

    return finish(std::move(body));
}

FaultSchedule
FaultSchedule::fromEvents(const FaultScheduleConfig &config,
                          std::vector<FaultEvent> events)
{
    config.check();
    for (const FaultEvent &event : events)
        checkEvent(event, config.chips);

    // The kinds' defaults, then one table entry per event whose
    // parameters differ from its kind's default, bit for bit.
    std::shared_ptr<Body> body = newBody(config);
    body->records.reserve(events.size());
    for (const FaultEvent &event : events) {
        const int k = (int)event.kind;
        const Params &base = body->params[(std::size_t)k];
        std::size_t index = (std::size_t)k;
        if (!sameBits(event.magnitude, base.magnitude) ||
            !sameBits(event.durationSec, base.durationSec)) {
            index = body->params.size();
            if (index == maxParams)
                fatal("fault schedule needs more than ", maxParams,
                      " parameter-table entries: too many events with"
                      " their own parameters");
            body->params.push_back({event.magnitude, event.durationSec});
        }
        std::uint32_t word =
            (std::uint32_t)k | ((std::uint32_t)index << paramShift);
        if (event.trapTarget == FluxTrapTarget::BufferChunk)
            word |= trapBit;
        body->records.push_back({event.timeSec, event.chip, word});
    }
    events = {}; // free the input before the records are ordered
    return finish(std::move(body));
}

std::uint64_t
FaultSchedule::hash() const
{
    const EventView view = events();
    if (view.empty())
        return 0; // the clean-run SimKey value
    Fnv1a hash;
    hash.word((std::uint64_t)view.size());
    for (const FaultEvent event : view) {
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
