/**
 * @file
 * Deterministic, seeded fault models for SFQ hardware.
 *
 * SuperNPU's performance story assumes fault-free superconducting
 * logic, but the devices it models are notoriously sensitive near
 * the 47+ GHz operating point. Four physically-motivated fault kinds
 * cover the failure modes the SFQ literature treats as first-class:
 *
 *  - PulseDrop: a single flux quantum fails to propagate — a bit
 *    flip inside a PE MAC or psum. Transient; corrupts whatever
 *    computation is in flight on the chip.
 *  - FluxTrap: stray flux pins in a washer loop and biases a region
 *    of the chip off its margin — permanently disabling a PE column
 *    or a shift-register buffer chunk. The array remaps around it
 *    and runs degraded forever after.
 *  - ClockSkew: a timing-margin violation in the clock tree forces
 *    a temporary frequency derate until the clock recovers.
 *  - LinkGlitch: an off-chip link (the 4 K <-> 300 K boundary)
 *    hiccups, stalling the chip's in-flight transfer.
 *
 * Fault arrivals are generated as a FaultSchedule: an immutable event
 * list in (time, chip, kind) order. Every (chip, kind) pair draws
 * from its own common/rng stream seeded with
 * streamSeed(seed, chip * K + kind), so the schedule is
 * byte-identical regardless of generation order, chip count of
 * *other* chips, or the thread count of a surrounding sweep — the
 * same discipline the parallel explorer uses. Transient kinds
 * support Poisson or bursty (on/off modulated Poisson) arrivals;
 * flux traps are Poisson at a much smaller rate and permanent in
 * effect.
 */

#ifndef SUPERNPU_RELIABILITY_FAULT_MODEL_HH
#define SUPERNPU_RELIABILITY_FAULT_MODEL_HH

#include <compare>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <vector>

namespace supernpu {
namespace reliability {

/** The SFQ failure modes the fault models cover. */
enum class FaultKind
{
    PulseDrop, ///< transient bit flip in a PE MAC / psum
    FluxTrap,  ///< permanent: PE column or buffer chunk disabled
    ClockSkew, ///< transient frequency derate window
    LinkGlitch,///< off-chip link stall
};

/** Number of fault kinds (stream indexing). */
constexpr int faultKindCount = 4;

/** Stable lowercase name of a fault kind. */
const char *faultKindName(FaultKind kind);

/** What a flux trap disables. */
enum class FluxTrapTarget
{
    PeColumn,    ///< one systolic-array column remapped out
    BufferChunk, ///< one shift-register buffer chunk lost
};

/** One scheduled hardware fault. */
struct FaultEvent
{
    double timeSec = 0.0;
    FaultKind kind = FaultKind::PulseDrop;
    int chip = 0;
    /**
     * Kind-specific magnitude: service-time multiplier for FluxTrap
     * (>= 1) and ClockSkew (>= 1), stall seconds for LinkGlitch,
     * unused (0) for PulseDrop.
     */
    double magnitude = 0.0;
    /** ClockSkew derate window length, seconds; 0 otherwise. */
    double durationSec = 0.0;
    /** FluxTrap target; PeColumn otherwise ignored. */
    FluxTrapTarget trapTarget = FluxTrapTarget::PeColumn;
};

/** Arrival shape of the transient fault kinds. */
enum class FaultArrival
{
    Poisson, ///< memoryless at the configured rate
    Burst,   ///< on/off modulated Poisson, same long-run rate
};

/** Stable lowercase name of a fault arrival shape. */
const char *faultArrivalName(FaultArrival arrival);

/** Parameters of a fault-schedule generation. */
struct FaultScheduleConfig
{
    /** Events are generated in [0, horizonSec). */
    double horizonSec = 1.0;
    int chips = 1;
    std::uint64_t seed = 0x5f0c5eed2026ull;

    FaultArrival arrival = FaultArrival::Poisson;
    double burstMeanOnSec = 5e-3;  ///< mean burst on-phase
    double burstMeanOffSec = 45e-3;///< mean burst off-phase

    // --- per-chip-per-second rates; 0 disables a kind ---------------
    double pulseDropRatePerSec = 0.0;
    double fluxTrapRatePerSec = 0.0;
    double clockSkewRatePerSec = 0.0;
    double linkGlitchRatePerSec = 0.0;

    // --- magnitudes -------------------------------------------------
    /** Service-time multiplier one flux trap costs (remap + redo). */
    double fluxTrapDerate = 2.0;
    double clockSkewDerate = 1.5;
    double clockSkewDurationSec = 1e-3;
    double linkGlitchDelaySec = 5e-5;

    /** At least one kind has a nonzero rate. */
    bool anyFaults() const
    {
        return pulseDropRatePerSec > 0 || fluxTrapRatePerSec > 0 ||
               clockSkewRatePerSec > 0 || linkGlitchRatePerSec > 0;
    }

    /** Panics when malformed. */
    void check() const;
};

/**
 * A deterministic fault schedule: an immutable value holding events
 * in (time, chip, kind) order, events with equal keys in the order
 * they were given (generated events: by chip, then kind, then time).
 *
 * Storage. The events live once, in a body that every copy of the
 * schedule shares (copying a ServingConfig copies a pointer). Each
 * event is stored as a 16-byte record: its time, its chip and one
 * 32-bit word packing the kind (2 bits), the trap target (1 bit) and
 * an index into the body's parameter table of (magnitude,
 * durationSec) pairs. Table entries 0..3 are each kind's pair as the
 * config sets it; a generated schedule uses only those. fromEvents()
 * appends an entry for each event whose pair differs bitwise from its
 * kind's default, so every field of a hand-written event reads back
 * bit for bit. The body also keeps the number of events of each kind.
 * events() reads the records through a view that yields FaultEvent
 * by value.
 *
 * Order. The order is built without a comparison sort over the whole
 * schedule: each event falls into one of n time buckets over
 * [0, horizon), a counting pass applied in place groups the buckets,
 * and each bucket (about one event when times spread over the
 * horizon) is ordered on its own. That takes time linear in n and 8
 * bytes of scratch per event; hand-written times crowded into one
 * bucket, or past the horizon, cost a stable sort of that bucket. The
 * empty schedule hashes to 0, so clean SimCache keys are unchanged by
 * the fault machinery.
 */
class FaultSchedule
{
    struct Record;
    struct Params;

  public:
    /**
     * Read-only view of a schedule's events, in schedule order.
     * Element access and iterators yield FaultEvent by value; the
     * iterators point into the schedule's body, so iterators taken
     * from two views of one schedule compare and subtract. Valid
     * while the schedule (or a copy of it) lives.
     */
    class EventView
    {
      public:
        class const_iterator
        {
          public:
            using iterator_category = std::random_access_iterator_tag;
            using value_type = FaultEvent;
            using difference_type = std::ptrdiff_t;
            using pointer = void;
            using reference = FaultEvent;

            const_iterator() = default;
            const_iterator(const Record *at, const Params *params)
                : _at(at), _params(params)
            {
            }

            FaultEvent operator*() const { return event(*_at, _params); }
            FaultEvent operator[](difference_type n) const
            {
                return event(_at[n], _params);
            }
            const_iterator &operator++()
            {
                ++_at;
                return *this;
            }
            const_iterator operator++(int)
            {
                const_iterator was = *this;
                ++_at;
                return was;
            }
            const_iterator &operator--()
            {
                --_at;
                return *this;
            }
            const_iterator operator--(int)
            {
                const_iterator was = *this;
                --_at;
                return was;
            }
            const_iterator &operator+=(difference_type n)
            {
                _at += n;
                return *this;
            }
            const_iterator &operator-=(difference_type n)
            {
                _at -= n;
                return *this;
            }
            friend const_iterator operator+(const_iterator it,
                                            difference_type n)
            {
                return it += n;
            }
            friend const_iterator operator+(difference_type n,
                                            const_iterator it)
            {
                return it += n;
            }
            friend const_iterator operator-(const_iterator it,
                                            difference_type n)
            {
                return it -= n;
            }
            friend difference_type operator-(const const_iterator &a,
                                             const const_iterator &b)
            {
                return a._at - b._at;
            }
            bool operator==(const const_iterator &o) const
            {
                return _at == o._at;
            }
            std::strong_ordering operator<=>(const const_iterator &o) const
            {
                return _at <=> o._at;
            }

          private:
            const Record *_at = nullptr;
            const Params *_params = nullptr;
        };

        EventView() = default;
        EventView(const Record *records, const Params *params,
                  std::size_t size)
            : _records(records), _params(params), _size(size)
        {
        }

        std::size_t size() const { return _size; }
        bool empty() const { return _size == 0; }
        FaultEvent operator[](std::size_t i) const
        {
            return event(_records[i], _params);
        }
        /** Event i's time and chip, read without the parameters. */
        double timeSec(std::size_t i) const { return _records[i].timeSec; }
        int chip(std::size_t i) const { return _records[i].chip; }
        const_iterator begin() const
        {
            return const_iterator(_records, _params);
        }
        const_iterator end() const
        {
            return const_iterator(_records + _size, _params);
        }

      private:
        const Record *_records = nullptr;
        const Params *_params = nullptr;
        std::size_t _size = 0;
    };

    FaultSchedule() = default;

    /** Generate a schedule from per-(chip, kind) seeded streams. */
    static FaultSchedule generate(const FaultScheduleConfig &config);

    /**
     * Build a schedule from hand-written events (targeted tests and
     * demos); events are put into canonical order, equal keys keeping
     * their input order. Fatal on an event whose kind cannot use its
     * parameters: a non-finite time; a flux trap or clock skew whose
     * magnitude is not a finite multiplier >= 1; a link glitch whose
     * stall is not finite and >= 0; a clock skew whose window is
     * negative.
     */
    static FaultSchedule fromEvents(const FaultScheduleConfig &config,
                                    std::vector<FaultEvent> events);

    EventView events() const;
    const FaultScheduleConfig &config() const { return body().config; }
    bool empty() const { return size() == 0; }
    std::size_t size() const { return body().records.size(); }
    /** Number of events of `kind`, counted when the schedule was built. */
    std::uint64_t count(FaultKind kind) const
    {
        return body().perKind[(int)kind];
    }

    /**
     * Structural FNV-1a hash over every event (time bit-exact).
     * Empty schedules hash to 0 — the clean-run SimKey value.
     */
    std::uint64_t hash() const;

  private:
    /**
     * One stored event. `word` packs the kind (bits 0-1), the trap
     * target (bit 2) and the event's parameter-table index (bits
     * 3-31).
     */
    struct Record
    {
        double timeSec;
        std::int32_t chip;
        std::uint32_t word;
    };
    static_assert(sizeof(Record) == 16, "stored fault events are 16 bytes");

    /** One parameter-table entry. */
    struct Params
    {
        double magnitude;
        double durationSec;
    };

    struct Body
    {
        FaultScheduleConfig config;
        std::vector<Record> records;
        std::vector<Params> params;
        std::uint64_t perKind[faultKindCount] = {};
    };

    /** The event `record` stores, its parameters read from `params`. */
    static FaultEvent event(const Record &record, const Params *params);
    /** The shared body; the empty one for a default schedule. */
    const Body &body() const;
    /** A body holding `config` and the kinds' default parameters. */
    static std::shared_ptr<Body> newBody(const FaultScheduleConfig &config);
    /** Count kinds and order the records of a freshly built body. */
    static FaultSchedule finish(std::shared_ptr<Body> body);

    std::shared_ptr<const Body> _body;
};

} // namespace reliability
} // namespace supernpu

#endif // SUPERNPU_RELIABILITY_FAULT_MODEL_HH
