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
 * Fault arrivals are generated as a FaultSchedule: a fully
 * materialized event list in (time, chip, kind) order. Every
 * (chip, kind) pair draws from its own common/rng stream seeded with
 * streamSeed(seed, chip * K + kind), so the schedule is
 * byte-identical regardless of generation order, chip count of
 * *other* chips, or the thread count of a surrounding sweep — the
 * same discipline the parallel explorer uses. Transient kinds support Poisson or bursty (on/off modulated
 * Poisson) arrivals; flux traps are Poisson at a much smaller rate
 * and permanent in effect.
 */

#ifndef SUPERNPU_RELIABILITY_FAULT_MODEL_HH
#define SUPERNPU_RELIABILITY_FAULT_MODEL_HH

#include <cstdint>
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
 * A fully materialized, deterministic fault schedule: events in
 * (time, chip, kind) order, events with equal keys in the order they
 * were given (generated events: by chip, then kind, then time). The
 * order is built without a comparison sort over the whole schedule:
 * each event falls into one of n time buckets over [0, horizon), a
 * counting pass applied in place groups the buckets, and each bucket
 * (about one event when times spread over the horizon) is ordered on
 * its own. That takes time linear in n and 8 bytes of scratch per
 * event; hand-written times crowded into one bucket, or past the
 * horizon, cost a stable sort of that bucket. The empty schedule
 * hashes to 0, so clean SimCache keys are unchanged by the fault
 * machinery.
 */
class FaultSchedule
{
  public:
    FaultSchedule() = default;

    /** Generate a schedule from per-(chip, kind) seeded streams. */
    static FaultSchedule generate(const FaultScheduleConfig &config);

    /**
     * Build a schedule from hand-written events (targeted tests and
     * demos); events are put into canonical order, equal keys keeping
     * their input order.
     */
    static FaultSchedule fromEvents(const FaultScheduleConfig &config,
                                    std::vector<FaultEvent> events);

    const std::vector<FaultEvent> &events() const { return _events; }
    const FaultScheduleConfig &config() const { return _config; }
    bool empty() const { return _events.empty(); }
    std::size_t size() const { return _events.size(); }

    /**
     * Structural FNV-1a hash over every event (time bit-exact).
     * Empty schedules hash to 0 — the clean-run SimKey value.
     */
    std::uint64_t hash() const;

  private:
    FaultScheduleConfig _config;
    std::vector<FaultEvent> _events;
};

} // namespace reliability
} // namespace supernpu

#endif // SUPERNPU_RELIABILITY_FAULT_MODEL_HH
