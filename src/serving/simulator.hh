/**
 * @file
 * The discrete-event inference-serving simulator: requests arrive
 * (arrival.hh), a dispatcher places them on chip groups
 * (dispatch.hh), per-group batch queues form batches (batcher.hh),
 * and each launched batch occupies its group's chips for the
 * cycle-level timing of a GroupTimingModel (service_model.hh).
 * Completion latencies and system occupancy feed the metrics
 * collector (metrics.hh).
 *
 * The event loop pops eight event kinds in one (time, sequence)
 * order: arrival, batch timeout, batch completion, fault, detection,
 * quarantine, retry and pipeline stage-free. Its calendar has four
 * parts: a cursor over the time-sorted fault schedule, a slot for an
 * open-loop source's one pending arrival, two slots per dispatch
 * target (its head batch's completion and its pending stage-free,
 * re-keyed in place when a fault moves or cancels them), and a small
 * heap of every other event. No superseded event is ever popped. All
 * stochastic choices flow through one seeded common/rng generator,
 * so a (config, seed) pair replays bit-identically.
 *
 * Drain semantics: once the configured request count has been
 * injected, remaining queued requests flush even if the fixed-batch
 * policy would strand a partial batch — so `completed == generated`
 * always holds at the end of run().
 *
 * Fault injection: attaching a reliability::FaultSchedule streams
 * its events through the calendar's fault cursor — pulse drops
 * corrupt in-flight batches, flux traps permanently derate (and,
 * under degraded dispatch, quarantine) chips, clock-skew windows
 * derate launches, and link glitches stall a lane and stretch
 * in-flight batches. Detection
 * kills only the batches of the corruption wave it was armed for,
 * and a kill gives each chip back the compute and stall it cut
 * short. The attached ResilienceConfig decides what happens after
 * detection (resilience.hh). With an empty schedule no fault event
 * is ever created and the run is byte-identical to a fault-free
 * build.
 */

#ifndef SUPERNPU_SERVING_SIMULATOR_HH
#define SUPERNPU_SERVING_SIMULATOR_HH

#include <cstdint>

#include "arrival.hh"
#include "batcher.hh"
#include "dispatch.hh"
#include "metrics.hh"
#include "partition/pipeline_sim.hh"
#include "reliability/fault_model.hh"
#include "resilience.hh"
#include "service_model.hh"

namespace supernpu {
namespace serving {

/** Full description of one serving experiment. */
struct ServingConfig
{
    ArrivalConfig arrival;
    BatchingConfig batching;
    DispatchPolicy dispatch = DispatchPolicy::JoinShortestQueue;

    int chips = 1;                  ///< identical NPU dies
    std::uint64_t requests = 20000; ///< total requests to inject
    std::uint64_t seed = 0x5e971ce5eedull; ///< RNG seed

    // --- placement: groups of G = R·K chips --------------------------
    // The dispatcher places requests on groups, each K stage lanes of
    // R replica chips (GroupTimingModel); G = 1 (the default) is a
    // lone die, byte for byte the pre-partition behavior. A fault on
    // any chip degrades — and under degraded dispatch quarantines —
    // the whole group; a glitch stalls the struck chip's lane. Needs
    // chips % G == 0. At most one of K, R exceeds 1 (the group model
    // covers R×K; serving does not allow it yet), and checkpoint-
    // restart needs G == 1 (no per-stage or distributed checkpoint
    // model).
    /**
     * Stage lanes per group (src/partition). K > 1 streams batches
     * through the K stages back to back: lane 0 frees one initiation
     * interval after launch, and results emerge a full pipeline fill
     * latency after launch.
     */
    int pipelineStages = 1;

    /**
     * Replica chips per lane (src/sharding). R > 1 makes each group
     * one logical server: a launched batch splits into near-equal
     * shares, and every replica is busy for the widest share's
     * service time plus the ring all-gather of the results.
     */
    int dataParallelReplicas = 1;

    /**
     * Inter-chip link of pipelined groups (K > 1) and of replica
     * groups' all-gather (R > 1).
     */
    partition::LinkConfig link;

    /**
     * Hardware faults to inject; empty (the default) runs fault-free
     * and leaves every output byte-identical to a no-faults build.
     * A non-empty schedule must cover exactly `chips` chips.
     */
    reliability::FaultSchedule faults;
    /** What the serving layer does about detected faults. */
    ResilienceConfig resilience;

    /** Panics when malformed. */
    void check() const;
};

/** Runs one serving experiment over a batch service model. */
class ServingSimulator
{
  public:
    ServingSimulator(const BatchServiceModel &service,
                     const ServingConfig &config);

    /** Simulate until every injected request completes. */
    ServingReport run();

  private:
    const BatchServiceModel &_service;
    ServingConfig _cfg;
};

} // namespace serving
} // namespace supernpu

#endif // SUPERNPU_SERVING_SIMULATOR_HH
