/**
 * @file
 * Serving metrics: what a load-test harness would report about an
 * inference service — throughput, chip utilization, queue depth, and
 * the latency tail (p50/p95/p99/p99.9) — collected streamingly so
 * million-request runs stay O(1) in memory.
 *
 * Latency percentiles ride the log-binned common/stats Histogram;
 * queue depth is a time-weighted average (integrated between events,
 * not sampled at them, so long quiet gaps weigh correctly).
 */

#ifndef SUPERNPU_SERVING_METRICS_HH
#define SUPERNPU_SERVING_METRICS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"

namespace supernpu {
namespace serving {

/** Everything a serving run reports. */
struct ServingReport
{
    // --- run identity -----------------------------------------------
    std::string network;
    std::string configName;
    int chips = 1;
    std::string arrival;  ///< arrival kind name
    std::string policy;   ///< batching policy name
    std::string dispatch; ///< dispatch policy name
    int maxBatch = 1;
    /** Stages per pipeline group; 1 = whole-request placement. */
    int pipelineStages = 1;
    /** Pipeline groups (chips / pipelineStages). */
    int pipelineGroups = 0;
    /** Replicas per data-parallel group; 1 = unreplicated. */
    int dataParallelReplicas = 1;
    /** Replica groups (chips / dataParallelReplicas). */
    int replicaGroups = 0;

    // --- volume -----------------------------------------------------
    std::uint64_t generated = 0; ///< requests injected
    std::uint64_t completed = 0; ///< requests answered
    /** Calendar events the run() loop popped (harness work metric). */
    std::uint64_t eventsProcessed = 0;
    double makespanSec = 0.0;    ///< first arrival to last completion

    // --- rates ------------------------------------------------------
    double offeredRps = 0.0;    ///< configured (open) / achieved (closed)
    double throughputRps = 0.0; ///< completed / makespan
    double utilization = 0.0;   ///< mean busy fraction across chips
    double meanQueueDepth = 0.0;

    // --- batching ---------------------------------------------------
    std::uint64_t batchesLaunched = 0;
    double meanBatch = 0.0;
    int maxBatchLaunched = 0;

    // --- latency (seconds) ------------------------------------------
    double latencyMean = 0.0;
    double latencyP50 = 0.0;
    double latencyP95 = 0.0;
    double latencyP99 = 0.0;
    double latencyP999 = 0.0;
    double latencyMax = 0.0;

    // --- resilience (src/serving/resilience.hh) ---------------------
    // Filled, and printed, only when the run carried a fault
    // schedule; a clean run's report and output are unchanged.
    bool resilienceActive = false;
    std::string recovery;  ///< recovery policy name
    std::uint64_t faultsScheduled = 0; ///< events in the schedule
    std::uint64_t faultsInjected = 0; ///< fault events within the run
    std::uint64_t batchesKilled = 0;  ///< corrupted batches aborted
    /** Requests riding killed batches (== retries + give-ups). */
    std::uint64_t requestsKilled = 0;
    std::uint64_t retriesTotal = 0;   ///< re-enqueues after kills
    std::uint64_t retryGiveUps = 0;   ///< killed past the retry budget
    std::uint64_t restarts = 0;       ///< checkpoint restarts
    std::uint64_t redispatches = 0;   ///< requests moved off quarantine
    std::uint64_t glitchesAbsorbed = 0; ///< link stalls ridden out
    std::uint64_t failedRequests = 0; ///< corrupted or given up
    /** Fraction of chip-seconds not lost to faults. */
    double availability = 1.0;
    /** Successfully-answered (non-failed) requests per second. */
    double goodputRps = 0.0;
    /** Batches launched per chip (quarantine verification). */
    std::vector<std::uint64_t> perChipBatches;
    /** Busy seconds per chip; the sum is bounded by chips x makespan. */
    std::vector<double> perChipBusySec;

    /** Render as a two-column table on stdout. */
    void print() const;
};

/** Streaming accumulator the event loop feeds. */
class MetricsCollector
{
  public:
    explicit MetricsCollector(int chips);

    /**
     * Advance the simulation clock to `now`, integrating the current
     * total queue depth over the elapsed interval. Call before
     * mutating any queue at an event.
     */
    void advanceTo(double now_sec, std::size_t total_queue_depth);

    /** One request completed with the given sojourn time. */
    void recordLatency(double seconds);

    /**
     * One batch launched on a dispatch group whose first chip is
     * `first_chip`: the launch counts once (attributed to that chip,
     * keeping Σ perChipBatches == batchesLaunched) while lane l's
     * busy time lands on each of its `replicas` chips, first_chip +
     * l·replicas onward.
     */
    void recordGroupBatch(int first_chip, int size,
                          const std::vector<double> &lane_busy,
                          int replicas);

    /**
     * Adjust a chip's recorded busy time after the fact: positive
     * when a link glitch stretches an in-flight batch, negative when
     * a detected fault kills one before its scheduled completion.
     */
    void extendBusy(int chip, double delta_sec);

    /**
     * Charge `seconds` of one chip's capacity to a transient fault
     * (a clock-skew derate window or an absorbed link stall).
     */
    void addTransientLoss(int chip, double seconds);

    /**
     * From `since_sec` on, `fraction` of the chip's capacity is
     * permanently lost (flux-trap derate, or 1.0 on quarantine).
     * Later calls supersede: the old fraction accrues up to the new
     * call's time first, so a worsening chip integrates correctly.
     */
    void setPermanentLoss(int chip, double since_sec, double fraction);

    /** Snapshot the report (volume fields are filled by the caller). */
    ServingReport finish(double makespan_sec) const;

  private:
    Histogram _latency{1e-8, 1e3, 53};
    // Launched batch sizes: integers, so the sum is exact in a double.
    std::uint64_t _batches = 0;
    std::uint64_t _batchSizeSum = 0;
    int _maxBatch = 0;
    std::vector<double> _busySec; ///< per-chip busy time
    std::vector<std::uint64_t> _chipBatches; ///< per-chip launches
    double _depthIntegral = 0.0;  ///< ∫ depth dt
    double _clockSec = 0.0;       ///< last advanceTo time

    // --- fault-capacity accounting ----------------------------------
    std::vector<double> _transientLossSec;
    std::vector<double> _permFraction;  ///< current permanent loss
    std::vector<double> _permSinceSec;  ///< when it took effect
    std::vector<double> _permAccruedSec;///< loss under superseded rates
};

} // namespace serving
} // namespace supernpu

#endif // SUPERNPU_SERVING_METRICS_HH
