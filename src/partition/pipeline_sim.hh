/**
 * @file
 * Pipeline-parallel cycle simulator over a partitioned network.
 *
 * Composes the per-stage SimResults of a PartitionPlan with the
 * inter-chip link transfers into whole-pipeline timing for a stream
 * of batches. Stage i occupies its chip for stageCycles + outbound
 * linkCycles per batch; the pipeline initiation interval is the
 * bottleneck stage's occupancy, so a stream of M batches finishes
 * in fill + (M-1)·bottleneck cycles — the first batch rides every
 * stage end to end (fill latency), every later one emerges a
 * bottleneck interval after its predecessor. Per-stage utilization
 * is occupancy over the bottleneck: 1.0 at the bottleneck stage,
 * lower everywhere the partitioner could not balance exactly.
 *
 * The model is analytic over simulated per-stage cycles: it charges
 * no pipeline-register or control overhead beyond the link model,
 * and stages never block each other (infinite inter-stage buffering
 * of one batch, which back-to-back launching never exceeds).
 * obs::auditPipeline() checks its conservation laws, and K=1
 * reduces exactly to the single-chip NpuSimulator run.
 */

#ifndef SUPERNPU_PARTITION_PIPELINE_SIM_HH
#define SUPERNPU_PARTITION_PIPELINE_SIM_HH

#include <memory>
#include <vector>

#include "partitioner.hh"

namespace supernpu {
namespace partition {

/** Timing of one batch stream through one pipeline plan. */
struct PipelineResult
{
    PartitionPlan plan;
    /** Batches in the simulated stream. */
    int batches = 1;
    /** fill + (batches-1)·bottleneck. */
    std::uint64_t makespanCycles = 0;
    /** Σ stage compute cycles of one batch (no link). */
    std::uint64_t totalStageCycles = 0;
    /** Σ link transfer cycles of one batch. */
    std::uint64_t totalLinkCycles = 0;
    /** MAC operations of one batch (summed over stages). */
    std::uint64_t macOpsPerBatch = 0;

    double makespanSec() const;
    /** Steady-state batch completions per second (1/interval). */
    double steadyBatchesPerSec() const;
    /** Steady-state inferences per second. */
    double steadyInferencesPerSec() const;
    /** Steady-state effective MAC throughput of the group. */
    double effectiveMacPerSec() const;
};

/** Analytic pipeline composition over a Partitioner's plans. */
class PipelineSimulator
{
  public:
    /** @param cache Defaults to npusim::SimCache::global(). */
    explicit PipelineSimulator(const estimator::NpuEstimate &estimate,
                               LinkConfig link = {},
                               npusim::SimCache *cache = nullptr);

    /** Partition and stream `batches` batches through the result. */
    PipelineResult run(const dnn::Network &network, int stages,
                       int batch, int batches = 1) const;

    /** Stream `batches` batches through an existing plan. */
    PipelineResult run(const PartitionPlan &plan,
                       int batches = 1) const;

    const Partitioner &partitioner() const { return _partitioner; }

  private:
    Partitioner _partitioner;
};

/**
 * Per-batch pipeline timing of one network on one K-chip group — the
 * pipelined counterpart of serving::BatchServiceModel. Stateless and
 * thread-safe: each call partitions afresh (the balance point moves
 * with batch) through the shared SimCache and keeps nothing.
 * serving::GroupTimingModel resolves each batch size once and keeps
 * the result.
 */
class PipelineServiceModel
{
  public:
    PipelineServiceModel(const estimator::NpuEstimate &estimate,
                         dnn::Network network, int stages,
                         LinkConfig link = {},
                         npusim::SimCache *cache = nullptr);

    /** Per-batch timing, all in seconds relative to batch launch. */
    struct Timing
    {
        /** Launch-to-last-output latency (fill of one batch). */
        double latencySec = 0.0;
        /** Initiation interval: stage 0 frees this long after launch. */
        double intervalSec = 0.0;
        /** Stage start offsets from batch launch. */
        std::vector<double> stageStartSec;
        /** Stage busy time (occupancy, link included). */
        std::vector<double> stageBusySec;
    };

    /** Timing of one batch of the given size. */
    Timing timing(int batch) const;

    int stages() const { return _stages; }
    const dnn::Network &network() const { return _net; }
    const Partitioner &partitioner() const { return _partitioner; }

  private:
    Partitioner _partitioner;
    dnn::Network _net;
    int _stages;
};

} // namespace partition
} // namespace supernpu

#endif // SUPERNPU_PARTITION_PIPELINE_SIM_HH
