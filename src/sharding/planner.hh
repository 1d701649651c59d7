/**
 * @file
 * Hybrid DP×TP×PP parallelism planner over a chip budget.
 *
 * A plan places R data-parallel replicas of a T-way tensor-sharded,
 * K-stage pipelined network on R·T·K chips:
 *
 *  - DP (R): the batch splits into near-equal shares; each replica
 *    group runs the widest share, and the final outputs are ring
 *    all-gathered across replicas.
 *  - TP (T): within a replica, every layer's filters split across T
 *    chips (tensor_shard geometry), adding a per-layer all-reduce.
 *  - PP (K): the T-wide sharded network is cut into K contiguous
 *    stages by partition::Partitioner — genuine stage re-simulation
 *    of the shrunk geometry — with the per-layer TP all-reduce
 *    cycles overlaid onto each stage's occupancy. (Cuts are chosen
 *    by the partitioner *before* the overlay — a documented
 *    approximation; the overlaid occupancies are what the plan
 *    reports.) Stage-boundary transfers cross T parallel per-slice
 *    links, which is exactly what partitioning the shard network
 *    charges.
 *
 * Steady-state interval is max(bottleneck stage occupancy, DP
 * gather); one-batch latency is pipeline fill plus the gather.
 * R=T=K=1 reproduces the single-chip simulation cycle-for-cycle
 * (and, through the shared cache entry, byte-for-byte in ledgers).
 *
 * The planner enumerates every (R, T, K) with R·T·K ≤ budget in
 * lexicographic order and keeps the best under the objective; ties
 * keep the earlier triple, so results are deterministic. The
 * enumeration fans out across a common/parallel ThreadPool:
 * candidates land in enumeration order regardless of scheduling
 * (parallelMap slot order) and every shared structure the
 * evaluations touch (npusim::SimCache, the partitioner's
 * LayerTimingCache, the link model's warn dedup) is single-flight or
 * mutexed with scheduling-independent accounting, so `jobs` is a
 * pure wall-clock knob — the search output and its ledgers are
 * byte-identical to the serial walk at any job count.
 *
 * plan() validates and hashes the network once and builds and hashes
 * each T-way shard network once per T; every candidate then runs the
 * one private evaluation path that evaluate() also wraps, issuing the
 * same cache lookups a standalone evaluate() issues.
 */

#ifndef SUPERNPU_SHARDING_PLANNER_HH
#define SUPERNPU_SHARDING_PLANNER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "partition/partitioner.hh"
#include "replica_group.hh"
#include "tensor_shard.hh"

namespace supernpu {
namespace sharding {

/** What the planner optimizes across factorizations. */
enum class PlanObjective
{
    Throughput, ///< max steady-state inferences/sec
    Latency,    ///< min one-batch end-to-end latency
};

const char *planObjectiveName(PlanObjective objective);

/** One evaluated DP×TP×PP placement of a network on a budget. */
struct ShardPlan
{
    std::string networkName;
    std::string configName;
    int dataParallel = 1;   ///< R (after clamping to the batch)
    int tensorShards = 1;   ///< T
    int pipelineStages = 1; ///< K (after the partitioner's clamp)
    int batch = 1;          ///< total batch across the group
    int replicaShare = 1;   ///< ceil(batch/R) per replica
    double frequencyGhz = 0.0;
    partition::LinkConfig link;

    /** Chips the plan occupies: R·T·K. */
    int chips() const
    {
        return dataParallel * tensorShards * pipelineStages;
    }

    /** PP split of the T-wide shard network at the replica share. */
    partition::PartitionPlan pipeline;
    /** Per-stage Σ in-stage TP all-reduce cycles (overlay). */
    std::vector<std::uint64_t> stageCollectiveCycles;
    /** Per-stage occupancy + overlay — what paces the pipeline. */
    std::vector<std::uint64_t> stageOccupancyCycles;

    /** Σ stageCollectiveCycles: all TP all-reduces of one batch. */
    std::uint64_t tensorCollectiveCycles = 0;
    /** Σ per-layer full-ofmap all-reduce bytes. */
    std::uint64_t tensorCollectiveBytes = 0;
    /** DP all-gather of the final outputs across replicas. */
    std::uint64_t gatherBytes = 0;
    std::uint64_t gatherCycles = 0;

    /** max stageOccupancyCycles. */
    std::uint64_t bottleneckCycles = 0;
    /** Σ stageOccupancyCycles: one batch through the pipeline. */
    std::uint64_t fillCycles = 0;
    /** max(bottleneck, gather): steady-state initiation interval. */
    std::uint64_t intervalCycles = 0;
    /** fill + gather: first batch end to end. */
    std::uint64_t latencyCycles = 0;
    /** Full batch on ONE chip at this design point (baseline). */
    std::uint64_t soloCycles = 0;
    /** Full-batch MACs across the whole group. */
    std::uint64_t macOpsPerBatch = 0;
    /** Per-chip peak MAC/s of the design point (audit ceiling). */
    double peakMacPerSec = 0.0;

    double intervalSec() const;
    double latencySec() const;
    /** Steady-state inferences/sec of the group. */
    double throughput() const;
    /**
     * soloCycles / intervalCycles. Can exceed R·T·K when tensor
     * sharding narrows a layer below the PE-array width and drops
     * whole weight mappings (each shard streams the ifmap fewer
     * times than the solo run). The audited ceiling is group MAC
     * throughput, not the speedup.
     */
    double speedup() const;
    double effectiveMacPerSec() const;
};

/** Planner search output: the winner plus every candidate. */
struct PlanSearch
{
    PlanObjective objective = PlanObjective::Throughput;
    int chipBudget = 1;
    /** Every (R,T,K) with R·T·K ≤ budget, enumeration order. */
    std::vector<ShardPlan> evaluated;
    /** Index of the winner in `evaluated`. */
    int bestIndex = 0;

    const ShardPlan &best() const { return evaluated[bestIndex]; }
};

/** DP×TP×PP factorization search for one design point. */
class HybridPlanner
{
  public:
    /** @param cache Defaults to npusim::SimCache::global(). */
    explicit HybridPlanner(const estimator::NpuEstimate &estimate,
                           partition::LinkConfig link = {},
                           npusim::SimCache *cache = nullptr);

    /** Evaluate one fixed (R, T, K) placement. */
    ShardPlan evaluate(const dnn::Network &network, int data_parallel,
                       int tensor_shards, int pipeline_stages,
                       int batch) const;

    /**
     * Search every factorization of `chip_budget` chips or fewer.
     * @param jobs Pool parallelism of the candidate sweep including
     *        the calling thread; <= 1 runs serially inline, 0 means
     *        every hardware thread. Output is byte-identical at any
     *        value.
     */
    PlanSearch plan(const dnn::Network &network, int chip_budget,
                    int batch, PlanObjective objective,
                    int jobs = 1) const;

    const estimator::NpuEstimate &estimate() const
    {
        return _sharder.estimate();
    }
    const partition::LinkConfig &link() const
    {
        return _sharder.link();
    }

    /** The shared partitioner's layer-timing memo counters. */
    partition::LayerTimingCacheStats timingCacheStats() const
    {
        return _partitioner.timingCacheStats();
    }

  private:
    /** A validated network with its npusim::hashNetwork. */
    struct HashedNetwork
    {
        dnn::Network network;
        std::uint64_t hash = 0;
    };

    /**
     * The one evaluation path behind evaluate() and plan(): `whole`
     * is the input network, `shard` its T-way shardNetwork, and the
     * degrees are already validated and clamped.
     */
    ShardPlan evaluate(const HashedNetwork &whole,
                       const HashedNetwork &shard, int data_parallel,
                       int tensor_shards, int pipeline_stages,
                       int batch) const;

    TensorSharder _sharder;
    partition::Partitioner _partitioner;
};

} // namespace sharding
} // namespace supernpu

#endif // SUPERNPU_SHARDING_PLANNER_HH
