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
 *    stages by partition::Partitioner — each a standalone stage of
 *    the shrunk geometry — with the per-layer TP all-reduce
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
 * keep the earlier triple, so results are deterministic.
 *
 * plan() is byte-identical to the serial loop of standalone
 * evaluate() calls over that enumeration in every candidate's row and
 * the winner's full plan, at any job count.
 *
 * The search keeps its results to itself: it looks nothing up in,
 * and stores nothing into, the SimCache or the LayerTimingCache.
 * Degrees T with equal shardWidths shard the network into equal
 * layers under different names, and the simulator prices a layer
 * from its shape alone. So the search groups its (T, replica share)
 * points into (shard geometry, share) classes by their exact widths
 * and does the expensive work once per class. It runs in three
 * phases, each in its own perf::Scope; the parallel one fans across
 * a common/parallel ThreadPool and shares no lock:
 *
 *  1. enumerate (serial): each T's geometry in one linear scan, as
 *     ceil(C/T) never grows with T and equal geometries are
 *     contiguous in T; then every (R, T, K) in order, with its
 *     (T, share) point and (geometry, share) class found by flat
 *     index, as every point of a share appears at its first R. A
 *     class's points are a contiguous run, and a counting sort lists
 *     each point's candidate slots;
 *  2. derive and fold (parallel): one shard network per geometry
 *     (its first T's) and the all-reduce bytes per replica share,
 *     then one task per class: one wide simulation, one LayerTimings,
 *     one cut DP grown to the largest K any member asks for, and one
 *     cold head per distinct first layer those cuts name. A stage
 *     costs its cold head plus the wide run's later layers
 *     (LayerTimings::stageCycles, exactly runRange's total), so no
 *     stage SimResult is composed. In one planner.evaluate span the
 *     task then folds its own rows: per point, that T's per-layer TP
 *     all-reduce cycles; per candidate, its PlanRow from the stages
 *     of cut K, into the candidate's slot. Only the rows outlive the
 *     task;
 *  3. winner (serial): the pick, then the winner's full ShardPlan,
 *     which is the public evaluate() of its triple, through the
 *     caches: its stages are the only results a search leaves
 *     behind for later commands, and the caches' tallies and
 *     contents after plan() are those of that one evaluate() at any
 *     job count.
 */

#ifndef SUPERNPU_SHARDING_PLANNER_HH
#define SUPERNPU_SHARDING_PLANNER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "collective.hh"
#include "partition/partitioner.hh"
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

/**
 * The figures of merit of one DP×TP×PP placement: its degrees, its
 * cycle totals, and what throughput(), latencySec() and chips()
 * read. A search keeps one per candidate; a ShardPlan is its row
 * plus the books behind it.
 */
struct PlanRow
{
    int dataParallel = 1;   ///< R (after clamping to the batch)
    int tensorShards = 1;   ///< T
    int pipelineStages = 1; ///< K (after the partitioner's clamp)
    int batch = 1;          ///< total batch across the group
    double frequencyGhz = 0.0;

    /** Σ per-stage TP all-reduce cycles: all of one batch. */
    std::uint64_t tensorCollectiveCycles = 0;
    /** DP all-gather of the final outputs across replicas. */
    std::uint64_t gatherCycles = 0;
    /** max per-stage occupancy with the TP overlay. */
    std::uint64_t bottleneckCycles = 0;
    /** Σ per-stage occupancy with the overlay: one batch through. */
    std::uint64_t fillCycles = 0;
    /** max(bottleneck, gather): steady-state initiation interval. */
    std::uint64_t intervalCycles = 0;
    /** fill + gather: first batch end to end. */
    std::uint64_t latencyCycles = 0;

    /** Chips the plan occupies: R·T·K. */
    int chips() const
    {
        return dataParallel * tensorShards * pipelineStages;
    }

    double intervalSec() const;
    double latencySec() const;
    /** Steady-state inferences/sec of the group. */
    double throughput() const;
};

/** One evaluated DP×TP×PP placement of a network on a budget. */
struct ShardPlan : PlanRow
{
    std::string networkName;
    std::string configName;
    int replicaShare = 1;   ///< ceil(batch/R) per replica
    partition::LinkConfig link;

    /** PP split of the T-wide shard network at the replica share. */
    partition::PartitionPlan pipeline;
    /** Per-stage Σ in-stage TP all-reduce cycles (overlay). */
    std::vector<std::uint64_t> stageCollectiveCycles;
    /** Per-stage occupancy + overlay — what paces the pipeline. */
    std::vector<std::uint64_t> stageOccupancyCycles;

    /** Σ per-layer full-ofmap all-reduce bytes. */
    std::uint64_t tensorCollectiveBytes = 0;
    /** Bytes of the DP all-gather (0 without DP). */
    std::uint64_t gatherBytes = 0;

    /** Full batch on ONE chip at this design point (baseline). */
    std::uint64_t soloCycles = 0;
    /** Full-batch MACs across the whole group. */
    std::uint64_t macOpsPerBatch = 0;
    /** Per-chip peak MAC/s of the design point (audit ceiling). */
    double peakMacPerSec = 0.0;

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

/** Planner search output: every candidate's row and the winner. */
struct PlanSearch
{
    PlanObjective objective = PlanObjective::Throughput;
    int chipBudget = 1;
    /**
     * Every (R,T,K) with R·T·K ≤ budget, enumeration order: the row
     * of the plan evaluate() builds for that triple.
     */
    std::vector<PlanRow> evaluated;
    /** Index of the winner in `evaluated`. */
    int bestIndex = 0;
    /** The winner's full plan: evaluate() of its triple. */
    ShardPlan winner;

    const ShardPlan &best() const { return winner; }
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
    TensorSharder _sharder;
    partition::Partitioner _partitioner;
};

} // namespace sharding
} // namespace supernpu

#endif // SUPERNPU_SHARDING_PLANNER_HH
