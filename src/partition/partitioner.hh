/**
 * @file
 * Layer-wise network partitioner for multi-chip pipelines.
 *
 * Splits a dnn::Network into K contiguous stages, one per chip,
 * minimizing the cycle cost of the *bottleneck* stage — in a
 * pipeline the slowest stage sets steady-state throughput, so the
 * optimal split is the classic min-max contiguous partition. Stage
 * cost is real simulated cycles: per-layer totals come from one
 * NpuSimulator::run of the whole network (memoized through
 * npusim::SimCache), the DP picks the cuts over those prefix sums
 * plus the outbound link transfer at each candidate boundary (its
 * rows are shared by every K of one (network, batch) point), and
 * every chosen stage is then costed exactly as a standalone
 * sub-network — a stage head refills its ifmap buffer from memory
 * and cannot overlap its first weight fetch with a previous layer,
 * just as a real chip receiving activations over the link would.
 * Such a stage is its cold head layer plus the whole run's later
 * layers, so NpuSimulator::runRange composes it from the whole run;
 * its cache key is an O(1) mix of (network hash, first, last).
 *
 * K=1 equivalence guarantee: a single-stage partition keeps the
 * original network (same name, same layers), so its stage SimResult
 * is the very cache entry — byte-identical ledgers included — that
 * the single-chip NpuSimulator path produces. Asking for more
 * stages than layers falls back to K = layer count with a warn().
 */

#ifndef SUPERNPU_PARTITION_PARTITIONER_HH
#define SUPERNPU_PARTITION_PARTITIONER_HH

#include <memory>
#include <string>
#include <vector>

#include "dnn/layer.hh"
#include "estimator/npu_estimator.hh"
#include "layer_timing_cache.hh"
#include "link_model.hh"
#include "npusim/sim.hh"
#include "npusim/sim_cache.hh"

namespace supernpu {
namespace partition {

/** One contiguous run of layers placed on one chip. */
struct PipelineStage
{
    int firstLayer = 0; ///< inclusive index into the source network
    int lastLayer = 0;  ///< inclusive
    /**
     * Cycle simulation of the stage, as a standalone sub-network,
     * at the plan's batch (NpuSimulator::runRange). Its networkName
     * names the sub-network (K=1: the original network's name).
     */
    std::shared_ptr<const npusim::SimResult> sim;
    std::uint64_t stageCycles = 0; ///< sim->totalCycles
    /** Outbound activation bytes; 0 for the last stage. */
    std::uint64_t linkBytes = 0;
    /** Outbound link occupancy cycles; 0 for the last stage. */
    std::uint64_t linkCycles = 0;

    int layerCount() const { return lastLayer - firstLayer + 1; }

    /**
     * Cycles this stage occupies its chip per batch: compute plus
     * shipping the results forward. The pipeline initiation
     * interval is the max of these across stages.
     */
    std::uint64_t occupancyCycles() const
    {
        return stageCycles + linkCycles;
    }
};

/** A balanced K-stage split of one network on one design point. */
struct PartitionPlan
{
    std::string networkName;
    std::string configName;
    int batch = 1;
    double frequencyGhz = 0.0;
    LinkConfig link;

    std::vector<PipelineStage> stages;

    /** Index of the slowest stage (lowest index on ties). */
    int bottleneckStage = 0;
    /** Occupancy of the bottleneck stage — the initiation interval. */
    std::uint64_t bottleneckCycles = 0;
    /** Σ stage occupancy: fill (and drain) latency of one batch. */
    std::uint64_t fillCycles = 0;

    int stageCount() const { return (int)stages.size(); }

    /** occupancy / bottleneck, in (0, 1]; 1 for the bottleneck. */
    double stageUtilization(int stage) const;

    /** Seconds the first batch takes end-to-end (fill latency). */
    double fillLatencySec() const;

    /** Seconds between steady-state batch completions. */
    double intervalSec() const;
};

/** Bottleneck-minimizing contiguous partitioner for one design. */
class Partitioner
{
  public:
    /**
     * @param cache Simulation memo store; defaults to the process-
     *        wide npusim::SimCache::global().
     */
    explicit Partitioner(const estimator::NpuEstimate &estimate,
                         LinkConfig link = {},
                         npusim::SimCache *cache = nullptr);

    /**
     * Split `network` into `stages` contiguous stages balanced at
     * the given batch. `stages` is clamped to the layer count with
     * a warn() when it exceeds it.
     */
    PartitionPlan partition(const dnn::Network &network, int stages,
                            int batch) const;

    /**
     * Same, with `network_hash` == npusim::hashNetwork(network)
     * precomputed and `network` already check()ed by the caller, as
     * HybridPlanner::evaluate has both in hand.
     */
    PartitionPlan partition(std::uint64_t network_hash,
                            const dnn::Network &network, int stages,
                            int batch) const;

    const estimator::NpuEstimate &estimate() const
    {
        return _sim.estimate();
    }
    const LinkConfig &link() const { return _link; }

    /**
     * Layer-timing memo counters for this partitioner: how often a
     * partition() call reused its (network, batch) derivation
     * instead of re-walking a SimResult; snapshotted into shard
     * ledgers.
     */
    LayerTimingCacheStats timingCacheStats() const
    {
        return _timings.stats();
    }

    // --- the pieces partition() is built from, which the hybrid
    // planner's search also runs per (shard geometry, share) class --

    /**
     * The cut-search inputs of `network` at `batch`, derived from
     * `full`, the whole network's simulation at that batch, which
     * they keep for runRange.
     */
    LayerTimings buildTimings(
        const dnn::Network &network,
        std::shared_ptr<const npusim::SimResult> full, int batch) const;

    /**
     * The SimKey::networkHash of layers [first, last] of the
     * `layer_count`-layer network hashed `network_hash`: an O(1) mix
     * of the three, as its simulation is runRange over the whole
     * network's, so nothing else can change it. The whole range
     * keeps `network_hash` — and with it the single-chip path's very
     * cache entry. The only place stage keys are made.
     */
    static std::uint64_t stageHash(std::uint64_t network_hash, int first,
                                   int last, int layer_count);

    /**
     * The best K-way split of the network `timings` derive from, for
     * every K in [first_k, last_k], in order: the last layer of each
     * stage. Extends the entry's shared DP rows up to last_k first,
     * under one CutTable lock.
     */
    static std::vector<std::vector<int>>
    cutStages(const LayerTimings &timings, int first_k, int last_k);

  private:
    npusim::NpuSimulator _sim;
    LinkConfig _link;
    npusim::SimCache *_cache;
    std::uint64_t _configHash = 0;
    /** partition() is const; the memo mutates under its own lock. */
    mutable LayerTimingCache _timings;
};

} // namespace partition
} // namespace supernpu

#endif // SUPERNPU_PARTITION_PARTITIONER_HH
