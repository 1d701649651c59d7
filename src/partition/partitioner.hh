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
 * plus the outbound link transfer at each candidate boundary, and
 * every chosen stage is then costed exactly as a standalone
 * sub-network — a stage head refills its ifmap buffer from memory
 * and cannot overlap its first weight fetch with a previous layer,
 * just as a real chip receiving activations over the link would.
 * Such a stage is its cold head layer plus the whole run's later
 * layers, so NpuSimulator::runRange composes it from the whole run;
 * its cache key is an O(1) mix of (network hash, first, last).
 *
 * A Partitioner keeps no state beyond its SimCache: each partition()
 * derives its LayerTimings from the cached whole-network run and
 * builds the DP rows its K needs, so concurrent calls share nothing
 * but the SimCache.
 *
 * K=1 equivalence guarantee: a single-stage partition keeps the
 * original network (same name, same layers), so its stage SimResult
 * is the very cache entry — byte-identical ledgers included — that
 * the single-chip NpuSimulator path produces. Asking for more
 * stages than layers falls back to K = layer count with a warn().
 */

#ifndef SUPERNPU_PARTITION_PARTITIONER_HH
#define SUPERNPU_PARTITION_PARTITIONER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/memo.hh"
#include "dnn/layer.hh"
#include "estimator/npu_estimator.hh"
#include "link_model.hh"
#include "npusim/sim.hh"
#include "npusim/sim_cache.hh"

namespace supernpu {
namespace partition {

/**
 * The cut-search inputs derived from one (network, batch) point: the
 * per-layer cycle prefix sums of one whole-network simulation, the
 * outbound link bytes/cycles at every candidate boundary, and that
 * simulation itself. NpuSimulator::runRange composes every stage a
 * cut picks from the simulation, and stageCycles() prices a stage
 * from its exact prefix without composing it.
 */
struct LayerTimings
{
    std::string configName;
    double frequencyGhz = 0.0;
    /** prefix[l] = Σ simulated cycles of layers [0, l); size n+1. */
    std::vector<double> prefix;
    /**
     * The same sums, exact: cycles[l] = Σ totalCycles() of the whole
     * run's layers [0, l) in uint64 arithmetic, as a SimResult sums
     * its totals; size n+1.
     */
    std::vector<std::uint64_t> cycles;
    /** Outbound link occupancy if the boundary sits after layer l;
     *  size n, 0 after the last layer (nothing to ship). */
    std::vector<double> linkAfter;
    std::vector<std::uint64_t> linkCycles; ///< size n
    std::vector<std::uint64_t> linkBytes;  ///< size n
    /** The whole-network simulation the timings derive from. */
    std::shared_ptr<const npusim::SimResult> sim;

    int layerCount() const { return (int)prefix.size() - 1; }

    /**
     * runRange(first, last).totalCycles, without composing the stage:
     * its cold head layer's `head_cycles` (NpuSimulator::coldHead)
     * plus the whole run's layers first+1..last. Exact: a SimResult's
     * totalCycles is its layers' compute, prep and stall cycles summed
     * in uint64 arithmetic, which is also what cycles[] sums.
     */
    std::uint64_t stageCycles(int first, int last,
                              std::uint64_t head_cycles) const
    {
        return head_cycles + cycles[last + 1] - cycles[first + 1];
    }
};

/**
 * The min-max cut DP's rows over one LayerTimings, up to some K.
 * Row s (the best s-stage split of every layer prefix) is built from
 * row s-1 alone and never reads the requested K, so one table built
 * to K answers every K' <= K. Only what reconstruction needs is kept:
 * every cut row and the frontier dp row.
 */
struct CutTable
{
    /**
     * cut[s][j] = last layer of stage s-1 in the best s-stage split
     * of layers [0, j], or -1 where no such split exists. Rows 0
     * and 1 stay empty (one stage has no interior cut).
     */
    std::vector<std::vector<int>> cut;
    /** dp row cut.size()-1: the best bottleneck per prefix. */
    std::vector<double> frontier;
};

/**
 * Kept only for perfbench/, which still reads a partition memo's
 * counters; no such memo exists, so they are always zero. The
 * benchmark change that drops that read removes this alias.
 */
using LayerTimingCacheStats = MemoStats;

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

    /** The cut DP's rows over `timings`, 2..last_k (1 <= last_k <= n). */
    static CutTable cutTable(const LayerTimings &timings, int last_k);

    /**
     * The best K-way split of the network `timings` derive from, for
     * every K in [first_k, last_k], in order: the last layer of each
     * stage, walked from one cutTable(timings, last_k).
     */
    static std::vector<std::vector<int>>
    cutStages(const LayerTimings &timings, int first_k, int last_k);

  private:
    npusim::NpuSimulator _sim;
    LinkConfig _link;
    npusim::SimCache *_cache;
    std::uint64_t _configHash = 0;
};

} // namespace partition
} // namespace supernpu

#endif // SUPERNPU_PARTITION_PARTITIONER_HH
