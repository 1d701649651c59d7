/**
 * @file
 * Tensor parallelism: one layer's filters split across T chips.
 *
 * Each of T chips holds outChannels/T of every layer's filters and
 * computes the corresponding ofmap channel slice over the full
 * ifmap; after each layer the slices are ring all-reduced so every
 * chip again holds the full activation tensor for the next layer.
 * (A single full-ofmap all-reduce per layer conservatively covers
 * both the row-parallel partial-sum combine and the column-parallel
 * slice exchange of the usual Megatron-style split — the model does
 * not track which of the two a layer would use.)
 *
 * Shard geometry is *re-simulated*, not scaled: shardNetwork()
 * shrinks every layer's outChannels to the widest ceil(K/T) share
 * (depthwise layers shrink both channel dims — the mapper requires
 * in == out) and the shrunk network runs through NpuSimulator via
 * the shared SimCache. The widest shard is the slowest by
 * construction, so per layer the time is
 *
 *   shardCycles(widest shard) + allReduce(full ofmap, T chips).
 *
 * T=1 keeps the original network object: same hash, same cache
 * entry, zero collective — byte-identical to the single-chip path.
 */

#ifndef SUPERNPU_SHARDING_TENSOR_SHARD_HH
#define SUPERNPU_SHARDING_TENSOR_SHARD_HH

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "collective.hh"
#include "dnn/layer.hh"
#include "estimator/npu_estimator.hh"
#include "npusim/sim.hh"
#include "npusim/sim_cache.hh"
#include "partition/link_model.hh"

namespace supernpu {
namespace sharding {

/** a + b clamped to UINT64_MAX — cycle/byte totals never wrap. */
inline std::uint64_t
saturatingAdd(std::uint64_t a, std::uint64_t b)
{
    constexpr std::uint64_t kMax =
        std::numeric_limits<std::uint64_t>::max();
    return a > kMax - b ? kMax : a + b;
}

/** Timing of one layer of a T-way sharded network. */
struct ShardLayerTiming
{
    std::string layerName;
    /** Widest shard's compute+prep+stall cycles for this layer. */
    std::uint64_t shardCycles = 0;
    /** Full ofmap bytes all-reduced after the layer (batch incl.). */
    std::uint64_t reduceBytes = 0;
    /** Ring all-reduce cycles across the T shards. */
    std::uint64_t reduceCycles = 0;

    std::uint64_t totalCycles() const
    {
        return saturatingAdd(shardCycles, reduceCycles);
    }
};

/** Whole-network timing of a T-way tensor-sharded run. */
struct TensorShardResult
{
    std::string networkName;
    std::string configName;
    int shards = 1; ///< T
    int batch = 1;
    double frequencyGhz = 0.0;
    partition::LinkConfig link;

    /** Standalone simulation of the widest shard's network. */
    std::shared_ptr<const npusim::SimResult> wideSim;
    std::vector<ShardLayerTiming> layers;

    /** Σ layer shardCycles == wideSim->totalCycles. */
    std::uint64_t shardCycles = 0;
    /** Σ layer reduceCycles. */
    std::uint64_t collectiveCycles = 0;
    /** Σ layer reduceBytes. */
    std::uint64_t collectiveBytes = 0;
    /** shardCycles + collectiveCycles: one batch end to end. */
    std::uint64_t totalCycles = 0;
    /** Unsharded single-chip cycles at the same batch (baseline). */
    std::uint64_t soloCycles = 0;
    /** Full-network MACs of one batch (not the shard's share). */
    std::uint64_t macOpsPerBatch = 0;
    /** Per-chip peak MAC/s of the design point (audit ceiling). */
    double peakMacPerSec = 0.0;

    double seconds() const;
    /**
     * soloCycles / totalCycles. Can exceed T: narrowing a layer
     * below the PE-array width drops whole weight mappings, so each
     * shard streams the ifmap fewer times than the solo run did.
     * The audited ceiling is MAC throughput, not the speedup.
     */
    double speedup() const;
    /** Whole-group effective MAC/s on the full batch. */
    double effectiveMacPerSec() const;
};

/**
 * The T-way shard of `network`: every layer's outChannels shrunk to
 * the widest ceil share (depthwise: both channel dims). T=1 returns
 * the original object so the cache key — and therefore the ledger —
 * is identical to the unsharded path. T larger than the narrowest
 * layer's channel count leaves idle chips on that layer; the widest
 * share is still what the returned network models.
 */
dnn::Network shardNetwork(const dnn::Network &network, int shards);

/** The name of shardNetwork(network, shards): `name/tpT`; T=1 keeps it. */
std::string shardName(const dnn::Network &network, int shards);

/**
 * Every layer's outChannels in shardNetwork(network, shards). Degrees
 * with equal widths give equal layers: their shard networks differ
 * only in name.
 */
std::vector<int> shardWidths(const dnn::Network &network, int shards);

/** Re-simulating tensor-parallel cost model for one design point. */
class TensorSharder
{
  public:
    /** @param cache Defaults to npusim::SimCache::global(). */
    explicit TensorSharder(const estimator::NpuEstimate &estimate,
                           partition::LinkConfig link = {},
                           npusim::SimCache *cache = nullptr);

    /** Time one batch on `shards` cooperating chips. */
    TensorShardResult shard(const dnn::Network &network, int shards,
                            int batch) const;

    /**
     * Same, with `shard_net` == shardNetwork(network, shards) and
     * both npusim::hashNetwork values precomputed, and `network`
     * already check()ed by the caller, as HybridPlanner::evaluate
     * has them in hand.
     */
    TensorShardResult shard(std::uint64_t network_hash,
                            const dnn::Network &network,
                            std::uint64_t shard_hash,
                            const dnn::Network &shard_net, int shards,
                            int batch) const;

    const estimator::NpuEstimate &estimate() const
    {
        return _sim.estimate();
    }
    const partition::LinkConfig &link() const { return _link; }

  private:
    std::shared_ptr<const npusim::SimResult>
    simulate(std::uint64_t network_hash, const dnn::Network &network,
             int batch) const;

    /**
     * The full ofmap bytes each layer of `network` all-reduces at
     * `batch` when it is split more than one way. They depend on the
     * batch alone, not on T.
     */
    static std::vector<std::uint64_t>
    reduceBytes(const dnn::Network &network, int batch);

    /**
     * The ring all-reduce cycles after each layer split `shards` ways
     * on a `frequency_ghz` clock: the layer's reduceBytes() `bytes`
     * across the T shards, 0 at T = 1. What shard() charges per
     * layer.
     */
    std::vector<std::uint64_t>
    reduceCycles(const std::vector<std::uint64_t> &bytes, int shards,
                 double frequency_ghz) const;

    npusim::NpuSimulator _sim;
    partition::LinkConfig _link;
    npusim::SimCache *_cache;
    std::uint64_t _configHash = 0;

    friend class HybridPlanner;
};

} // namespace sharding
} // namespace supernpu

#endif // SUPERNPU_SHARDING_TENSOR_SHARD_HH
