/**
 * @file
 * Tensor-parallel shard construction and timing.
 */

#include "tensor_shard.hh"

#include <utility>

#include "common/logging.hh"

namespace supernpu {
namespace sharding {

double
TensorShardResult::seconds() const
{
    return (double)totalCycles / (frequencyGhz * 1e9);
}

double
TensorShardResult::speedup() const
{
    SUPERNPU_ASSERT(totalCycles > 0, "result not built");
    return (double)soloCycles / (double)totalCycles;
}

double
TensorShardResult::effectiveMacPerSec() const
{
    return (double)macOpsPerBatch / seconds();
}

std::string
shardName(const dnn::Network &network, int shards)
{
    return shards == 1 ? network.name
                       : network.name + "/tp" + std::to_string(shards);
}

std::vector<int>
shardWidths(const dnn::Network &network, int shards)
{
    SUPERNPU_ASSERT(shards >= 1, "shard count must be positive");
    // Widest ceil share of the filters; at least one filter per chip
    // even when T exceeds the layer's channel count (the surplus
    // chips idle on that layer).
    std::vector<int> widths;
    widths.reserve(network.layers.size());
    for (const dnn::Layer &layer : network.layers)
        widths.push_back((layer.outChannels + shards - 1) / shards);
    return widths;
}

dnn::Network
shardNetwork(const dnn::Network &network, int shards)
{
    SUPERNPU_ASSERT(shards >= 1, "shard count must be positive");
    if (shards == 1) {
        // Degree 1: the original object, so the simulation below
        // hits (or seeds) the exact cache entry the single-chip
        // path uses — the byte-identity guarantee.
        return network;
    }
    dnn::Network shard;
    shard.name = shardName(network, shards);
    shard.layers = network.layers;
    const std::vector<int> widths = shardWidths(network, shards);
    for (std::size_t l = 0; l < widths.size(); ++l) {
        dnn::Layer &s = shard.layers[l];
        s.outChannels = widths[l];
        if (s.kind == dnn::LayerKind::DepthwiseConv) {
            // Depthwise filters are per-channel: splitting the
            // filters splits the input channels with them, and the
            // mapper requires in == out.
            s.inChannels = s.outChannels;
        }
    }
    shard.check();
    return shard;
}

TensorSharder::TensorSharder(const estimator::NpuEstimate &estimate,
                             partition::LinkConfig link,
                             npusim::SimCache *cache)
    : _sim(estimate), _link(link),
      _cache(cache ? cache : &npusim::SimCache::global()),
      _configHash(npusim::hashEstimate(estimate))
{
    _link.check();
}

std::shared_ptr<const npusim::SimResult>
TensorSharder::simulate(std::uint64_t network_hash,
                        const dnn::Network &network, int batch) const
{
    return _cache->getOrRun({network_hash, _configHash, batch}, _sim,
                            network);
}

TensorShardResult
TensorSharder::shard(const dnn::Network &network, int shards,
                     int batch) const
{
    network.check();
    if (shards < 1)
        fatal("tensor parallelism needs at least 1 shard, got ",
              shards);
    if (batch < 1)
        fatal("batch must be at least 1, got ", batch);

    const dnn::Network shard_net = shardNetwork(network, shards);
    return shard(npusim::hashNetwork(network), network,
                 npusim::hashNetwork(shard_net), shard_net, shards,
                 batch);
}

TensorShardResult
TensorSharder::shard(std::uint64_t network_hash,
                     const dnn::Network &network,
                     std::uint64_t shard_hash,
                     const dnn::Network &shard_net, int shards,
                     int batch) const
{
    auto wide = simulate(shard_hash, shard_net, batch);
    const auto solo =
        shards == 1 ? wide : simulate(network_hash, network, batch);

    TensorShardResult result;
    result.networkName = network.name;
    result.configName = wide->configName;
    result.shards = shards;
    result.batch = batch;
    result.frequencyGhz = wide->frequencyGhz;
    result.link = _link;
    result.soloCycles = solo->totalCycles;
    result.macOpsPerBatch = solo->macOps;
    result.peakMacPerSec = _sim.estimate().peakMacPerSec;

    const int n = (int)network.layers.size();
    const std::vector<std::uint64_t> bytes =
        shards > 1 ? reduceBytes(network, batch)
                   : std::vector<std::uint64_t>(n, 0);
    const std::vector<std::uint64_t> reduce =
        reduceCycles(bytes, shards, result.frequencyGhz);
    result.layers.reserve(n);
    for (int l = 0; l < n; ++l) {
        ShardLayerTiming timing;
        timing.layerName = network.layers[l].name;
        timing.shardCycles = wide->layers()[l].totalCycles();
        timing.reduceBytes = bytes[l];
        timing.reduceCycles = reduce[l];
        result.shardCycles += timing.shardCycles;
        result.collectiveBytes =
            saturatingAdd(result.collectiveBytes, timing.reduceBytes);
        result.collectiveCycles = saturatingAdd(
            result.collectiveCycles, timing.reduceCycles);
        result.layers.push_back(std::move(timing));
    }
    result.totalCycles =
        saturatingAdd(result.shardCycles, result.collectiveCycles);
    SUPERNPU_ASSERT(result.shardCycles == wide->totalCycles,
                    "per-layer shard cycles must roll up to the "
                    "wide shard's total");
    result.wideSim = std::move(wide);
    return result;
}

std::vector<std::uint64_t>
TensorSharder::reduceBytes(const dnn::Network &network, int batch)
{
    std::vector<std::uint64_t> bytes;
    bytes.reserve(network.layers.size());
    for (const dnn::Layer &layer : network.layers)
        bytes.push_back(partition::activationBytes(layer, batch));
    return bytes;
}

std::vector<std::uint64_t>
TensorSharder::reduceCycles(const std::vector<std::uint64_t> &bytes,
                            int shards, double frequency_ghz) const
{
    std::vector<std::uint64_t> cycles(bytes.size(), 0);
    if (shards == 1)
        return cycles;
    for (std::size_t l = 0; l < bytes.size(); ++l)
        cycles[l] =
            allReduceCost(_link, shards, bytes[l], frequency_ghz).cycles;
    return cycles;
}

} // namespace sharding
} // namespace supernpu
