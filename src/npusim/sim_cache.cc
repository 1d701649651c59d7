/**
 * @file
 * Simulation-result cache implementation.
 */

#include "sim_cache.hh"

#include "common/hash.hh"
#include "common/logging.hh"

namespace supernpu {
namespace npusim {

std::uint64_t
hashNetwork(const dnn::Network &network)
{
    Fnv1a hash;
    hash.text(network.name);
    hash.word((std::uint64_t)network.layers.size());
    for (const auto &layer : network.layers) {
        hash.text(layer.name);
        hash.word((std::uint64_t)layer.kind);
        hash.word((std::uint64_t)layer.inChannels);
        hash.word((std::uint64_t)layer.inHeight);
        hash.word((std::uint64_t)layer.inWidth);
        hash.word((std::uint64_t)layer.outChannels);
        hash.word((std::uint64_t)layer.kernelH);
        hash.word((std::uint64_t)layer.kernelW);
        hash.word((std::uint64_t)layer.stride);
        hash.word((std::uint64_t)layer.padding);
    }
    return hash.value();
}

std::uint64_t
hashConfig(const estimator::NpuConfig &config)
{
    Fnv1a hash;
    hash.text(config.name);
    hash.word((std::uint64_t)config.peWidth);
    hash.word((std::uint64_t)config.peHeight);
    hash.word((std::uint64_t)config.bitWidth);
    hash.word((std::uint64_t)config.regsPerPe);
    hash.word(config.ifmapBufferBytes);
    hash.word((std::uint64_t)config.integratedOutputBuffer);
    hash.word(config.outputBufferBytes);
    hash.word(config.psumBufferBytes);
    hash.word(config.ofmapBufferBytes);
    hash.word(config.weightBufferBytes);
    hash.word((std::uint64_t)config.ifmapDivision);
    hash.word((std::uint64_t)config.outputDivision);
    hash.real(config.memoryBandwidth);
    hash.word((std::uint64_t)config.weightDoubleBuffering);
    return hash.value();
}

std::uint64_t
hashEstimate(const estimator::NpuEstimate &estimate)
{
    Fnv1a hash(hashConfig(estimate.config));
    hash.real(estimate.frequencyGhz);
    hash.real(estimate.peakMacPerSec);
    hash.word(estimate.ifmapRowLength);
    hash.word(estimate.ifmapChunkLength);
    hash.word(estimate.outputRowLength);
    hash.word(estimate.outputChunkLength);
    return hash.value();
}

std::size_t
SimKeyHash::operator()(const SimKey &key) const
{
    return (std::size_t)Fnv1a()
        .word(key.networkHash)
        .word(key.configHash)
        .word((std::uint64_t)key.batch)
        .word(key.faultHash)
        .value();
}

SimCache::SimCache(std::size_t max_entries)
    : Memo(max_entries, "simCache")
{
}

SimCache &
SimCache::global()
{
    static SimCache cache;
    return cache;
}

std::shared_ptr<const SimResult>
SimCache::getOrRun(const SimKey &key, const NpuSimulator &sim,
                   const dnn::Network &network)
{
    return getOrCompute(
        key, [&] { return sim.run(network, key.batch); });
}

std::shared_ptr<const SimResult>
SimCache::getOrRun(const NpuSimulator &sim, const dnn::Network &network,
                   int batch)
{
    SUPERNPU_ASSERT(batch >= 1, "bad batch ", batch);
    const SimKey key{hashNetwork(network),
                     hashEstimate(sim.estimate()), batch};
    return getOrRun(key, sim, network);
}

} // namespace npusim
} // namespace supernpu
