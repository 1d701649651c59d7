/**
 * @file
 * Data-parallel replica-group timing.
 */

#include "replica_group.hh"

#include "common/logging.hh"
#include "tensor_shard.hh"

namespace supernpu {
namespace sharding {

double
ReplicaGroupResult::seconds() const
{
    return (double)totalCycles / (frequencyGhz * 1e9);
}

double
ReplicaGroupResult::speedup() const
{
    SUPERNPU_ASSERT(totalCycles > 0, "result not built");
    return (double)soloCycles / (double)totalCycles;
}

double
ReplicaGroupResult::effectiveMacPerSec() const
{
    return (double)macOpsPerBatch / seconds();
}

ReplicaGroup::ReplicaGroup(const estimator::NpuEstimate &estimate,
                           partition::LinkConfig link,
                           npusim::SimCache *cache)
    : _sim(estimate), _link(link),
      _cache(cache ? cache : &npusim::SimCache::global()),
      _configHash(npusim::hashEstimate(estimate))
{
    _link.check();
}

std::shared_ptr<const npusim::SimResult>
ReplicaGroup::simulate(const dnn::Network &network, int batch) const
{
    return _cache->getOrRun(
        {npusim::hashNetwork(network), _configHash, batch}, _sim, network);
}

ReplicaGroupResult
ReplicaGroup::run(const dnn::Network &network, int replicas,
                  int batch) const
{
    network.check();
    if (replicas < 1)
        fatal("data parallelism needs at least 1 replica, got ",
              replicas);
    if (batch < 1)
        fatal("batch must be at least 1, got ", batch);
    if (replicas > batch) {
        warn("batch ", batch, " cannot feed ", replicas,
             " data-parallel replicas; clamping to ", batch);
        replicas = batch;
    }

    const int wide_share = (batch + replicas - 1) / replicas;
    // Replica 0 runs the widest share; the group is paced by it
    // regardless of how the remainder spreads.
    auto wide = simulate(network, wide_share);
    auto solo = replicas == 1 ? wide : simulate(network, batch);

    ReplicaGroupResult result;
    result.networkName = network.name;
    result.configName = wide->configName;
    result.replicas = replicas;
    result.batch = batch;
    result.wideShare = wide_share;
    result.frequencyGhz = wide->frequencyGhz;
    result.link = _link;
    result.wideSim = wide;
    result.computeCycles = wide->totalCycles;
    result.soloCycles = solo->totalCycles;
    result.macOpsPerBatch = solo->macOps;
    if (replicas > 1) {
        result.gatherBytes = partition::activationBytes(
            network.layers.back(), batch);
        result.gatherCycles =
            allGatherCost(_link, replicas, result.gatherBytes,
                          result.frequencyGhz)
                .cycles;
    }
    result.totalCycles =
        saturatingAdd(result.computeCycles, result.gatherCycles);
    return result;
}

} // namespace sharding
} // namespace supernpu
