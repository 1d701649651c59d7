/**
 * @file
 * Bottleneck-minimizing contiguous partitioner implementation.
 */

#include "partitioner.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"

namespace supernpu {
namespace partition {

double
PartitionPlan::stageUtilization(int stage) const
{
    SUPERNPU_ASSERT(stage >= 0 && stage < stageCount(),
                    "stage index out of range");
    SUPERNPU_ASSERT(bottleneckCycles > 0, "plan not built");
    return (double)stages[stage].occupancyCycles() /
           (double)bottleneckCycles;
}

double
PartitionPlan::fillLatencySec() const
{
    return (double)fillCycles / (frequencyGhz * 1e9);
}

double
PartitionPlan::intervalSec() const
{
    return (double)bottleneckCycles / (frequencyGhz * 1e9);
}

Partitioner::Partitioner(const estimator::NpuEstimate &estimate,
                         LinkConfig link, npusim::SimCache *cache)
    : _sim(estimate), _link(link),
      _cache(cache ? cache : &npusim::SimCache::global()),
      _configHash(npusim::hashEstimate(estimate)),
      _timings(0, "partition.timingCache")
{
    _link.check();
}

std::shared_ptr<const npusim::SimResult>
Partitioner::simulate(const dnn::Network &network, int batch) const
{
    return simulate(npusim::hashNetwork(network), network, batch);
}

std::shared_ptr<const npusim::SimResult>
Partitioner::simulate(std::uint64_t network_hash,
                      const dnn::Network &network, int batch) const
{
    npusim::SimKey key;
    key.networkHash = network_hash;
    key.configHash = _configHash;
    key.batch = batch;
    return _cache->getOrRun(key, _sim, network);
}

LayerTimings
Partitioner::buildTimings(const dnn::Network &network,
                          std::uint64_t network_hash, int batch) const
{
    // One whole-network simulation (memoized) supplies the per-layer
    // costs the DP balances. These embed on-chip hand-off and
    // overlap effects of the unsplit schedule, so they are an
    // estimate for *cut selection*; the chosen stages are
    // re-simulated exactly by partition().
    auto full = simulate(network_hash, network, batch);
    const int n = (int)network.layers.size();

    LayerTimings t;
    t.configName = full->configName;
    t.frequencyGhz = full->frequencyGhz;
    t.prefix.assign(n + 1, 0.0);
    for (int l = 0; l < n; ++l) {
        t.prefix[l + 1] =
            t.prefix[l] + (double)full->layers[l].totalCycles();
    }
    // Outbound link occupancy if the boundary sits after layer l.
    t.linkAfter.assign(n, 0.0);
    t.linkCycles.assign(n, 0);
    t.linkBytes.assign(n, 0);
    for (int l = 0; l + 1 < n; ++l) {
        t.linkBytes[l] = activationBytes(network.layers[l], batch);
        t.linkCycles[l] =
            transferCycles(_link, t.linkBytes[l], t.frequencyGhz);
        t.linkAfter[l] = (double)t.linkCycles[l];
    }
    return t;
}

PartitionPlan
Partitioner::partition(const dnn::Network &network, int stages,
                       int batch) const
{
    network.check();
    if (stages < 1)
        fatal("pipeline needs at least 1 stage, got %d", stages);
    if (batch < 1)
        fatal("batch must be at least 1, got %d", batch);

    const int n = (int)network.layers.size();
    if (stages > n) {
        warn("network '%s' has %d layers; clamping %d pipeline "
             "stages to %d", network.name.c_str(), n, stages, n);
        stages = n;
    }
    const int k = stages;

    // The cut-search inputs — per-layer cycle prefix sums and
    // per-boundary link costs — are memoized per (network, batch):
    // a planner search re-enters here for every K of each (R, T)
    // with identical inputs, and only the first K pays for the
    // derivation (and its whole-network simulation lookup).
    const std::uint64_t net_hash = npusim::hashNetwork(network);
    const auto timings = _timings.getOrCompute(
        {net_hash, batch},
        [&] { return buildTimings(network, net_hash, batch); });
    const double freq = timings->frequencyGhz;
    const std::vector<double> &prefix = timings->prefix;
    const std::vector<double> &link_after = timings->linkAfter;
    const std::vector<std::uint64_t> &link_cycles =
        timings->linkCycles;
    const std::vector<std::uint64_t> &link_bytes = timings->linkBytes;

    // Min-max contiguous partition DP: dp[s][j] is the best
    // bottleneck occupancy over layers 0..j split into s stages.
    auto seg_cost = [&](int i, int j) {
        return prefix[j + 1] - prefix[i] + link_after[j];
    };
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::vector<std::vector<double>> dp(
        k + 1, std::vector<double>(n, kInf));
    std::vector<std::vector<int>> cut(
        k + 1, std::vector<int>(n, -1));
    for (int j = 0; j < n; ++j)
        dp[1][j] = seg_cost(0, j);
    for (int s = 2; s <= k; ++s) {
        for (int j = s - 1; j < n; ++j) {
            for (int i = s - 2; i < j; ++i) {
                double cost =
                    std::max(dp[s - 1][i], seg_cost(i + 1, j));
                if (cost < dp[s][j]) {
                    dp[s][j] = cost;
                    cut[s][j] = i;
                }
            }
        }
    }

    // Recover the stage boundaries (last layer of each stage).
    std::vector<int> last(k);
    int j = n - 1;
    for (int s = k; s >= 1; --s) {
        last[s - 1] = j;
        j = (s > 1) ? cut[s][j] : -1;
        SUPERNPU_ASSERT(s == 1 || j >= 0,
                        "partition DP reconstruction broke");
    }

    PartitionPlan plan;
    plan.networkName = network.name;
    plan.configName = timings->configName;
    plan.batch = batch;
    plan.frequencyGhz = freq;
    plan.link = _link;
    plan.stages.reserve(k);

    int first = 0;
    for (int s = 0; s < k; ++s) {
        PipelineStage stage;
        stage.firstLayer = first;
        stage.lastLayer = last[s];
        if (first == 0 && last[s] == n - 1) {
            // K=1: the stage *is* the network — identical name and
            // layers, so the simulation below hits (or seeds) the
            // exact cache entry the single-chip path uses. This is
            // the byte-identity guarantee docs/partitioning.md pins.
            stage.network = network;
        } else {
            stage.network.name = network.name + "[" +
                                 std::to_string(first) + "-" +
                                 std::to_string(last[s]) + "]";
            stage.network.layers.assign(
                network.layers.begin() + first,
                network.layers.begin() + last[s] + 1);
        }
        // K=1 reuses the whole-network hash; sub-ranges hash fresh.
        stage.sim = (first == 0 && last[s] == n - 1)
                        ? simulate(net_hash, stage.network, batch)
                        : simulate(stage.network, batch);
        stage.stageCycles = stage.sim->totalCycles;
        if (last[s] < n - 1) {
            stage.linkBytes = link_bytes[last[s]];
            stage.linkCycles = link_cycles[last[s]];
        }
        plan.stages.push_back(std::move(stage));
        first = last[s] + 1;
    }

    for (int s = 0; s < k; ++s) {
        std::uint64_t occ = plan.stages[s].occupancyCycles();
        plan.fillCycles += occ;
        if (occ > plan.bottleneckCycles) {
            plan.bottleneckCycles = occ;
            plan.bottleneckStage = s;
        }
    }
    SUPERNPU_ASSERT(plan.bottleneckCycles > 0,
                    "degenerate plan: zero bottleneck");
    return plan;
}

} // namespace partition
} // namespace supernpu
