/**
 * @file
 * Bottleneck-minimizing contiguous partitioner implementation.
 */

#include "partitioner.hh"

#include <algorithm>
#include <limits>
#include <mutex>

#include "common/hash.hh"
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

LayerTimings
Partitioner::buildTimings(
    const dnn::Network &network,
    std::shared_ptr<const npusim::SimResult> full, int batch) const
{
    // One whole-network simulation supplies the per-layer costs the
    // DP balances. These embed on-chip hand-off and overlap effects
    // of the unsplit schedule, so they are an estimate for *cut
    // selection*; each chosen stage is then costed exactly, composed
    // from this same run by NpuSimulator::runRange.
    const int n = (int)network.layers.size();

    LayerTimings t;
    t.configName = full->configName;
    t.frequencyGhz = full->frequencyGhz;
    t.prefix.assign(n + 1, 0.0);
    t.cycles.assign(n + 1, 0);
    const npusim::LayerView layers = full->layers();
    for (int l = 0; l < n; ++l) {
        const std::uint64_t cycles = layers[l].totalCycles();
        t.prefix[l + 1] = t.prefix[l] + (double)cycles;
        t.cycles[l + 1] = t.cycles[l] + cycles;
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
    t.sim = std::move(full);
    return t;
}

std::uint64_t
Partitioner::stageHash(std::uint64_t network_hash, int first, int last,
                       int layer_count)
{
    if (first == 0 && last == layer_count - 1)
        return network_hash;
    return Fnv1a(network_hash)
        .word((std::uint64_t)first)
        .word((std::uint64_t)last)
        .value();
}

std::vector<std::vector<int>>
Partitioner::cutStages(const LayerTimings &timings, int first_k,
                       int last_k)
{
    const int n = timings.layerCount();
    SUPERNPU_ASSERT(first_k >= 1 && first_k <= last_k && last_k <= n,
                    "stage count out of range");
    const std::vector<double> &prefix = timings.prefix;
    const std::vector<double> &link_after = timings.linkAfter;

    // Min-max contiguous partition DP: dp[s][j] is the best
    // bottleneck occupancy over layers 0..j split into s stages.
    // Row s reads only row s-1, so the rows built for any K are the
    // rows every other K needs: the table grows to the largest K
    // asked for and each K walks its own chain of cuts.
    //
    // Each j scans its last cut i downward from j-1. seg_cost(i+1, j)
    // never falls as i falls (prefix sums are nondecreasing and IEEE
    // subtraction is monotone), so once it strictly exceeds the best
    // cost so far no smaller i can match it and the scan stops.
    // Taking ties on the way down keeps the smallest minimizing i,
    // the cut an upward scan with a strict compare would keep.
    auto seg_cost = [&](int i, int j) {
        return prefix[j + 1] - prefix[i] + link_after[j];
    };
    constexpr double kInf = std::numeric_limits<double>::infinity();
    CutTable &table = *timings.cuts;
    std::lock_guard<std::mutex> lock(table.mutex);
    if (table.frontier.empty()) {
        table.frontier.resize(n);
        for (int j = 0; j < n; ++j)
            table.frontier[j] = seg_cost(0, j);
        table.cut.resize(2);
    }
    std::vector<double> next;
    for (int s = (int)table.cut.size(); s <= last_k; ++s) {
        const std::vector<double> &prev = table.frontier;
        next.assign(n, kInf);
        std::vector<int> cut(n, -1);
        for (int j = s - 1; j < n; ++j) {
            double &best = next[j];
            for (int i = j - 1; i >= s - 2; --i) {
                const double seg = seg_cost(i + 1, j);
                if (seg > best)
                    break;
                const double cost = std::max(prev[i], seg);
                if (cost <= best) {
                    best = cost;
                    cut[j] = i;
                }
            }
        }
        table.frontier.swap(next);
        table.cut.push_back(std::move(cut));
    }

    std::vector<std::vector<int>> cuts(last_k - first_k + 1);
    for (int k = first_k; k <= last_k; ++k) {
        // Recover the stage boundaries (last layer of each stage).
        std::vector<int> &last = cuts[k - first_k];
        last.resize(k);
        int j = n - 1;
        for (int s = k; s >= 1; --s) {
            last[s - 1] = j;
            j = (s > 1) ? table.cut[s][j] : -1;
            SUPERNPU_ASSERT(s == 1 || j >= 0,
                            "partition DP reconstruction broke");
        }
    }
    return cuts;
}

PartitionPlan
Partitioner::partition(const dnn::Network &network, int stages,
                       int batch) const
{
    network.check();
    return partition(npusim::hashNetwork(network), network, stages,
                     batch);
}

PartitionPlan
Partitioner::partition(std::uint64_t net_hash,
                       const dnn::Network &network, int stages,
                       int batch) const
{
    if (stages < 1)
        fatal("pipeline needs at least 1 stage, got ", stages);
    if (batch < 1)
        fatal("batch must be at least 1, got ", batch);

    const int n = (int)network.layers.size();
    if (stages > n) {
        warn("network '", network.name, "' has ", n,
             " layers; clamping ", stages, " pipeline stages to ", n);
        stages = n;
    }

    // The cut-search inputs — per-layer cycle prefix sums and
    // per-boundary link costs, plus the DP rows over them — are
    // memoized per (network, batch): a sweep over K with identical
    // inputs pays for the derivation (and its whole-network
    // simulation lookup) only at its first K.
    const auto timings =
        _timings.getOrCompute({net_hash, batch}, [&] {
            return buildTimings(
                network,
                _cache->getOrRun({net_hash, _configHash, batch}, _sim,
                                 network),
                batch);
        });
    const std::vector<int> last =
        cutStages(*timings, stages, stages).front();

    PartitionPlan plan;
    plan.networkName = network.name;
    plan.configName = timings->configName;
    plan.batch = batch;
    plan.frequencyGhz = timings->frequencyGhz;
    plan.link = _link;
    plan.stages.resize(stages);

    // Every chosen stage costs as a standalone sub-network, composed
    // on a cache miss from the whole-network run the timings keep.
    int first = 0;
    for (int s = 0; s < stages; ++s) {
        PipelineStage &stage = plan.stages[s];
        stage.firstLayer = first;
        stage.lastLayer = last[s];
        stage.sim = _cache->getOrCompute(
            {stageHash(net_hash, first, last[s], n), _configHash, batch},
            [&] {
                return _sim.runRange(network, first, last[s], batch,
                                     timings->sim);
            });
        stage.stageCycles = stage.sim->totalCycles;
        if (last[s] < n - 1) {
            stage.linkBytes = timings->linkBytes[last[s]];
            stage.linkCycles = timings->linkCycles[last[s]];
        }
        first = last[s] + 1;

        const std::uint64_t occ = stage.occupancyCycles();
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
