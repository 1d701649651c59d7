/**
 * @file
 * Hybrid DP×TP×PP planner implementation.
 */

#include "planner.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "npusim/sim_cache.hh"
#include "perf/profile.hh"

namespace supernpu {
namespace sharding {

const char *
planObjectiveName(PlanObjective objective)
{
    switch (objective) {
      case PlanObjective::Throughput:
        return "throughput";
      case PlanObjective::Latency:
        return "latency";
    }
    panic("unknown plan objective");
}

double
ShardPlan::intervalSec() const
{
    return (double)intervalCycles / (frequencyGhz * 1e9);
}

double
ShardPlan::latencySec() const
{
    return (double)latencyCycles / (frequencyGhz * 1e9);
}

double
ShardPlan::throughput() const
{
    return (double)batch / intervalSec();
}

double
ShardPlan::speedup() const
{
    SUPERNPU_ASSERT(intervalCycles > 0, "plan not built");
    return (double)soloCycles / (double)intervalCycles;
}

double
ShardPlan::effectiveMacPerSec() const
{
    return (double)macOpsPerBatch / intervalSec();
}

HybridPlanner::HybridPlanner(const estimator::NpuEstimate &estimate,
                             partition::LinkConfig link,
                             npusim::SimCache *cache)
    : _sharder(estimate, link, cache),
      _partitioner(estimate, link, cache)
{
}

ShardPlan
HybridPlanner::evaluate(const dnn::Network &network,
                        int data_parallel, int tensor_shards,
                        int pipeline_stages, int batch) const
{
    network.check();
    if (data_parallel < 1 || tensor_shards < 1 ||
        pipeline_stages < 1)
        fatal("parallelism degrees must be positive, got DP=",
              data_parallel, " TP=", tensor_shards,
              " PP=", pipeline_stages);
    if (batch < 1)
        fatal("batch must be at least 1, got ", batch);
    if (data_parallel > batch) {
        warn("batch ", batch, " cannot feed ", data_parallel,
             " data-parallel replicas; clamping to ", batch);
        data_parallel = batch;
    }
    dnn::Network shard = shardNetwork(network, tensor_shards);
    const std::uint64_t shard_hash = npusim::hashNetwork(shard);
    return evaluate(
        HashedNetwork{network, npusim::hashNetwork(network)},
        HashedNetwork{std::move(shard), shard_hash}, data_parallel,
        tensor_shards, pipeline_stages, batch);
}

ShardPlan
HybridPlanner::evaluate(const HashedNetwork &whole,
                        const HashedNetwork &shard, int data_parallel,
                        int tensor_shards, int pipeline_stages,
                        int batch) const
{
    perf::Scope perf_scope("planner.evaluate");
    if (perf::enabled()) {
        static perf::Counter &evaluations =
            perf::counter("planner.evaluations");
        evaluations.add(1);
    }
    const dnn::Network &network = whole.network;

    ShardPlan plan;
    plan.networkName = network.name;
    plan.dataParallel = data_parallel;
    plan.tensorShards = tensor_shards;
    plan.batch = batch;
    plan.replicaShare =
        (batch + data_parallel - 1) / data_parallel;
    plan.link = _sharder.link();

    // TP geometry and per-layer all-reduce at the replica's share.
    TensorShardResult tensor = _sharder.shard(
        whole.hash, network, shard.hash, shard.network, tensor_shards,
        plan.replicaShare);
    plan.configName = tensor.configName;
    plan.frequencyGhz = tensor.frequencyGhz;
    plan.tensorCollectiveBytes = tensor.collectiveBytes;

    // PP split of the shard network. The partitioner re-simulates
    // every chosen stage of the shrunk geometry; its cut search
    // does not see the TP overlay below (documented approximation).
    plan.pipeline = _partitioner.partition(
        shard.hash, shard.network, pipeline_stages, plan.replicaShare);
    plan.pipelineStages = plan.pipeline.stageCount();

    // Overlay each stage's in-range TP all-reduce cycles onto its
    // occupancy and recompute bottleneck/fill over the overlay.
    const int k = plan.pipelineStages;
    plan.stageCollectiveCycles.assign(k, 0);
    plan.stageOccupancyCycles.assign(k, 0);
    for (int s = 0; s < k; ++s) {
        const partition::PipelineStage &stage =
            plan.pipeline.stages[s];
        std::uint64_t coll = 0;
        for (int l = stage.firstLayer; l <= stage.lastLayer; ++l)
            coll = saturatingAdd(
                coll, tensor.layers[l].reduceCycles);
        plan.stageCollectiveCycles[s] = coll;
        plan.tensorCollectiveCycles =
            saturatingAdd(plan.tensorCollectiveCycles, coll);
        const std::uint64_t occ =
            saturatingAdd(stage.occupancyCycles(), coll);
        plan.stageOccupancyCycles[s] = occ;
        plan.fillCycles = saturatingAdd(plan.fillCycles, occ);
        plan.bottleneckCycles =
            std::max(plan.bottleneckCycles, occ);
    }

    // DP gather of the full batch's final outputs across replicas.
    if (plan.dataParallel > 1) {
        plan.gatherBytes = partition::activationBytes(
            network.layers.back(), batch);
        plan.gatherCycles =
            allGatherCost(plan.link, plan.dataParallel,
                          plan.gatherBytes, plan.frequencyGhz)
                .cycles;
    }

    // The gather shares the link fabric with the next batch's
    // compute, so whichever is slower paces steady state.
    plan.intervalCycles =
        std::max(plan.bottleneckCycles, plan.gatherCycles);
    plan.latencyCycles =
        saturatingAdd(plan.fillCycles, plan.gatherCycles);

    // The documented baseline is the FULL batch on one chip; the
    // tensor result's solo ran at the replica share, which for R>1
    // is a smaller problem. Cache-hit for R=1 (share == batch).
    const auto solo = _sharder.simulate(whole.hash, network, batch);
    plan.soloCycles = solo->totalCycles;
    plan.macOpsPerBatch = solo->macOps;
    plan.peakMacPerSec = tensor.peakMacPerSec;
    return plan;
}

PlanSearch
HybridPlanner::plan(const dnn::Network &network, int chip_budget,
                    int batch, PlanObjective objective,
                    int jobs) const
{
    if (chip_budget < 1)
        fatal("chip budget must be at least 1, got ", chip_budget);
    perf::Scope perf_scope("planner.plan");

    PlanSearch search;
    search.objective = objective;
    search.chipBudget = chip_budget;

    // Degrees a clamp would fold onto an already-enumerated triple
    // are skipped up front: R beyond the batch and K beyond the
    // layer count only duplicate rows (and spam clamp warns).
    // Materializing the triples first sizes the candidate vector
    // exactly and hands parallelMap an indexable work list.
    struct Triple
    {
        int r = 1, t = 1, k = 1;
    };
    const int max_r = std::min(chip_budget, batch);
    const int max_k = (int)network.layers.size();
    std::vector<Triple> triples;
    for (int r = 1; r <= max_r; ++r)
        for (int t = 1; r * t <= chip_budget; ++t)
            for (int k = 1; r * t * k <= chip_budget && k <= max_k;
                 ++k)
                triples.push_back(Triple{r, t, k});

    // Everything that depends on the network alone or on T alone is
    // derived once here, not once per candidate: the input network
    // is validated and hashed once, and each T-way shard network is
    // built (validated by shardNetwork) and hashed once, fanned
    // across the pool. Neither step touches a cache, so every
    // candidate still issues exactly the SimCache and
    // LayerTimingCache lookups a standalone evaluate() does.
    network.check();
    const HashedNetwork whole{network, npusim::hashNetwork(network)};
    ThreadPool pool(jobs < 0 ? 1 : jobs);
    const std::vector<HashedNetwork> shards =
        pool.parallelMap(chip_budget, [&](std::size_t i) {
            dnn::Network shard = shardNetwork(network, (int)i + 1);
            const std::uint64_t hash = npusim::hashNetwork(shard);
            return HashedNetwork{std::move(shard), hash};
        });

    // Fan the evaluations across the pool. Slot i always holds the
    // i-th enumerated triple's plan (moved in, never copied — each
    // ShardPlan carries stage vectors and a shared SimResult), so
    // the candidate list is byte-identical to the serial walk no
    // matter how the work interleaves.
    search.evaluated =
        pool.parallelMap(triples.size(), [&](std::size_t i) {
            const Triple &triple = triples[i];
            return evaluate(whole, shards[triple.t - 1], triple.r,
                            triple.t, triple.k, batch);
        });
    if (perf::enabled()) {
        static perf::Counter &candidates =
            perf::counter("planner.candidates");
        candidates.add(triples.size());
    }

    // First strictly better wins: lexicographic (R,T,K) order makes
    // ties deterministic and biases toward simpler placements.
    for (int i = 1; i < (int)search.evaluated.size(); ++i) {
        const ShardPlan &cand = search.evaluated[i];
        const ShardPlan &best = search.evaluated[search.bestIndex];
        const bool better =
            objective == PlanObjective::Throughput
                ? cand.throughput() > best.throughput()
                : cand.latencySec() < best.latencySec();
        if (better)
            search.bestIndex = i;
    }
    return search;
}

} // namespace sharding
} // namespace supernpu
