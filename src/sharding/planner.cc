/**
 * @file
 * Hybrid DP×TP×PP planner implementation.
 */

#include "planner.hh"

#include <algorithm>
#include <map>
#include <unordered_map>
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

npusim::SimKey
HybridPlanner::simKey(std::uint64_t network_hash, int batch) const
{
    return {network_hash, _sharder._configHash, batch};
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
    perf::Scope perf_scope("planner.evaluate");
    const dnn::Network shard = shardNetwork(network, tensor_shards);
    const std::uint64_t shard_hash = npusim::hashNetwork(shard);
    const std::uint64_t whole_hash = npusim::hashNetwork(network);
    const int share = (batch + data_parallel - 1) / data_parallel;

    // TP geometry and per-layer all-reduce at the replica's share.
    const TensorShardResult tensor = _sharder.shard(
        whole_hash, network, shard_hash, shard, tensor_shards, share);
    // PP split of the shard network. The partitioner re-simulates
    // every chosen stage of the shrunk geometry; its cut search
    // does not see the TP overlay (documented approximation).
    partition::PartitionPlan pipeline = _partitioner.partition(
        shard_hash, shard, pipeline_stages, share);
    // The documented baseline is the FULL batch on one chip; the
    // tensor result's solo ran at the replica share, which for R>1
    // is a smaller problem. Cache-hit for R=1 (share == batch).
    auto solo = _sharder.simulate(whole_hash, network, batch);
    return evaluate(network, data_parallel, tensor_shards, batch,
                    Resolved{tensor, std::move(pipeline),
                             std::move(solo)});
}

ShardPlan
HybridPlanner::evaluate(const dnn::Network &network, int data_parallel,
                        int tensor_shards, int batch,
                        Resolved resolved) const
{
    if (perf::enabled()) {
        static perf::Counter &evaluations =
            perf::counter("planner.evaluations");
        evaluations.add(1);
    }
    const TensorShardResult &tensor = resolved.tensor;

    ShardPlan plan;
    plan.networkName = network.name;
    plan.dataParallel = data_parallel;
    plan.tensorShards = tensor_shards;
    plan.batch = batch;
    plan.replicaShare =
        (batch + data_parallel - 1) / data_parallel;
    plan.link = _sharder.link();
    plan.configName = tensor.configName;
    plan.frequencyGhz = tensor.frequencyGhz;
    plan.tensorCollectiveBytes = tensor.collectiveBytes;
    plan.pipeline = std::move(resolved.pipeline);
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

    plan.soloCycles = resolved.solo->totalCycles;
    plan.macOpsPerBatch = resolved.solo->macOps;
    plan.peakMacPerSec = tensor.peakMacPerSec;
    return plan;
}

namespace {

/** One enumerated (R, T, K) and the search point it reads. */
struct Candidate
{
    int r = 1, t = 1, k = 1;
    int point = 0; ///< index of its (T, replica share) point
};

/** A stage sub-range [first, last] of one point and its key. */
struct StageRange
{
    npusim::SimKey key;
    int first = 0, last = 0;
};

/**
 * What one (T, replica share) point of a search resolves once for
 * every candidate that reads it (every R with that share, every K).
 */
struct SearchPoint
{
    int t = 1, share = 1;
    int soloPoint = 0;  ///< the (1, share) point: the unsharded run
    std::size_t firstCandidate = 0; ///< the first candidate reading it
    int maxStages = 1;  ///< largest K any candidate asks for
    npusim::SimKey wideKey; ///< the T-way shard network at the share
    std::shared_ptr<const npusim::SimResult> wide;
    /** The LayerTimings was resident when the search began. */
    bool timingsResident = false;
    std::shared_ptr<const partition::LayerTimings> timings;
    /** cuts[K-1]: the best K-way split. */
    std::vector<partition::Partitioner::StageCut> cuts;
    TensorShardResult tensor;
    /** Every proper sub-range any K cuts, once each. */
    std::vector<StageRange> ranges;
};

} // namespace

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
    // layer count only duplicate rows (and spam clamp warns). Each
    // (R, T) maps onto its (T, replica share) point; R-major order
    // creates every (1, share) point before any T > 1 reads it.
    const int max_r = std::min(chip_budget, batch);
    const int max_k = (int)network.layers.size();
    std::vector<Candidate> candidates;
    std::vector<SearchPoint> points;
    std::map<std::pair<int, int>, int> point_of;
    for (int r = 1; r <= max_r; ++r) {
        const int share = (batch + r - 1) / r;
        for (int t = 1; r * t <= chip_budget; ++t) {
            const auto [it, fresh] =
                point_of.try_emplace({t, share}, (int)points.size());
            if (fresh) {
                SearchPoint point;
                point.t = t;
                point.share = share;
                point.soloPoint = point_of.at({1, share});
                point.firstCandidate = candidates.size();
                points.push_back(std::move(point));
            }
            const int k_limit = std::min(chip_budget / (r * t), max_k);
            SearchPoint &point = points[it->second];
            point.maxStages = std::max(point.maxStages, k_limit);
            for (int k = 1; k <= k_limit; ++k)
                candidates.push_back(Candidate{r, t, k, it->second});
        }
    }

    // The input network is validated and hashed once, and each T-way
    // shard network is built (validated by shardNetwork) and hashed
    // once, fanned across the pool.
    network.check();
    const std::uint64_t whole_hash = npusim::hashNetwork(network);
    ThreadPool pool(jobs < 0 ? 1 : jobs);
    struct HashedNetwork
    {
        dnn::Network network;
        std::uint64_t hash = 0;
    };
    const std::vector<HashedNetwork> shards =
        pool.parallelMap(chip_budget, [&](std::size_t i) {
            dnn::Network shard = shardNetwork(network, (int)i + 1);
            const std::uint64_t hash = npusim::hashNetwork(shard);
            return HashedNetwork{std::move(shard), hash};
        });

    npusim::SimCache &cache = *_sharder._cache;
    partition::LayerTimingCache &timing_cache =
        _partitioner.timingCache();
    const npusim::SimKey solo_key = simKey(whole_hash, batch);
    std::vector<npusim::SimKey> sim_keys;
    std::vector<partition::LayerTimingKey> timing_keys;
    std::unordered_map<npusim::SimKey,
                       std::shared_ptr<const npusim::SimResult>,
                       npusim::SimKeyHash>
        resolved;
    /** A distinct non-resident stage key and where its result goes. */
    struct Miss
    {
        const SearchPoint *point;
        const StageRange *range;
        std::shared_ptr<const npusim::SimResult> *slot;
    };
    std::vector<Miss> misses;
    {
        perf::Scope span("planner.derive");
        // Every point's wide simulation, before any point reads
        // another's as its unsharded solo run.
        pool.parallelFor(points.size(), [&](std::size_t i) {
            SearchPoint &p = points[i];
            const HashedNetwork &shard = shards[p.t - 1];
            p.wideKey = simKey(shard.hash, p.share);
            p.wide = cache.peek(p.wideKey);
            if (!p.wide)
                p.wide = std::make_shared<const npusim::SimResult>(
                    _sharder._sim.run(shard.network, p.share));
        });
        // Everything else a point's candidates share. The CutTable
        // lock is taken once per point; afterwards every read of the
        // cuts is lock-free.
        pool.parallelFor(points.size(), [&](std::size_t i) {
            SearchPoint &p = points[i];
            const HashedNetwork &shard = shards[p.t - 1];
            p.timings = timing_cache.peek({shard.hash, p.share});
            p.timingsResident = p.timings != nullptr;
            if (!p.timingsResident)
                p.timings =
                    std::make_shared<const partition::LayerTimings>(
                        _partitioner.buildTimings(shard.network, p.wide,
                                                  p.share));
            p.cuts = partition::Partitioner::cutStages(
                shard.hash, *p.timings, 1, p.maxStages);
            p.tensor = _sharder.assemble(network, p.t, p.share, p.wide,
                                         points[p.soloPoint].wide);
            const int n = p.timings->layerCount();
            std::vector<char> seen(n * n, 0);
            for (const auto &cut : p.cuts) {
                int first = 0;
                for (std::size_t s = 0; s < cut.last.size(); ++s) {
                    const int last = cut.last[s];
                    if ((first != 0 || last != n - 1) &&
                        !seen[first * n + last]++)
                        p.ranges.push_back(StageRange{
                            simKey(cut.hash[s], p.share), first, last});
                    first = last + 1;
                }
            }
        });

        // The serial walk's lookup sequences, candidate by candidate
        // in the order evaluate() issues them. The timing memo is
        // unbounded, so a point's LayerTimings misses exactly once —
        // at its first candidate, unless it was resident — and that
        // miss looks the wide simulation up again. Each candidate's
        // lookup count is known up front, so each fills its own
        // slice of the sequence, at an offset from a prefix sum.
        const auto rewide = [&](std::size_t i) {
            const SearchPoint &p = points[candidates[i].point];
            return !p.timingsResident && p.firstCandidate == i;
        };
        std::vector<std::size_t> offset(candidates.size() + 1, 0);
        for (std::size_t i = 0; i < candidates.size(); ++i) {
            const Candidate &c = candidates[i];
            offset[i + 1] = offset[i] + 2 + (c.t > 1) + rewide(i) + c.k;
        }
        sim_keys.resize(offset.back());
        timing_keys.resize(candidates.size());
        pool.parallelFor(candidates.size(), [&](std::size_t i) {
            const Candidate &c = candidates[i];
            const SearchPoint &p = points[c.point];
            npusim::SimKey *key = &sim_keys[offset[i]];
            *key++ = p.wideKey;
            if (c.t > 1)
                *key++ = points[p.soloPoint].wideKey;
            timing_keys[i] = {shards[c.t - 1].hash, p.share};
            if (rewide(i))
                *key++ = p.wideKey;
            for (std::uint64_t hash : p.cuts[c.k - 1].hash)
                *key++ = simKey(hash, p.share);
            *key = solo_key;
        });

        // Every key the sequence names: the wide runs are in hand
        // (and the solo keys are T=1 wide keys); a stage key is
        // resident or a miss to simulate.
        for (const SearchPoint &p : points)
            resolved.emplace(p.wideKey, p.wide);
        for (const SearchPoint &p : points) {
            for (const StageRange &range : p.ranges) {
                const auto [it, fresh] = resolved.try_emplace(range.key);
                if (!fresh)
                    continue;
                it->second = cache.peek(range.key);
                if (!it->second)
                    misses.push_back(Miss{&p, &range, &it->second});
            }
        }
    }

    {
        // No lock: each miss writes only its own resolved slot.
        perf::Scope span("planner.simulate");
        pool.parallelFor(misses.size(), [&](std::size_t i) {
            const Miss &miss = misses[i];
            *miss.slot = std::make_shared<const npusim::SimResult>(
                _sharder._sim.runRange(
                    shards[miss.point->t - 1].network,
                    miss.range->first, miss.range->last,
                    miss.point->share, miss.point->timings->sim));
        });
    }

    {
        perf::Scope span("planner.replay");
        cache.replay(sim_keys, [&](const npusim::SimKey &key) {
            return resolved.at(key);
        });
        std::unordered_map<partition::LayerTimingKey,
                           std::shared_ptr<const partition::LayerTimings>,
                           partition::LayerTimingKeyHash>
            timings_of;
        for (const SearchPoint &p : points)
            timings_of.emplace(
                partition::LayerTimingKey{shards[p.t - 1].hash,
                                          p.share},
                p.timings);
        timing_cache.replay(
            timing_keys, [&](const partition::LayerTimingKey &key) {
                return timings_of.at(key);
            });
    }

    // Every candidate from the read-only tables; slot i always holds
    // the i-th enumerated triple's plan.
    search.evaluated =
        pool.parallelMap(candidates.size(), [&](std::size_t i) {
            perf::Scope span("planner.evaluate");
            const Candidate &c = candidates[i];
            const SearchPoint &p = points[c.point];
            const partition::Partitioner::StageCut &cut =
                p.cuts[c.k - 1];
            partition::PartitionPlan pipeline = _partitioner.assemble(
                shards[c.t - 1].network.name, *p.timings, cut, p.share,
                [&](int s) {
                    return resolved.at(simKey(cut.hash[s], p.share));
                });
            return evaluate(network, c.r, c.t, batch,
                            Resolved{p.tensor, std::move(pipeline),
                                     resolved.at(solo_key)});
        });
    if (perf::enabled()) {
        static perf::Counter &candidates_counter =
            perf::counter("planner.candidates");
        candidates_counter.add(candidates.size());
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
