/**
 * @file
 * Hybrid DP×TP×PP planner implementation.
 */

#include "planner.hh"

#include <algorithm>
#include <iterator>
#include <map>
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
PlanRow::intervalSec() const
{
    return (double)intervalCycles / (frequencyGhz * 1e9);
}

double
PlanRow::latencySec() const
{
    return (double)latencyCycles / (frequencyGhz * 1e9);
}

double
PlanRow::throughput() const
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

namespace {

/**
 * The one fold of a plan's row, which evaluate() runs for a full
 * plan and plan() for every search candidate. stage(s) returns the
 * last layer of stage s of the `stages`-stage split and the cycles
 * it occupies (compute plus its outbound link) before the overlay.
 * Each stage's in-range TP all-reduce cycles overlay its occupancy,
 * and on_stage(s, collective, occupancy) sees both. The DP gather
 * ships `gather_bytes` when R > 1.
 */
template <typename Stage, typename OnStage>
PlanRow
foldRow(int data_parallel, int tensor_shards, int stages, int batch,
        const TensorShardResult &tensor,
        const partition::LinkConfig &link, std::uint64_t gather_bytes,
        Stage &&stage, OnStage &&on_stage)
{
    PlanRow row;
    row.dataParallel = data_parallel;
    row.tensorShards = tensor_shards;
    row.pipelineStages = stages;
    row.batch = batch;
    row.frequencyGhz = tensor.frequencyGhz;

    int first = 0;
    for (int s = 0; s < stages; ++s) {
        const auto [last, occupancy] = stage(s);
        std::uint64_t coll = 0;
        for (int l = first; l <= last; ++l)
            coll = saturatingAdd(coll, tensor.layers[l].reduceCycles);
        row.tensorCollectiveCycles =
            saturatingAdd(row.tensorCollectiveCycles, coll);
        const std::uint64_t occ = saturatingAdd(occupancy, coll);
        on_stage(s, coll, occ);
        row.fillCycles = saturatingAdd(row.fillCycles, occ);
        row.bottleneckCycles = std::max(row.bottleneckCycles, occ);
        first = last + 1;
    }

    // The gather shares the link fabric with the next batch's
    // compute, so whichever is slower paces steady state.
    if (data_parallel > 1)
        row.gatherCycles = allGatherCost(link, data_parallel,
                                         gather_bytes, row.frequencyGhz)
                               .cycles;
    row.intervalCycles = std::max(row.bottleneckCycles, row.gatherCycles);
    row.latencyCycles = saturatingAdd(row.fillCycles, row.gatherCycles);
    return row;
}

} // namespace

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
    plan.pipeline = std::move(resolved.pipeline);
    plan.link = _sharder.link();
    // DP gather of the full batch's final outputs across replicas.
    if (data_parallel > 1)
        plan.gatherBytes = partition::activationBytes(
            network.layers.back(), batch);
    // Overlay each stage's in-range TP all-reduce cycles onto its
    // occupancy and fold bottleneck/fill over the overlay.
    const int k = plan.pipeline.stageCount();
    plan.stageCollectiveCycles.assign(k, 0);
    plan.stageOccupancyCycles.assign(k, 0);
    static_cast<PlanRow &>(plan) = foldRow(
        data_parallel, tensor_shards, k, batch, tensor, plan.link,
        plan.gatherBytes,
        [&](int s) {
            const partition::PipelineStage &stage =
                plan.pipeline.stages[s];
            return std::pair{stage.lastLayer, stage.occupancyCycles()};
        },
        [&](int s, std::uint64_t coll, std::uint64_t occ) {
            plan.stageCollectiveCycles[s] = coll;
            plan.stageOccupancyCycles[s] = occ;
        });

    plan.networkName = network.name;
    plan.configName = tensor.configName;
    plan.replicaShare = (batch + data_parallel - 1) / data_parallel;
    plan.tensorCollectiveBytes = tensor.collectiveBytes;
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

/** A stage sub-range [first, last] of one point and its key hash. */
struct StageRange
{
    std::uint64_t hash = 0;
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
    /** The LayerTimings was resident when the search began. */
    bool timingsResident = false;
    std::shared_ptr<const partition::LayerTimings> timings;
    /** cuts[K-1]: the best K-way split. */
    std::vector<partition::Partitioner::StageCut> cuts;
    TensorShardResult tensor;
    /** Every proper sub-range any K cuts, once each. */
    std::vector<StageRange> ranges;
    /**
     * For K ≥ 2, stage s of cut K is ranges[rangeOf[firstStage(K) +
     * s]]. (K = 1 is the whole network: the point's wide run.)
     */
    std::vector<std::uint32_t> rangeOf;
    std::uint32_t firstRangeId = 0; ///< dense id of ranges[0]

    /** Where cut K's stages start in rangeOf. */
    static std::size_t firstStage(int k)
    {
        return (std::size_t)k * (k - 1) / 2 - 1;
    }
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
    // creates every (1, share) point before any T > 1 reads it, and
    // makes point 0 the (1, batch) point: the full-batch solo run.
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

    // The input network is validated once, and each T-way shard
    // network is built (validated by shardNetwork) and hashed once,
    // fanned across the pool. T = 1 is the input network itself.
    network.check();
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
    // Every distinct SimCache key the search looks up, by dense id:
    // point i's wide key is id i (and a T = 1 point's is the unsharded
    // run at its share, so id 0 is the solo key); each point's stage
    // ranges follow from its firstRangeId. resolved[id] is its result.
    constexpr std::uint32_t kSoloId = 0;
    std::vector<npusim::SimKey> keys(points.size());
    std::vector<std::shared_ptr<const npusim::SimResult>> resolved;
    std::vector<partition::LayerTimingKey> timing_keys(points.size());
    // The serial walk's lookup sequences: SimCache ids, candidate i's
    // at [offset[i], offset[i + 1]), and one LayerTimingCache point
    // id per candidate.
    std::vector<std::size_t> offset(candidates.size() + 1, 0);
    std::vector<std::uint32_t> sim_ids;
    std::vector<std::uint32_t> timing_ids(candidates.size());
    /** A non-resident stage id and the range it simulates. */
    struct Miss
    {
        std::uint32_t id;
        const SearchPoint *point;
        const StageRange *range;
    };
    std::vector<Miss> misses;
    {
        perf::Scope span("planner.derive");
        // Every point's wide simulation, before any point reads
        // another's as its unsharded solo run.
        for (std::size_t i = 0; i < points.size(); ++i)
            keys[i] = simKey(shards[points[i].t - 1].hash,
                             points[i].share);
        resolved = cache.peek(keys.begin(), keys.end());
        pool.parallelFor(points.size(), [&](std::size_t i) {
            if (!resolved[i])
                resolved[i] = std::make_shared<const npusim::SimResult>(
                    _sharder._sim.run(shards[points[i].t - 1].network,
                                      points[i].share));
        });
        // Everything else a point's candidates share. The CutTable
        // lock is taken once per point; afterwards every read of the
        // cuts is lock-free.
        for (std::size_t i = 0; i < points.size(); ++i)
            timing_keys[i] = {shards[points[i].t - 1].hash,
                              points[i].share};
        const std::vector<std::shared_ptr<const partition::LayerTimings>>
            resident_timings =
                timing_cache.peek(timing_keys.begin(), timing_keys.end());
        pool.parallelFor(points.size(), [&](std::size_t i) {
            SearchPoint &p = points[i];
            const HashedNetwork &shard = shards[p.t - 1];
            p.timings = resident_timings[i];
            p.timingsResident = p.timings != nullptr;
            if (!p.timingsResident)
                p.timings =
                    std::make_shared<const partition::LayerTimings>(
                        _partitioner.buildTimings(shard.network,
                                                  resolved[i], p.share));
            p.cuts = partition::Partitioner::cutStages(
                shard.hash, *p.timings, 1, p.maxStages);
            p.tensor = _sharder.assemble(network, p.t, p.share,
                                         resolved[i],
                                         resolved[p.soloPoint]);
            // Number the proper sub-ranges the cuts name, each once.
            if (p.maxStages == 1)
                return;
            const int n = p.timings->layerCount();
            constexpr std::uint32_t kUnseen = ~std::uint32_t(0);
            std::vector<std::uint32_t> range_at(n * n, kUnseen);
            p.rangeOf.reserve(SearchPoint::firstStage(p.maxStages + 1));
            for (int k = 2; k <= p.maxStages; ++k) {
                const partition::Partitioner::StageCut &cut = p.cuts[k - 1];
                int first = 0;
                for (int s = 0; s < k; ++s) {
                    const int last = cut.last[s];
                    std::uint32_t &range = range_at[first * n + last];
                    if (range == kUnseen) {
                        range = (std::uint32_t)p.ranges.size();
                        p.ranges.push_back(
                            StageRange{cut.hash[s], first, last});
                    }
                    p.rangeOf.push_back(range);
                    first = last + 1;
                }
            }
        });

        // Stage ids follow the wide ids, point by point; one locked
        // peek says which stage keys are resident.
        for (SearchPoint &p : points) {
            p.firstRangeId = (std::uint32_t)keys.size();
            for (const StageRange &range : p.ranges)
                keys.push_back(simKey(range.hash, p.share));
        }
        SUPERNPU_ASSERT(keys.size() <= ~std::uint32_t(0),
                        "search has more keys than ids");
        std::vector<std::shared_ptr<const npusim::SimResult>> stages =
            cache.peek(keys.begin() + points.size(), keys.end());
        resolved.reserve(keys.size());
        std::move(stages.begin(), stages.end(),
                  std::back_inserter(resolved));
        for (const SearchPoint &p : points) {
            for (std::size_t r = 0; r < p.ranges.size(); ++r) {
                const std::uint32_t id = p.firstRangeId + (std::uint32_t)r;
                if (!resolved[id])
                    misses.push_back(Miss{id, &p, &p.ranges[r]});
            }
        }

        // The lookup sequences, candidate by candidate in the order
        // evaluate() issues them. The timing memo is unbounded, so a
        // point's LayerTimings misses exactly once — at its first
        // candidate, unless it was resident — and that miss looks
        // the wide simulation up again. Each candidate's lookup
        // count is known up front, so each fills its own slice of
        // the sequence, at an offset from a prefix sum.
        const auto rewide = [&](std::size_t i) {
            const SearchPoint &p = points[candidates[i].point];
            return !p.timingsResident && p.firstCandidate == i;
        };
        for (std::size_t i = 0; i < candidates.size(); ++i) {
            const Candidate &c = candidates[i];
            offset[i + 1] = offset[i] + 2 + (c.t > 1) + rewide(i) + c.k;
        }
        sim_ids.resize(offset.back());
        pool.parallelFor(candidates.size(), [&](std::size_t i) {
            const Candidate &c = candidates[i];
            const SearchPoint &p = points[c.point];
            const std::uint32_t wide = (std::uint32_t)c.point;
            std::uint32_t *id = &sim_ids[offset[i]];
            *id++ = wide;
            if (c.t > 1)
                *id++ = (std::uint32_t)p.soloPoint;
            timing_ids[i] = wide;
            if (rewide(i))
                *id++ = wide;
            if (c.k == 1) {
                *id++ = wide;
            } else {
                const std::uint32_t *range =
                    &p.rangeOf[SearchPoint::firstStage(c.k)];
                for (int s = 0; s < c.k; ++s)
                    *id++ = p.firstRangeId + range[s];
            }
            *id = kSoloId;
        });
    }

    {
        // No lock: each miss writes only its own resolved slot.
        perf::Scope span("planner.simulate");
        pool.parallelFor(misses.size(), [&](std::size_t i) {
            const Miss &miss = misses[i];
            resolved[miss.id] = std::make_shared<const npusim::SimResult>(
                _sharder._sim.runRange(
                    shards[miss.point->t - 1].network,
                    miss.range->first, miss.range->last,
                    miss.point->share, miss.point->timings->sim));
        });
    }

    {
        perf::Scope span("planner.replay");
        cache.replay(sim_ids, keys,
                     [&](std::uint32_t id) { return resolved[id]; });
        timing_cache.replay(timing_ids, timing_keys,
                            [&](std::uint32_t id) {
                                return points[id].timings;
                            });
    }

    // Candidate i's stage ids close its lookup slice, just before
    // the solo id.
    const auto stage_ids = [&](std::size_t i) {
        return &sim_ids[offset[i + 1] - 1 - candidates[i].k];
    };
    // Every candidate's row from the read-only results, in slot
    // order. A stage's outbound link is timings.linkCycles[last],
    // which is 0 after the last layer, as assemble() charges it.
    const std::uint64_t gather_bytes =
        partition::activationBytes(network.layers.back(), batch);
    const partition::LinkConfig &link = _sharder.link();
    search.evaluated =
        pool.parallelMap(candidates.size(), [&](std::size_t i) {
            perf::Scope span("planner.evaluate");
            const Candidate &c = candidates[i];
            const SearchPoint &p = points[c.point];
            const std::vector<int> &last = p.cuts[c.k - 1].last;
            const std::vector<std::uint64_t> &link_cycles =
                p.timings->linkCycles;
            const std::uint32_t *ids = stage_ids(i);
            return foldRow(
                c.r, c.t, c.k, batch, p.tensor, link, gather_bytes,
                [&](int s) {
                    return std::pair{
                        last[s], resolved[ids[s]]->totalCycles +
                                     link_cycles[last[s]]};
                },
                [](int, std::uint64_t, std::uint64_t) {});
        });
    if (perf::enabled()) {
        static perf::Counter &candidates_counter =
            perf::counter("planner.candidates");
        candidates_counter.add(candidates.size());
    }

    // First strictly better wins: lexicographic (R,T,K) order makes
    // ties deterministic and biases toward simpler placements.
    for (int i = 1; i < (int)search.evaluated.size(); ++i) {
        const PlanRow &cand = search.evaluated[i];
        const PlanRow &best = search.evaluated[search.bestIndex];
        const bool better =
            objective == PlanObjective::Throughput
                ? cand.throughput() > best.throughput()
                : cand.latencySec() < best.latencySec();
        if (better)
            search.bestIndex = i;
    }

    // The winner's full plan, by the body evaluate() runs.
    const Candidate &c = candidates[search.bestIndex];
    const SearchPoint &p = points[c.point];
    const std::uint32_t *ids = stage_ids(search.bestIndex);
    search.winner = evaluate(
        network, c.r, c.t, batch,
        Resolved{p.tensor,
                 _partitioner.assemble(
                     shards[c.t - 1].network.name, *p.timings,
                     p.cuts[c.k - 1], p.share,
                     [&](int s) { return resolved[ids[s]]; }),
                 resolved[kSoloId]});
    return search;
}

} // namespace sharding
} // namespace supernpu
