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

/**
 * What one (shard geometry, replica share) class of a search resolves
 * once for every (T, share) point in it. T whose shardWidths are
 * equal shard the network into equal layers under different names,
 * so one simulation, one LayerTimings and one cut DP serve them all.
 * Its first point is the geometry's first T, whose network (and
 * name) the class simulates.
 */
struct SearchClass
{
    int geometry = 0; ///< index of its shard geometry
    int share = 1;
    std::vector<int> members; ///< its points, in enumeration order
    int maxStages = 1; ///< largest K any member's candidate asks for
    std::shared_ptr<const partition::LayerTimings> timings;
    /** cuts[K-1]: the best K-way split. */
    std::vector<partition::Partitioner::StageCut> cuts;
    /**
     * Every proper sub-range [first, last] any K cuts, once each, in
     * the order K = 2, 3, ... first names them.
     */
    std::vector<std::pair<int, int>> ranges;
    /**
     * For K ≥ 2, stage s of cut K is ranges[rangeOf[firstStage(K) +
     * s]]. (K = 1 is the whole network: the point's wide run.)
     */
    std::vector<std::uint32_t> rangeOf;
    /** rangesUpTo[K]: the ranges cuts 2..K name, a prefix of ranges. */
    std::vector<std::uint32_t> rangesUpTo;

    /** Where cut K's stages start in rangeOf. */
    static std::size_t firstStage(int k)
    {
        return (std::size_t)k * (k - 1) / 2 - 1;
    }
};

/**
 * What one (T, replica share) point of a search resolves once for
 * every candidate that reads it (every R with that share, every K).
 */
struct SearchPoint
{
    int t = 1, share = 1;
    int cls = 0;        ///< its (geometry, share) class
    int soloPoint = 0;  ///< the (1, share) point: the unsharded run
    int maxStages = 1;  ///< largest K any candidate asks for
    TensorShardResult tensor;
    /** Its stage keys: its class's first rangeCount ranges. */
    std::uint32_t rangeCount = 0;
    std::uint32_t firstRangeId = 0; ///< dense id of its range 0
};

/**
 * One simulation of a class, resolved for every member that needs it.
 * slot(p) is member p's by-id result (empty where its key was not
 * resident), or null where p does not need it. The source is the
 * first resident member's result, else run(), a simulation of the
 * geometry's network under the first member's name. An empty slot
 * gets the source itself at the first member when run() made it, and
 * the source renamed to name(p) everywhere else.
 */
template <typename Slot, typename Name, typename Run>
void
resolveClass(const std::vector<int> &members, Slot &&slot, Name &&name,
             Run &&run)
{
    std::shared_ptr<const npusim::SimResult> source;
    for (const int p : members) {
        const std::shared_ptr<const npusim::SimResult> *own = slot(p);
        if (own && *own) {
            source = *own;
            break;
        }
    }
    const bool fresh = !source;
    if (fresh)
        source = std::make_shared<const npusim::SimResult>(run());
    for (const int p : members) {
        std::shared_ptr<const npusim::SimResult> *own = slot(p);
        if (!own || *own)
            continue;
        *own = fresh && p == members.front()
                   ? source
                   : std::make_shared<const npusim::SimResult>(
                         npusim::SimResult::renamed(source, name(p)));
    }
}

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

    // Each T's shard geometry: T with equal shardWidths shard the
    // network into equal layers, so the geometry's first T stands
    // for all of them.
    network.check();
    std::vector<int> geometry_of(chip_budget);
    std::vector<int> first_t;
    {
        std::map<std::vector<int>, int> geometry_ids;
        for (int t = 1; t <= chip_budget; ++t) {
            const auto [it, fresh] = geometry_ids.try_emplace(
                shardWidths(network, t), (int)first_t.size());
            if (fresh)
                first_t.push_back(t);
            geometry_of[t - 1] = it->second;
        }
    }

    // Degrees a clamp would fold onto an already-enumerated triple
    // are skipped up front: R beyond the batch and K beyond the
    // layer count only duplicate rows (and spam clamp warns). Each
    // (R, T) maps onto its (T, replica share) point, and each point
    // onto its (geometry, share) class; R-major order creates every
    // (1, share) point before any T > 1 reads it, and makes point 0
    // the (1, batch) point: the full-batch solo run.
    const int max_r = std::min(chip_budget, batch);
    const int n = (int)network.layers.size();
    std::vector<Candidate> candidates;
    std::vector<SearchPoint> points;
    std::vector<SearchClass> classes;
    std::map<std::pair<int, int>, int> point_of, class_of;
    for (int r = 1; r <= max_r; ++r) {
        const int share = (batch + r - 1) / r;
        for (int t = 1; r * t <= chip_budget; ++t) {
            const auto [it, fresh] =
                point_of.try_emplace({t, share}, (int)points.size());
            if (fresh) {
                const int g = geometry_of[t - 1];
                const auto [c, new_class] = class_of.try_emplace(
                    {g, share}, (int)classes.size());
                if (new_class) {
                    // A geometry's T form a run, and a share's points
                    // are made in increasing T from 1, so the first T
                    // made in a class is its geometry's first.
                    SUPERNPU_ASSERT(t == first_t[g], "class of T=", t,
                                    " does not start at its geometry");
                    classes.emplace_back();
                    classes.back().geometry = g;
                    classes.back().share = share;
                }
                classes[c->second].members.push_back(it->second);
                SearchPoint point;
                point.t = t;
                point.share = share;
                point.cls = c->second;
                point.soloPoint = point_of.at({1, share});
                points.push_back(std::move(point));
            }
            const int k_limit = std::min(chip_budget / (r * t), n);
            SearchPoint &point = points[it->second];
            point.maxStages = std::max(point.maxStages, k_limit);
            for (int k = 1; k <= k_limit; ++k)
                candidates.push_back(Candidate{r, t, k, it->second});
        }
    }
    for (const SearchPoint &p : points) {
        SearchClass &cls = classes[p.cls];
        cls.maxStages = std::max(cls.maxStages, p.maxStages);
    }

    // Each geometry's network is built (validated by shardNetwork)
    // once, fanned across the pool; every T hashes its own name over
    // its geometry's layers. T = 1 is the input network itself.
    ThreadPool pool(jobs < 0 ? 1 : jobs);
    const std::vector<dnn::Network> shards =
        pool.parallelMap(first_t.size(), [&](std::size_t g) {
            return shardNetwork(network, first_t[g]);
        });
    const std::vector<std::uint64_t> hashes =
        pool.parallelMap(chip_budget, [&](std::size_t i) {
            return npusim::hashNetwork(shardName(network, (int)i + 1),
                                       shards[geometry_of[i]].layers);
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
    /** A class range some member's stage key is not resident for. */
    struct Miss
    {
        int cls;
        std::uint32_t range;
    };
    std::vector<Miss> misses;
    {
        perf::Scope span("planner.derive");
        // Every class's wide simulation, before any point reads
        // another's as its unsharded solo run.
        for (std::size_t i = 0; i < points.size(); ++i)
            keys[i] = simKey(hashes[points[i].t - 1], points[i].share);
        resolved = cache.peek(keys.begin(), keys.end());
        pool.parallelFor(classes.size(), [&](std::size_t c) {
            const SearchClass &cls = classes[c];
            resolveClass(
                cls.members, [&](int p) { return &resolved[p]; },
                [&](int p) { return shardName(network, points[p].t); },
                [&] {
                    return _sharder._sim.run(shards[cls.geometry],
                                             cls.share);
                });
        });
        // Everything else a class's points share: the LayerTimings
        // (a resident member's, else one built now), the cut DP grown
        // to the largest K any member asks for, and the sub-ranges
        // its cuts name. The CutTable lock is taken once per class;
        // afterwards every read of the cuts is lock-free.
        for (std::size_t i = 0; i < points.size(); ++i)
            timing_keys[i] = {hashes[points[i].t - 1], points[i].share};
        const std::vector<std::shared_ptr<const partition::LayerTimings>>
            resident_timings =
                timing_cache.peek(timing_keys.begin(), timing_keys.end());
        pool.parallelFor(classes.size(), [&](std::size_t c) {
            SearchClass &cls = classes[c];
            for (const int p : cls.members) {
                if (!cls.timings)
                    cls.timings = resident_timings[p];
            }
            const int rep = cls.members.front();
            if (!cls.timings)
                cls.timings =
                    std::make_shared<const partition::LayerTimings>(
                        _partitioner.buildTimings(shards[cls.geometry],
                                                  resolved[rep],
                                                  cls.share));
            cls.cuts = partition::Partitioner::cutStages(
                hashes[points[rep].t - 1], *cls.timings, 1,
                cls.maxStages);
            // Number the proper sub-ranges the cuts name, each once.
            cls.rangesUpTo.assign(cls.maxStages + 1, 0);
            if (cls.maxStages == 1)
                return;
            constexpr std::uint32_t kUnseen = ~std::uint32_t(0);
            std::vector<std::uint32_t> range_at(n * n, kUnseen);
            cls.rangeOf.reserve(
                SearchClass::firstStage(cls.maxStages + 1));
            for (int k = 2; k <= cls.maxStages; ++k) {
                const partition::Partitioner::StageCut &cut =
                    cls.cuts[k - 1];
                int first = 0;
                for (int s = 0; s < k; ++s) {
                    const int last = cut.last[s];
                    std::uint32_t &range = range_at[first * n + last];
                    if (range == kUnseen) {
                        range = (std::uint32_t)cls.ranges.size();
                        cls.ranges.emplace_back(first, last);
                    }
                    cls.rangeOf.push_back(range);
                    first = last + 1;
                }
                cls.rangesUpTo[k] = (std::uint32_t)cls.ranges.size();
            }
        });
        // Each point's own books: the TensorShardResult of its T, and
        // how many of its class's ranges its Ks cut.
        pool.parallelFor(points.size(), [&](std::size_t i) {
            SearchPoint &p = points[i];
            p.tensor = _sharder.assemble(network, p.t, p.share,
                                         resolved[i],
                                         resolved[p.soloPoint]);
            p.rangeCount = classes[p.cls].rangesUpTo[p.maxStages];
        });

        // Stage ids follow the wide ids, point by point, each keyed
        // by the point's own network hash; one locked peek says which
        // stage keys are resident.
        for (SearchPoint &p : points) {
            const SearchClass &cls = classes[p.cls];
            p.firstRangeId = (std::uint32_t)keys.size();
            for (std::uint32_t r = 0; r < p.rangeCount; ++r)
                keys.push_back(simKey(
                    partition::Partitioner::stageHash(
                        hashes[p.t - 1], cls.ranges[r].first,
                        cls.ranges[r].second, n),
                    p.share));
        }
        SUPERNPU_ASSERT(keys.size() <= ~std::uint32_t(0),
                        "search has more keys than ids");
        std::vector<std::shared_ptr<const npusim::SimResult>> stages =
            cache.peek(keys.begin() + points.size(), keys.end());
        resolved.reserve(keys.size());
        std::move(stages.begin(), stages.end(),
                  std::back_inserter(resolved));
        for (std::size_t c = 0; c < classes.size(); ++c) {
            const SearchClass &cls = classes[c];
            for (std::uint32_t r = 0; r < cls.ranges.size(); ++r) {
                for (const int m : cls.members) {
                    const SearchPoint &p = points[m];
                    if (r < p.rangeCount &&
                        !resolved[p.firstRangeId + r]) {
                        misses.push_back(Miss{(int)c, r});
                        break;
                    }
                }
            }
        }
    }

    {
        // One runRange per class range, composed from the class's
        // wide run; no lock, as each miss writes only its class's
        // slots of that range.
        perf::Scope span("planner.simulate");
        pool.parallelFor(misses.size(), [&](std::size_t i) {
            const SearchClass &cls = classes[misses[i].cls];
            const std::uint32_t r = misses[i].range;
            const auto [first, last] = cls.ranges[r];
            resolveClass(
                cls.members,
                [&](int m) {
                    const SearchPoint &p = points[m];
                    return r < p.rangeCount
                               ? &resolved[p.firstRangeId + r]
                               : nullptr;
                },
                [&](int m) {
                    return npusim::stageName(
                        shardName(network, points[m].t), first, last, n);
                },
                [&] {
                    return _sharder._sim.runRange(
                        shards[cls.geometry], first, last, cls.share,
                        cls.timings->sim);
                });
        });
    }

    {
        // Every distinct key the search resolved, once each in dense-id
        // order: a hit where it was resident, else stored as a miss.
        // The pass is serial and ordered, so the tallies repeat at any
        // job count.
        perf::Scope span("planner.publish");
        cache.publish(keys, resolved);
        std::vector<std::shared_ptr<const partition::LayerTimings>>
            timings(points.size());
        for (std::size_t i = 0; i < points.size(); ++i)
            timings[i] = classes[points[i].cls].timings;
        timing_cache.publish(timing_keys, timings);
    }

    // Stage s of candidate c: its point's wide run when K = 1, else
    // the class range cut K names for it.
    const auto stage_result = [&](const Candidate &c, int s)
        -> const std::shared_ptr<const npusim::SimResult> & {
        const SearchPoint &p = points[c.point];
        if (c.k == 1)
            return resolved[c.point];
        return resolved[p.firstRangeId +
                        classes[p.cls]
                            .rangeOf[SearchClass::firstStage(c.k) + s]];
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
            const SearchClass &cls = classes[p.cls];
            const std::vector<int> &last = cls.cuts[c.k - 1].last;
            const std::vector<std::uint64_t> &link_cycles =
                cls.timings->linkCycles;
            return foldRow(
                c.r, c.t, c.k, batch, p.tensor, link, gather_bytes,
                [&](int s) {
                    return std::pair{
                        last[s], stage_result(c, s)->totalCycles +
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
    const SearchClass &cls = classes[p.cls];
    search.winner = evaluate(
        network, c.r, c.t, batch,
        Resolved{p.tensor,
                 _partitioner.assemble(
                     shardName(network, c.t), *cls.timings,
                     cls.cuts[c.k - 1], p.share,
                     [&](int s) { return stage_result(c, s); }),
                 resolved[kSoloId]});
    return search;
}

} // namespace sharding
} // namespace supernpu
