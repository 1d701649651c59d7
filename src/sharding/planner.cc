/**
 * @file
 * Hybrid DP×TP×PP planner implementation.
 */

#include "planner.hh"

#include <algorithm>
#include <map>
#include <memory>
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
 * Each stage's in-range TP all-reduce cycles (`reduce_cycles`, per
 * layer) overlay its occupancy, and on_stage(s, collective,
 * occupancy) sees both. The DP gather ships `gather_bytes` when
 * R > 1.
 */
template <typename Stage, typename OnStage>
PlanRow
foldRow(int data_parallel, int tensor_shards, int stages, int batch,
        double frequency_ghz,
        const std::vector<std::uint64_t> &reduce_cycles,
        const partition::LinkConfig &link, std::uint64_t gather_bytes,
        Stage &&stage, OnStage &&on_stage)
{
    PlanRow row;
    row.dataParallel = data_parallel;
    row.tensorShards = tensor_shards;
    row.pipelineStages = stages;
    row.batch = batch;
    row.frequencyGhz = frequency_ghz;

    int first = 0;
    for (int s = 0; s < stages; ++s) {
        const auto [last, occupancy] = stage(s);
        std::uint64_t coll = 0;
        for (int l = first; l <= last; ++l)
            coll = saturatingAdd(coll, reduce_cycles[l]);
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
    if (perf::enabled()) {
        static perf::Counter &evaluations =
            perf::counter("planner.evaluations");
        evaluations.add(1);
    }
    const dnn::Network shard = shardNetwork(network, tensor_shards);
    const std::uint64_t shard_hash = npusim::hashNetwork(shard);
    const std::uint64_t whole_hash = npusim::hashNetwork(network);
    const int share = (batch + data_parallel - 1) / data_parallel;

    // TP geometry and per-layer all-reduce at the replica's share.
    const TensorShardResult tensor = _sharder.shard(
        whole_hash, network, shard_hash, shard, tensor_shards, share);

    ShardPlan plan;
    // PP split of the shard network. The partitioner re-simulates
    // every chosen stage of the shrunk geometry; its cut search
    // does not see the TP overlay (documented approximation).
    plan.pipeline = _partitioner.partition(shard_hash, shard,
                                           pipeline_stages, share);
    plan.link = _sharder.link();
    // DP gather of the full batch's final outputs across replicas.
    if (data_parallel > 1)
        plan.gatherBytes = partition::activationBytes(
            network.layers.back(), batch);
    // Overlay each stage's in-range TP all-reduce cycles onto its
    // occupancy and fold bottleneck/fill over the overlay.
    std::vector<std::uint64_t> reduce_cycles;
    reduce_cycles.reserve(tensor.layers.size());
    for (const ShardLayerTiming &layer : tensor.layers)
        reduce_cycles.push_back(layer.reduceCycles);
    const int k = plan.pipeline.stageCount();
    plan.stageCollectiveCycles.assign(k, 0);
    plan.stageOccupancyCycles.assign(k, 0);
    static_cast<PlanRow &>(plan) = foldRow(
        data_parallel, tensor_shards, k, batch, tensor.frequencyGhz,
        reduce_cycles, plan.link, plan.gatherBytes,
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
    plan.replicaShare = share;
    plan.tensorCollectiveBytes = tensor.collectiveBytes;
    // The documented baseline is the FULL batch on one chip; the
    // tensor result's solo ran at the replica share, which for R>1
    // is a smaller problem. Cache-hit for R=1 (share == batch).
    const auto solo = _sharder.simulate(whole_hash, network, batch);
    plan.soloCycles = solo->totalCycles;
    plan.macOpsPerBatch = solo->macOps;
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
 * and the simulator prices a layer from its shape alone, so one
 * simulation, one LayerTimings and one cut DP serve them all.
 */
struct SearchClass
{
    int geometry = 0; ///< index of its shard geometry
    int share = 1;
    int maxStages = 1; ///< largest K any member's candidate asks for
    double frequencyGhz = 0.0;
    /**
     * Stage s of the best K-way split is stages[stageIndex(K, s)]:
     * its last layer and the cycles it occupies (simulated cycles
     * plus its outbound link) before the TP overlay.
     */
    std::vector<std::pair<int, std::uint64_t>> stages;

    static std::size_t stageIndex(int k, int s)
    {
        return (std::size_t)k * (k - 1) / 2 + s;
    }
};

/**
 * What one (T, replica share) point of a search resolves once for
 * every candidate that reads it (every R with that share, every K):
 * its class, and what differs by T within the class.
 */
struct SearchPoint
{
    int t = 1, share = 1;
    int cls = 0; ///< its (geometry, share) class
    /** TP all-reduce cycles after each layer. */
    std::vector<std::uint64_t> reduceCycles;
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
    // onto its (geometry, share) class.
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
                    classes.emplace_back();
                    classes.back().geometry = g;
                    classes.back().share = share;
                }
                SearchPoint point;
                point.t = t;
                point.share = share;
                point.cls = c->second;
                points.push_back(std::move(point));
            }
            const int k_limit = std::min(chip_budget / (r * t), n);
            SearchClass &cls = classes[points[it->second].cls];
            cls.maxStages = std::max(cls.maxStages, k_limit);
            for (int k = 1; k <= k_limit; ++k)
                candidates.push_back(Candidate{r, t, k, it->second});
        }
    }

    // Each geometry's network is built (validated by shardNetwork)
    // once, fanned across the pool. T = 1 is the input network
    // itself.
    ThreadPool pool(jobs < 0 ? 1 : jobs);
    const std::vector<dnn::Network> shards =
        pool.parallelMap(first_t.size(), [&](std::size_t g) {
            return shardNetwork(network, first_t[g]);
        });

    {
        // Per class, with no lock and no cache: the wide simulation,
        // the LayerTimings, the cut DP grown to the largest K any
        // member asks for, and one runRange per distinct stage range
        // its cuts name. Only each stage's last layer and occupancy
        // outlive the task.
        perf::Scope span("planner.derive");
        pool.parallelFor(classes.size(), [&](std::size_t c) {
            SearchClass &cls = classes[c];
            const dnn::Network &shard = shards[cls.geometry];
            const auto wide = std::make_shared<const npusim::SimResult>(
                _sharder._sim.run(shard, cls.share));
            const partition::LayerTimings timings =
                _partitioner.buildTimings(shard, wide, cls.share);
            const std::vector<std::vector<int>> cuts =
                partition::Partitioner::cutStages(timings, 1,
                                                  cls.maxStages);
            cls.frequencyGhz = wide->frequencyGhz;
            // Simulated cycles of range [first, last] at
            // cycles[first * n + last], run at the first cut that
            // names the range; the whole range is the wide run.
            constexpr std::uint64_t kUnseen = ~std::uint64_t(0);
            std::vector<std::uint64_t> cycles(n * n, kUnseen);
            cycles[n - 1] = wide->totalCycles;
            cls.stages.reserve(
                SearchClass::stageIndex(cls.maxStages + 1, 0));
            for (const std::vector<int> &cut : cuts) {
                int first = 0;
                for (const int last : cut) {
                    std::uint64_t &range = cycles[first * n + last];
                    if (range == kUnseen)
                        range = _sharder._sim
                                    .runRange(shard, first, last,
                                              cls.share, wide)
                                    .totalCycles;
                    cls.stages.emplace_back(
                        last, range + timings.linkCycles[last]);
                    first = last + 1;
                }
            }
        });
        // Each point's own TP all-reduce cycles at its share.
        pool.parallelFor(points.size(), [&](std::size_t i) {
            SearchPoint &p = points[i];
            p.reduceCycles = _sharder.reduceCycles(
                network, p.t, p.share, classes[p.cls].frequencyGhz);
        });
    }

    // Every candidate's row from the read-only class and point books,
    // in slot order.
    const std::uint64_t gather_bytes =
        partition::activationBytes(network.layers.back(), batch);
    const partition::LinkConfig &link = _sharder.link();
    search.evaluated =
        pool.parallelMap(candidates.size(), [&](std::size_t i) {
            perf::Scope span("planner.evaluate");
            const Candidate &c = candidates[i];
            const SearchPoint &p = points[c.point];
            const SearchClass &cls = classes[p.cls];
            return foldRow(
                c.r, c.t, c.k, batch, cls.frequencyGhz, p.reduceCycles,
                link, gather_bytes,
                [&](int s) {
                    return cls.stages[SearchClass::stageIndex(c.k, s)];
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

    // The winner's full plan, through the caches: its stages are the
    // only results the search leaves behind.
    const Candidate &c = candidates[search.bestIndex];
    search.winner = evaluate(network, c.r, c.t, c.k, batch);
    return search;
}

} // namespace sharding
} // namespace supernpu
