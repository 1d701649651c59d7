/**
 * @file
 * Hybrid DP×TP×PP planner implementation.
 */

#include "planner.hh"

#include <algorithm>
#include <memory>
#include <numeric>
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
 * One (shard geometry, replica share) class of a search: what its
 * task resolves once for every (T, share) point in it. T whose
 * shardWidths are equal shard the network into equal layers under
 * different names, and the simulator prices a layer from its shape
 * alone, so one simulation, one LayerTimings and one cut DP serve
 * them all.
 */
struct SearchClass
{
    int geometry = 0;   ///< index of its shard geometry
    int shareIndex = 0; ///< its replica share in the search's shares
    int maxStages = 1;  ///< largest K any member's candidate asks for
};

/** Where stage s of the K-way split sits in a flat list of cuts. */
std::size_t
stageIndex(int k, int s)
{
    return (std::size_t)k * (k - 1) / 2 + s;
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

    const int n = (int)network.layers.size();
    std::vector<int> first_t; ///< each shard geometry's first T
    std::vector<int> shares;  ///< distinct replica shares, R order
    /** Points of share s: [share_points[s], share_points[s + 1]). */
    std::vector<int> share_points;
    std::vector<SearchClass> classes;
    /** Points of class c: [class_points[c], class_points[c + 1]). */
    std::vector<int> class_points;
    std::vector<Candidate> candidates;
    /**
     * Candidates of point p, in enumeration order: the slots
     * point_slots[j] for j in [point_first[p], point_first[p + 1]).
     */
    std::vector<int> point_first(1, 0), point_slots;
    {
        perf::Scope span("planner.enumerate");
        network.check();

        // Each T's shard geometry. ceil(C/T) never grows with T, so
        // the T with equal shardWidths are contiguous: a T whose
        // widths equal T-1's shares its geometry, and the geometry's
        // first T stands for all of them.
        std::vector<int> geometry_of(chip_budget);
        std::vector<int> widths, prev_widths;
        for (int t = 1; t <= chip_budget; ++t) {
            widths = shardWidths(network, t);
            if (t == 1 || widths != prev_widths)
                first_t.push_back(t);
            geometry_of[t - 1] = (int)first_t.size() - 1;
            prev_widths.swap(widths);
        }

        // Degrees a clamp would fold onto an already-enumerated triple
        // are skipped up front: R beyond the batch and K beyond the
        // layer count only duplicate rows (and spam clamp warns). The
        // share ceil(batch/R) never grows with R either, so a share's
        // points are all made at its first R, which reaches the most
        // T: (T, share) is point share_points[s] + T - 1, and its
        // class is the share's first class plus T's geometry. As
        // geometries number in T order, a class's points are a
        // contiguous run of its share's.
        const int max_r = std::min(chip_budget, batch);
        int points = 0, class_base = 0;
        for (int r = 1; r <= max_r; ++r) {
            const int share = (batch + r - 1) / r;
            const int t_max = chip_budget / r;
            if (shares.empty() || share != shares.back()) {
                shares.push_back(share);
                share_points.push_back(points);
                class_base = (int)classes.size();
                for (int t = 1; t <= t_max; ++t, ++points) {
                    const int g = geometry_of[t - 1];
                    if (class_base + g == (int)classes.size()) {
                        classes.push_back(
                            SearchClass{g, (int)shares.size() - 1, 1});
                        class_points.push_back(points);
                    }
                }
                point_first.resize(points + 1, 0);
            }
            for (int t = 1; t <= t_max; ++t) {
                const int p = share_points.back() + t - 1;
                const int k_limit = std::min(chip_budget / (r * t), n);
                SearchClass &cls = classes[class_base + geometry_of[t - 1]];
                cls.maxStages = std::max(cls.maxStages, k_limit);
                point_first[p + 1] += k_limit;
                for (int k = 1; k <= k_limit; ++k)
                    candidates.push_back(Candidate{r, t, k, p});
            }
        }
        share_points.push_back(points);
        class_points.push_back(points);

        // Each point's candidate slots, by a counting sort of the
        // enumeration: a class task finds its rows by point.
        std::partial_sum(point_first.begin(), point_first.end(),
                         point_first.begin());
        std::vector<int> next(point_first.begin(), point_first.end() - 1);
        point_slots.resize(candidates.size());
        for (int i = 0; i < (int)candidates.size(); ++i)
            point_slots[next[candidates[i].point]++] = i;
    }

    ThreadPool pool(jobs < 0 ? 1 : jobs);
    const std::uint64_t gather_bytes =
        partition::activationBytes(network.layers.back(), batch);
    const partition::LinkConfig &link = _sharder.link();
    search.evaluated.resize(candidates.size());
    {
        // With no lock and no cache: each geometry's network (T = 1
        // is the input network itself) and each share's all-reduce
        // bytes, which depend on the share alone; then per class the
        // wide simulation, the LayerTimings, the cut DP grown to the
        // largest K any member asks for, and one cold head per
        // distinct first layer its cuts name. The class task then
        // folds every row its points' candidates read, so only the
        // rows outlive it.
        perf::Scope span("planner.derive");
        const std::vector<dnn::Network> shards =
            pool.parallelMap(first_t.size(), [&](std::size_t g) {
                return shardNetwork(network, first_t[g]);
            });
        const std::vector<std::vector<std::uint64_t>> share_bytes =
            pool.parallelMap(shares.size(), [&](std::size_t s) {
                return share_points[s + 1] - share_points[s] > 1
                           ? TensorSharder::reduceBytes(network, shares[s])
                           : std::vector<std::uint64_t>(n, 0);
            });
        const npusim::NpuSimulator &sim = _sharder._sim;
        pool.parallelFor(classes.size(), [&](std::size_t c) {
            const SearchClass &cls = classes[c];
            const int share = shares[cls.shareIndex];
            const dnn::Network &shard = shards[cls.geometry];
            const auto wide = std::make_shared<const npusim::SimResult>(
                sim.run(shard, share));
            const double frequency_ghz = wide->frequencyGhz;
            const partition::LayerTimings timings =
                _partitioner.buildTimings(shard, wide, share);
            const std::vector<std::vector<int>> cuts =
                partition::Partitioner::cutStages(timings, 1,
                                                  cls.maxStages);
            // Stage s of the best K-way split is
            // stages[stageIndex(K, s)]: its last layer and the cycles
            // it occupies (its cold head plus the wide run's later
            // layers, and its outbound link) before the TP overlay.
            // Head cycles of a stage starting at each layer are
            // simulated at the first cut that names it; layer 0's is
            // the wide run's own.
            std::vector<std::pair<int, std::uint64_t>> stages;
            stages.reserve(stageIndex(cls.maxStages + 1, 0));
            std::vector<std::uint64_t> head(n, 0);
            std::vector<bool> known(n, false);
            head[0] = wide->layers()[0].totalCycles();
            known[0] = true;
            for (const std::vector<int> &cut : cuts) {
                int first = 0;
                for (const int last : cut) {
                    if (!known[first]) {
                        head[first] =
                            sim.coldHead(shard, first, share)
                                .totalCycles();
                        known[first] = true;
                    }
                    stages.emplace_back(
                        last, timings.stageCycles(first, last,
                                                  head[first]) +
                                  timings.linkCycles[last]);
                    first = last + 1;
                }
            }

            // Every row of the class, into its own slot: per point,
            // what differs by T within the class (its per-layer TP
            // all-reduce cycles), folded with the stages of each
            // candidate's cut K.
            perf::Scope fold_span("planner.evaluate");
            for (int p = class_points[c]; p < class_points[c + 1]; ++p) {
                const int t = p - share_points[cls.shareIndex] + 1;
                const std::vector<std::uint64_t> reduce_cycles =
                    _sharder.reduceCycles(share_bytes[cls.shareIndex], t,
                                          frequency_ghz);
                for (int j = point_first[p]; j < point_first[p + 1]; ++j) {
                    const Candidate &cand = candidates[point_slots[j]];
                    search.evaluated[point_slots[j]] = foldRow(
                        cand.r, t, cand.k, batch, frequency_ghz,
                        reduce_cycles, link, gather_bytes,
                        [&](int s) {
                            return stages[stageIndex(cand.k, s)];
                        },
                        [](int, std::uint64_t, std::uint64_t) {});
                }
            }
        });
    }
    if (perf::enabled()) {
        static perf::Counter &candidates_counter =
            perf::counter("planner.candidates");
        candidates_counter.add(candidates.size());
    }

    perf::Scope span("planner.winner");
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
