/**
 * @file
 * Tests for the sharding subsystem: ring-collective closed forms and
 * their saturation discipline, shard-network geometry, the degree-1
 * byte-identity guarantees (same cache entry, byte-identical
 * ledgers), hybrid-planner search determinism, conservation audits
 * (including that cooked books are caught), and the serving layer's
 * data-parallel replica groups.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/hash.hh"
#include "dnn/layer.hh"
#include "dnn/networks.hh"
#include "dnn/parser.hh"
#include "estimator/npu_estimator.hh"
#include "npusim/batch.hh"
#include "npusim/explorer.hh"
#include "npusim/sim.hh"
#include "npusim/sim_cache.hh"
#include "obs/audit.hh"
#include "obs/ledger.hh"
#include "partition/link_model.hh"
#include "partition/partitioner.hh"
#include "perf/profile.hh"
#include "serving/simulator.hh"
#include "sharding/collective.hh"
#include "sharding/planner.hh"
#include "sharding/tensor_shard.hh"

namespace supernpu {
namespace sharding {
namespace {

constexpr std::uint64_t kMax =
    std::numeric_limits<std::uint64_t>::max();

/** The test link: round numbers so closed forms are easy to check. */
partition::LinkConfig
testLink()
{
    partition::LinkConfig link;
    link.bandwidthGBps = 100.0;
    link.latencyCycles = 10;
    return link;
}

// --- collective closed forms -----------------------------------------

TEST(Collective, RingAllReduceMatchesTheClosedForm)
{
    const partition::LinkConfig link = testLink();
    // bytes divisible by K so the ceil is exact: chunk = bytes/K,
    // steps = 2(K-1), wire = steps * chunk, cycles = steps * latency
    // + ceil(wire * freq / bw).
    for (int k : {2, 4, 8}) {
        const std::uint64_t bytes = 8000;
        const CollectiveCost cost =
            allReduceCost(link, k, bytes, 50.0);
        const std::uint64_t steps = 2u * ((std::uint64_t)k - 1);
        const std::uint64_t wire = steps * (bytes / (std::uint64_t)k);
        EXPECT_EQ(cost.steps, steps) << "K=" << k;
        EXPECT_EQ(cost.wireBytes, wire) << "K=" << k;
        // 100 GB/s at 50 GHz: 2 bytes per cycle, and wire is even.
        EXPECT_EQ(cost.cycles, steps * 10u + wire / 2u) << "K=" << k;
    }
}

TEST(Collective, RingAllGatherAndScatterMoveHalfTheAllReduce)
{
    const partition::LinkConfig link = testLink();
    for (int k : {2, 4, 8}) {
        const std::uint64_t bytes = 8000;
        const CollectiveCost gather =
            allGatherCost(link, k, bytes, 50.0);
        const CollectiveCost scatter =
            scatterCost(link, k, bytes, 50.0);
        const CollectiveCost reduce =
            allReduceCost(link, k, bytes, 50.0);
        EXPECT_EQ(gather.steps, (std::uint64_t)k - 1);
        EXPECT_EQ(gather.wireBytes, reduce.wireBytes / 2u);
        EXPECT_EQ(gather.cycles, reduce.cycles / 2u);
        // Scatter is the all-gather volume in reverse.
        EXPECT_EQ(scatter.steps, gather.steps);
        EXPECT_EQ(scatter.wireBytes, gather.wireBytes);
        EXPECT_EQ(scatter.cycles, gather.cycles);
    }
}

TEST(Collective, SingleChipCollectivesAreFree)
{
    const partition::LinkConfig link = testLink();
    for (const CollectiveCost &cost :
         {allReduceCost(link, 1, 1 << 20, 50.0),
          allGatherCost(link, 1, 1 << 20, 50.0),
          scatterCost(link, 1, 1 << 20, 50.0),
          allReduceCost(link, 4, 0, 50.0)}) {
        EXPECT_EQ(cost.steps, 0u);
        EXPECT_EQ(cost.wireBytes, 0u);
        EXPECT_EQ(cost.cycles, 0u);
    }
}

TEST(Collective, ParserUnboundedTensorsSaturateInsteadOfWrapping)
{
    const partition::LinkConfig link = testLink();
    // A UINT64_MAX-sized tensor: 2(K-1) chunks of ~kMax/K bytes
    // overflow the wire-volume product, which must pin to kMax. At
    // 200 GHz the wire alone costs 2 cycles per byte, so the cycle
    // count overflows too and must pin rather than wrap.
    const CollectiveCost cost = allReduceCost(link, 4, kMax, 200.0);
    EXPECT_EQ(cost.wireBytes, kMax);
    EXPECT_EQ(cost.cycles, kMax);
}

TEST(Collective, SaturationWarnsOncePerBoundary)
{
    const partition::LinkConfig link = testLink();
    // Trip the same saturating boundary twice: the dedup in
    // partition::guardedBytes may add at most one new warning for
    // it (zero if an earlier test already tripped it).
    const std::size_t before = partition::saturationWarningCount();
    (void)allGatherCost(link, 8, kMax, 50.0);
    const std::size_t after_first = partition::saturationWarningCount();
    (void)allGatherCost(link, 8, kMax, 50.0);
    EXPECT_LE(after_first - before, 1u);
    EXPECT_EQ(partition::saturationWarningCount(), after_first);
}

TEST(Collective, ActivationSaturationDedupsByLayerAndBatch)
{
    // A distinct layer name makes the boundary context fresh, so the
    // first call must warn exactly once and the repeat must not.
    const dnn::Layer layer =
        dnn::conv("shard-dedup-probe", 1, 100000, 2000000000, 1, 1, 0);
    const std::size_t before = partition::saturationWarningCount();
    EXPECT_EQ(partition::activationBytes(layer, 7), kMax);
    EXPECT_EQ(partition::saturationWarningCount(), before + 1);
    EXPECT_EQ(partition::activationBytes(layer, 7), kMax);
    EXPECT_EQ(partition::saturationWarningCount(), before + 1);
}

TEST(Sharding, SaturatingAddClampsAtTheCeiling)
{
    EXPECT_EQ(saturatingAdd(2, 3), 5u);
    EXPECT_EQ(saturatingAdd(kMax, 1), kMax);
    EXPECT_EQ(saturatingAdd(kMax - 1, 5), kMax);
}

// --- shard geometry --------------------------------------------------

TEST(ShardNetwork, SplitsOfmapChannelsByTheCeilShare)
{
    dnn::Network net;
    net.name = "GeomTest";
    net.layers = {dnn::conv("c1", 3, 32, 30, 3, 1, 1),
                  dnn::conv("c2", 30, 32, 7, 3, 1, 1)};
    net.check();

    const dnn::Network four = shardNetwork(net, 4);
    EXPECT_EQ(four.name, "GeomTest/tp4");
    ASSERT_EQ(four.layers.size(), 2u);
    // 30 channels over 4 shards: the widest holds ceil(30/4) = 8.
    EXPECT_EQ(four.layers[0].outChannels, 8);
    // Input channels stay full: every shard reads the whole ifmap.
    EXPECT_EQ(four.layers[0].inChannels, 3);
    // 7 over 4: widest share 2 — narrow layers leave chips idle but
    // still shrink.
    EXPECT_EQ(four.layers[1].outChannels, 2);
    // What the planner groups degrees by, without the network.
    EXPECT_EQ(shardName(net, 4), four.name);
    EXPECT_EQ(shardWidths(net, 4), (std::vector<int>{8, 2}));
    EXPECT_EQ(shardName(net, 1), net.name);
    EXPECT_EQ(shardWidths(net, 1), (std::vector<int>{30, 7}));
}

TEST(ShardNetwork, DepthwiseShardsBothChannelDims)
{
    dnn::Network net;
    net.name = "DwTest";
    net.layers = {dnn::conv("c1", 3, 32, 32, 3, 1, 1),
                  dnn::depthwise("dw", 32, 32, 1)};
    net.check();

    const dnn::Network two = shardNetwork(net, 2);
    // The mapper requires in == out for depthwise layers, so the
    // shard shrinks both sides together.
    EXPECT_EQ(two.layers[1].outChannels, 16);
    EXPECT_EQ(two.layers[1].inChannels, 16);
}

TEST(ShardNetwork, DegreeOneReturnsTheOriginalObject)
{
    const dnn::Network net = dnn::makeMobileNet();
    const dnn::Network same = shardNetwork(net, 1);
    // Same name, same geometry — the cache key cannot change.
    EXPECT_EQ(same.name, net.name);
    ASSERT_EQ(same.layers.size(), net.layers.size());
    for (std::size_t l = 0; l < net.layers.size(); ++l) {
        EXPECT_EQ(same.layers[l].outChannels,
                  net.layers[l].outChannels);
        EXPECT_EQ(same.layers[l].inChannels, net.layers[l].inChannels);
    }
}

// --- fixture ---------------------------------------------------------

/** Shared design point + a cheap four-conv network. */
class ShardingFixture : public ::testing::Test
{
  protected:
    ShardingFixture()
        : net(dnn::parseNetwork("network ShardTest\n"
                                "conv c1  3 32 16 3 1 1\n"
                                "conv c2 16 32 32 3 1 1\n"
                                "conv c3 32 16 32 3 1 1\n"
                                "conv c4 32 16 16 3 1 1\n")),
          config(estimator::NpuConfig::superNpu()),
          estimate(estimator::NpuEstimator(lib).estimate(config)),
          batch(npusim::maxBatch(config, estimate, net))
    {
    }

    sfq::DeviceConfig dev;
    sfq::CellLibrary lib{dev};
    dnn::Network net;
    estimator::NpuConfig config;
    estimator::NpuEstimate estimate;
    int batch;
    npusim::SimCache cache;
};

// --- degree-1 identity -----------------------------------------------

TEST_F(ShardingFixture, SingleShardSharesTheSingleChipCacheEntry)
{
    TensorSharder sharder(estimate, testLink(), &cache);
    const TensorShardResult one = sharder.shard(net, 1, batch);
    EXPECT_EQ(one.collectiveCycles, 0u);
    EXPECT_EQ(one.collectiveBytes, 0u);
    EXPECT_EQ(one.totalCycles, one.soloCycles);

    // The strong form: T=1 simulated the ORIGINAL network, so the
    // cache hands back the very same SimResult object the direct
    // single-chip path gets — byte-identical ledgers follow.
    npusim::NpuSimulator sim(estimate);
    const auto direct = cache.getOrRun(sim, net, batch);
    EXPECT_EQ(one.wideSim.get(), direct.get());

    obs::RunLedger sharded, reference;
    obs::addSimResult(sharded, *one.wideSim);
    obs::addSimResult(reference, *direct);
    EXPECT_EQ(sharded.json(), reference.json());
}

TEST_F(ShardingFixture, DegreeOnePlanReproducesTheSingleChipRun)
{
    HybridPlanner planner(estimate, testLink(), &cache);
    const ShardPlan plan = planner.evaluate(net, 1, 1, 1, batch);
    EXPECT_EQ(plan.chips(), 1);
    EXPECT_EQ(plan.replicaShare, batch);
    EXPECT_EQ(plan.tensorCollectiveCycles, 0u);
    EXPECT_EQ(plan.gatherCycles, 0u);
    EXPECT_EQ(plan.gatherBytes, 0u);
    EXPECT_EQ(plan.intervalCycles, plan.soloCycles);
    EXPECT_EQ(plan.latencyCycles, plan.soloCycles);

    npusim::NpuSimulator sim(estimate);
    const auto direct = cache.getOrRun(sim, net, batch);
    EXPECT_EQ(plan.soloCycles, direct->totalCycles);
}

TEST_F(ShardingFixture, SingleReplicaSharesTheSingleChipCacheEntry)
{
    // R=1 runs the whole batch on one replica of the original network,
    // so its one stage holds the very SimResult the direct single-chip
    // path gets from the cache.
    HybridPlanner planner(estimate, testLink(), &cache);
    const ShardPlan one = planner.evaluate(net, 1, 1, 1, batch);
    EXPECT_EQ(one.replicaShare, batch);
    EXPECT_EQ(one.gatherBytes, 0u);

    npusim::NpuSimulator sim(estimate);
    const auto direct = cache.getOrRun(sim, net, batch);
    ASSERT_EQ(one.pipeline.stageCount(), 1);
    EXPECT_EQ(one.pipeline.stages[0].sim.get(), direct.get());

    obs::RunLedger replicated, reference;
    obs::addSimResult(replicated, *one.pipeline.stages[0].sim);
    obs::addSimResult(reference, *direct);
    EXPECT_EQ(replicated.json(), reference.json());
}

// --- sharded runs and audits -----------------------------------------

TEST_F(ShardingFixture, TensorShardResultPassesTheAudit)
{
    TensorSharder sharder(estimate, testLink(), &cache);
    for (int t : {1, 2, 4}) {
        const TensorShardResult result = sharder.shard(net, t, batch);
        const obs::AuditReport audit = obs::auditSharding(result);
        EXPECT_TRUE(audit.ok()) << "T=" << t << "\n" << audit.summary();
        EXPECT_LE(result.speedup(), (double)t + 1e-9);
        if (t > 1) {
            EXPECT_GT(result.collectiveCycles, 0u);
            // Every layer all-reduces its full ofmap.
            for (const auto &layer : result.layers)
                EXPECT_GT(layer.reduceBytes, 0u);
        }
    }
}

TEST_F(ShardingFixture, DataParallelPlanPassesTheAudit)
{
    HybridPlanner planner(estimate, testLink(), &cache);
    for (int r : {1, 2, 4}) {
        const ShardPlan plan = planner.evaluate(net, r, 1, 1, batch);
        const obs::AuditReport audit = obs::auditSharding(plan);
        EXPECT_TRUE(audit.ok()) << "R=" << r << "\n" << audit.summary();
        EXPECT_LE(plan.speedup(), (double)r + 1e-9);
        EXPECT_EQ(plan.replicaShare, (batch + r - 1) / r);
    }
}

TEST_F(ShardingFixture, ReplicasClampToTheBatch)
{
    HybridPlanner planner(estimate, testLink(), &cache);
    const ShardPlan tiny = planner.evaluate(net, 64, 1, 1, 3);
    EXPECT_EQ(tiny.dataParallel, 3);
    EXPECT_EQ(tiny.replicaShare, 1);
}

TEST_F(ShardingFixture, AuditCatchesCookedShardBooks)
{
    TensorSharder sharder(estimate, testLink(), &cache);
    TensorShardResult cooked = sharder.shard(net, 2, batch);
    cooked.totalCycles -= 1; // books no longer balance
    EXPECT_FALSE(obs::auditSharding(cooked).ok());

    HybridPlanner planner(estimate, testLink(), &cache);
    ShardPlan inflated = planner.evaluate(net, 2, 1, 1, batch);
    ASSERT_TRUE(obs::auditSharding(inflated).ok());
    inflated.batch *= 2; // claims images its replicas never ran
    EXPECT_FALSE(obs::auditSharding(inflated).ok());
}

TEST_F(ShardingFixture, AuditCatchesACookedPlan)
{
    HybridPlanner planner(estimate, testLink(), &cache);
    ShardPlan plan = planner.evaluate(net, 2, 1, 2, batch);
    ASSERT_TRUE(obs::auditSharding(plan).ok());
    plan.intervalCycles /= 2; // faster than the bottleneck allows
    EXPECT_FALSE(obs::auditSharding(plan).ok());
}

// --- superlinear tensor sharding (fuzz-discovered) -------------------

/**
 * The minimal case `supernpu check --seed 9` shrank to: a 36-feature
 * FC layer on a 32-wide array needs two weight mappings solo but
 * only one per T=2 shard, so each shard streams the ifmap once where
 * the solo run streamed it twice — the group legitimately beats 2x.
 */
class SuperlinearFixture : public ::testing::Test
{
  protected:
    SuperlinearFixture()
        : config(npusim::DesignSpaceExplorer::makeConfig(
              32, 16, 1, 50)),
          estimate(estimator::NpuEstimator(lib).estimate(config))
    {
        net.name = "Superlinear";
        net.layers.push_back(
            dnn::fullyConnected("f1", 3 * 8 * 8, 36));
        net.check();
    }

    sfq::DeviceConfig dev;
    sfq::CellLibrary lib{dev};
    estimator::NpuConfig config;
    estimator::NpuEstimate estimate;
    dnn::Network net;
    npusim::SimCache cache;
};

TEST_F(SuperlinearFixture, MappingQuantizationBeatsLinearSpeedup)
{
    TensorSharder sharder(estimate, testLink(), &cache);
    const TensorShardResult two = sharder.shard(net, 2, 1);
    EXPECT_GT(two.speedup(), 2.0);
    EXPECT_GT(two.peakMacPerSec, 0.0);
    const obs::AuditReport tensor_audit = obs::auditSharding(two);
    EXPECT_TRUE(tensor_audit.ok()) << tensor_audit.summary();

    HybridPlanner planner(estimate, testLink(), &cache);
    const ShardPlan plan = planner.evaluate(net, 1, 2, 1, 1);
    EXPECT_GT(plan.speedup(), 2.0);
    const obs::AuditReport plan_audit = obs::auditSharding(plan);
    EXPECT_TRUE(plan_audit.ok()) << plan_audit.summary();
}

TEST_F(SuperlinearFixture, MacThroughputCeilingStillCatchesCookedBooks)
{
    // The speedup bound is gone; the replacement conservation law —
    // a group can't beat chips() x per-chip peak MAC rate — must
    // still have teeth against inflated MAC books.
    TensorSharder sharder(estimate, testLink(), &cache);
    TensorShardResult two = sharder.shard(net, 2, 1);
    two.macOpsPerBatch *= 1000000;
    EXPECT_FALSE(obs::auditSharding(two).ok());

    HybridPlanner planner(estimate, testLink(), &cache);
    ShardPlan plan = planner.evaluate(net, 1, 2, 1, 1);
    plan.macOpsPerBatch *= 1000000;
    EXPECT_FALSE(obs::auditSharding(plan).ok());
}

// --- planner ---------------------------------------------------------

TEST_F(ShardingFixture, PlanBaselineIsTheFullBatchSoloRun)
{
    ASSERT_GE(batch, 2);
    HybridPlanner planner(estimate, testLink(), &cache);
    const ShardPlan plan = planner.evaluate(net, 2, 1, 1, batch);

    // The baseline is the FULL batch on one chip, not the replica
    // share: a pure-DP plan's speedup and group MAC/s are measured
    // against it (regression: both were taken at ceil(batch/R), so
    // DP plans reported ~1x and ~1/R of their true MAC/s).
    npusim::NpuSimulator sim(estimate);
    const auto direct = cache.getOrRun(sim, net, batch);
    EXPECT_EQ(plan.soloCycles, direct->totalCycles);
    EXPECT_EQ(plan.macOpsPerBatch, direct->macOps);
    EXPECT_GT(plan.speedup(), 1.0);

    const obs::AuditReport audit = obs::auditSharding(plan);
    EXPECT_TRUE(audit.ok()) << audit.summary();
}

TEST_F(ShardingFixture, PlannerEnumeratesTheWholeBudget)
{
    HybridPlanner planner(estimate, testLink(), &cache);
    const PlanSearch search =
        planner.plan(net, 4, batch, PlanObjective::Throughput);
    EXPECT_EQ(search.chipBudget, 4);
    EXPECT_FALSE(search.evaluated.empty());
    // A row carries no books to audit: audit the full plan of its
    // triple, and the winner the search built.
    for (const PlanRow &row : search.evaluated) {
        EXPECT_LE(row.chips(), 4);
        const obs::AuditReport audit = obs::auditSharding(
            planner.evaluate(net, row.dataParallel, row.tensorShards,
                             row.pipelineStages, batch));
        EXPECT_TRUE(audit.ok()) << audit.summary();
    }
    const obs::AuditReport best_audit =
        obs::auditSharding(search.best());
    EXPECT_TRUE(best_audit.ok()) << best_audit.summary();
    // The single-chip factorization is always in the space, so the
    // winner can never be worse than it.
    const ShardPlan solo = planner.evaluate(net, 1, 1, 1, batch);
    EXPECT_GE(search.best().throughput(), solo.throughput());

    const PlanSearch latency =
        planner.plan(net, 4, batch, PlanObjective::Latency);
    EXPECT_LE(latency.best().latencySec(), solo.latencySec());
}

TEST_F(ShardingFixture, PlansAreDeterministicAcrossFreshCaches)
{
    const auto fingerprint = [&]() {
        npusim::SimCache fresh;
        HybridPlanner planner(estimate, testLink(), &fresh);
        obs::RunLedger ledger;
        obs::addShardPlan(
            ledger,
            planner.plan(net, 4, batch, PlanObjective::Throughput)
                .best());
        return ledger.json();
    };
    EXPECT_EQ(fingerprint(), fingerprint());
}

TEST_F(ShardingFixture, ParallelPlanIsByteIdenticalToSerial)
{
    // One cold-cache sweep at a given job count: every evaluated
    // plan's books, the winner, and both caches' tallies.
    struct Sweep
    {
        std::string bytes;
        npusim::SimCacheStats sim;
        partition::LayerTimingCacheStats timings;
    };
    const auto sweep = [&](int jobs) {
        npusim::SimCache fresh;
        HybridPlanner planner(estimate, testLink(), &fresh);
        const PlanSearch search = planner.plan(
            net, 4, batch, PlanObjective::Throughput, jobs);
        std::ostringstream out;
        out.precision(17);
        out << search.bestIndex << '\n';
        for (const PlanRow &plan : search.evaluated) {
            out << plan.dataParallel << ' ' << plan.tensorShards
                << ' ' << plan.pipelineStages << ' '
                << plan.intervalCycles << ' ' << plan.latencyCycles
                << ' ' << plan.tensorCollectiveCycles << ' '
                << plan.gatherCycles << ' ' << plan.throughput()
                << '\n';
        }
        obs::RunLedger ledger;
        obs::addShardPlan(ledger, search.best());
        out << ledger.json();
        return Sweep{out.str(), fresh.stats(),
                     planner.timingCacheStats()};
    };

    const Sweep serial = sweep(1);
    EXPECT_FALSE(serial.bytes.empty());
    for (int jobs : {2, 8}) {
        const Sweep parallel = sweep(jobs);
        EXPECT_EQ(parallel.bytes, serial.bytes) << "jobs " << jobs;
        // Single-flight accounting: the fan-out must not change what
        // either cache counts, or the byte-compared shard ledgers
        // (which embed these tallies) would differ across --jobs.
        EXPECT_EQ(parallel.sim.hits, serial.sim.hits);
        EXPECT_EQ(parallel.sim.misses, serial.sim.misses);
        EXPECT_EQ(parallel.timings.hits, serial.timings.hits);
        EXPECT_EQ(parallel.timings.misses, serial.timings.misses);
    }
}

/** Every PlanRow field, and what its accessors derive, bit for bit. */
void
expectSameRow(const PlanRow &a, const PlanRow &b)
{
    EXPECT_EQ(a.dataParallel, b.dataParallel);
    EXPECT_EQ(a.tensorShards, b.tensorShards);
    EXPECT_EQ(a.pipelineStages, b.pipelineStages);
    EXPECT_EQ(a.batch, b.batch);
    EXPECT_EQ(a.frequencyGhz, b.frequencyGhz);
    EXPECT_EQ(a.tensorCollectiveCycles, b.tensorCollectiveCycles);
    EXPECT_EQ(a.gatherCycles, b.gatherCycles);
    EXPECT_EQ(a.bottleneckCycles, b.bottleneckCycles);
    EXPECT_EQ(a.fillCycles, b.fillCycles);
    EXPECT_EQ(a.intervalCycles, b.intervalCycles);
    EXPECT_EQ(a.latencyCycles, b.latencyCycles);
    EXPECT_EQ(a.chips(), b.chips());
    EXPECT_EQ(a.throughput(), b.throughput());
    EXPECT_EQ(a.latencySec(), b.latencySec());
}

/** Every ShardPlan field, stage cuts and overlay vectors included. */
void
expectSameShardPlan(const ShardPlan &a, const ShardPlan &b)
{
    expectSameRow(a, b);
    EXPECT_EQ(a.networkName, b.networkName);
    EXPECT_EQ(a.configName, b.configName);
    EXPECT_EQ(a.replicaShare, b.replicaShare);
    EXPECT_EQ(a.link.bandwidthGBps, b.link.bandwidthGBps);
    EXPECT_EQ(a.link.latencyCycles, b.link.latencyCycles);
    EXPECT_EQ(a.stageCollectiveCycles, b.stageCollectiveCycles);
    EXPECT_EQ(a.stageOccupancyCycles, b.stageOccupancyCycles);
    EXPECT_EQ(a.tensorCollectiveBytes, b.tensorCollectiveBytes);
    EXPECT_EQ(a.gatherBytes, b.gatherBytes);
    EXPECT_EQ(a.soloCycles, b.soloCycles);
    EXPECT_EQ(a.macOpsPerBatch, b.macOpsPerBatch);
    EXPECT_EQ(a.peakMacPerSec, b.peakMacPerSec);

    const partition::PartitionPlan &x = a.pipeline;
    const partition::PartitionPlan &y = b.pipeline;
    EXPECT_EQ(x.networkName, y.networkName);
    EXPECT_EQ(x.batch, y.batch);
    EXPECT_EQ(x.bottleneckStage, y.bottleneckStage);
    EXPECT_EQ(x.bottleneckCycles, y.bottleneckCycles);
    EXPECT_EQ(x.fillCycles, y.fillCycles);
    ASSERT_EQ(x.stageCount(), y.stageCount());
    for (int s = 0; s < x.stageCount(); ++s) {
        SCOPED_TRACE("stage " + std::to_string(s));
        EXPECT_EQ(x.stages[s].firstLayer, y.stages[s].firstLayer);
        EXPECT_EQ(x.stages[s].lastLayer, y.stages[s].lastLayer);
        EXPECT_EQ(x.stages[s].sim->networkName,
                  y.stages[s].sim->networkName);
        EXPECT_EQ(x.stages[s].stageCycles, y.stages[s].stageCycles);
        EXPECT_EQ(x.stages[s].linkBytes, y.stages[s].linkBytes);
        EXPECT_EQ(x.stages[s].linkCycles, y.stages[s].linkCycles);
    }
}

TEST_F(ShardingFixture, SearchCandidatesMatchTheirStandaloneEvaluate)
{
    // plan() derives the hashes, shard networks and DP rows once and
    // shares them across candidates; evaluate() derives its own.
    // Both must land on the same plan, field for field.
    for (const dnn::Network &network :
         {dnn::makeMobileNet(), dnn::makeResNet50()}) {
        const int full = npusim::maxBatch(config, estimate, network);
        for (int budget : {8, 32}) {
            for (int jobs : {1, 4}) {
                npusim::SimCache search_cache;
                const HybridPlanner searcher(estimate, testLink(),
                                             &search_cache);
                const PlanSearch search =
                    searcher.plan(network, budget, full,
                                  PlanObjective::Throughput, jobs);
                ASSERT_FALSE(search.evaluated.empty());
                npusim::SimCache lone_cache;
                const HybridPlanner lone(estimate, testLink(),
                                         &lone_cache);
                for (std::size_t i = 0; i < search.evaluated.size();
                     ++i) {
                    const PlanRow &row = search.evaluated[i];
                    SCOPED_TRACE(network.name + " budget " +
                                 std::to_string(budget) + " jobs " +
                                 std::to_string(jobs) + " R" +
                                 std::to_string(row.dataParallel) +
                                 " T" +
                                 std::to_string(row.tensorShards) +
                                 " K" +
                                 std::to_string(row.pipelineStages));
                    const ShardPlan plan =
                        lone.evaluate(network, row.dataParallel,
                                      row.tensorShards,
                                      row.pipelineStages, full);
                    expectSameRow(row, plan);
                    if ((int)i == search.bestIndex)
                        expectSameShardPlan(search.best(), plan);
                }
            }
        }
    }
}

TEST_F(ShardingFixture, SearchCountsMatchTheSerialWalkUnderLruPressure)
{
    // A ResNet50 search at budget 64 simulates far more placements
    // than either SimCache holds. Whatever the job count and the
    // capacity its winner's evaluate() meets, its rows and winner
    // must be the serial loop of standalone evaluate() calls over the
    // same enumeration.
    const dnn::Network resnet = dnn::makeResNet50();
    const int full = npusim::maxBatch(config, estimate, resnet);
    constexpr int kBudget = 64;
    const int layers = (int)resnet.layers.size();

    npusim::SimCache serial_cache(0);
    const HybridPlanner serial(estimate, testLink(), &serial_cache);
    std::vector<ShardPlan> walked;
    for (int r = 1; r <= std::min(kBudget, full); ++r)
        for (int t = 1; r * t <= kBudget; ++t)
            for (int k = 1; r * t * k <= kBudget && k <= layers; ++k)
                walked.push_back(serial.evaluate(resnet, r, t, k, full));
    ASSERT_GT(serial_cache.stats().misses, 64u);

    for (std::size_t capacity : {8, 64}) {
        for (int jobs : {1, 2, 4}) {
            SCOPED_TRACE("capacity " + std::to_string(capacity) +
                         " jobs " + std::to_string(jobs));
            npusim::SimCache cache(capacity);
            const HybridPlanner planner(estimate, testLink(), &cache);
            planner.evaluate(resnet, 2, 8, 4, full);
            const PlanSearch search = planner.plan(
                resnet, kBudget, full, PlanObjective::Throughput, jobs);
            ASSERT_EQ(search.evaluated.size(), walked.size());
            for (std::size_t i = 0; i < walked.size(); ++i)
                expectSameRow(search.evaluated[i], walked[i]);
            expectSameShardPlan(search.best(),
                                walked[(std::size_t)search.bestIndex]);
        }
    }
}

TEST_F(ShardingFixture, MergedGeometriesMatchTheSerialWalk)
{
    // Narrow layers make many degrees shard into equal layers: T = 4
    // and 5, T = 6 and 7, and every T from 8 on. The search simulates
    // each (geometry, share) class once, under its geometry's first
    // T; the serial walk of standalone evaluate() calls builds every
    // shard network itself. Both must land on the same rows and
    // winner, the winner's stage names included.
    const dnn::Network narrow =
        dnn::parseNetwork("network Narrow\n"
                          "conv   c1 3 16 6 3 1 1\n"
                          "conv   c2 6 16 8 3 1 1\n"
                          "dwconv d3 8 16 - 3 1 1\n"
                          "conv   c4 8 16 4 3 1 1\n"
                          "conv   c5 4 16 8 3 1 1\n");
    constexpr int kBudget = 16, kBatch = 12;
    const int n = (int)narrow.layers.size();
    EXPECT_EQ(shardWidths(narrow, 4), shardWidths(narrow, 5));
    EXPECT_EQ(shardWidths(narrow, 8), shardWidths(narrow, kBudget));
    EXPECT_NE(shardWidths(narrow, 5), shardWidths(narrow, 6));

    // Every (T, replica share) point the search can read.
    std::set<std::pair<int, int>> points;
    for (int r = 1; r <= kBatch; ++r)
        for (int t = 1; r * t <= kBudget; ++t)
            points.emplace(t, (kBatch + r - 1) / r);

    // The serial walk's pick: first strictly better throughput.
    const auto best_of = [](const std::vector<ShardPlan> &plans) {
        std::size_t best = 0;
        for (std::size_t i = 1; i < plans.size(); ++i)
            if (plans[i].throughput() > plans[best].throughput())
                best = i;
        return best;
    };

    const bool was_profiling = perf::enabled();
    perf::setEnabled(true);
    perf::Counter &runs = perf::counter("npusim.runs");
    npusim::SimCache serial_cache(0);
    const HybridPlanner serial(estimate, testLink(), &serial_cache);
    std::vector<ShardPlan> walked;
    // R stops at the batch, as plan() skips clamped replicas.
    for (int r = 1; r <= kBatch; ++r)
        for (int t = 1; r * t <= kBudget; ++t)
            for (int k = 1; r * t * k <= kBudget && k <= n; ++k)
                walked.push_back(serial.evaluate(narrow, r, t, k, kBatch));
    EXPECT_EQ(serial.timingCacheStats().misses, points.size());

    for (std::size_t capacity : {0, 4}) {
        for (int jobs : {1, 4}) {
            SCOPED_TRACE("capacity " + std::to_string(capacity) +
                         " jobs " + std::to_string(jobs));
            npusim::SimCache cache(capacity);
            const HybridPlanner planner(estimate, testLink(), &cache);
            const std::uint64_t runs_before = runs.value();
            const PlanSearch search = planner.plan(
                narrow, kBudget, kBatch, PlanObjective::Throughput, jobs);
            // 7 geometries: one wide run per class, not per point.
            EXPECT_LT(runs.value() - runs_before, points.size());

            ASSERT_EQ(search.evaluated.size(), walked.size());
            for (std::size_t i = 0; i < walked.size(); ++i)
                expectSameRow(search.evaluated[i], walked[i]);
            ASSERT_EQ((std::size_t)search.bestIndex, best_of(walked));
            expectSameShardPlan(search.best(), walked[best_of(walked)]);
        }
    }
    perf::setEnabled(was_profiling);
}

TEST_F(ShardingFixture, SearchLeavesTheCachesAsTheWinnersEvaluateAlone)
{
    // The search keeps its results to itself: the one thing it does
    // through the SimCache and the planner's LayerTimingCache is its
    // winner's evaluate(). So from equally warmed caches, a search
    // and that evaluate() alone leave the same tallies and sizes, and
    // the same residents in the same LRU order (read out by a few
    // further evaluations), at any job count and capacity.
    const dnn::Network resnet = dnn::makeResNet50();
    const int full = npusim::maxBatch(config, estimate, resnet);
    constexpr int kBudget = 32;

    const auto warm = [&](const HybridPlanner &planner) {
        planner.evaluate(resnet, 1, 2, 3, full);
        planner.evaluate(resnet, 4, 1, 2, full);
        planner.evaluate(resnet, 2, 8, 4, full);
    };
    /** Both caches' tallies and the SimCache's size. */
    struct Left
    {
        MemoStats sim, timings;
        std::size_t simSize;
        bool operator==(const Left &o) const
        {
            return sim.hits == o.sim.hits &&
                   sim.misses == o.sim.misses &&
                   sim.evictions == o.sim.evictions &&
                   timings.hits == o.timings.hits &&
                   timings.misses == o.timings.misses &&
                   timings.evictions == o.timings.evictions &&
                   simSize == o.simSize;
        }
    };
    const auto left = [](const npusim::SimCache &cache,
                         const HybridPlanner &planner) {
        return Left{cache.stats(), planner.timingCacheStats(),
                    cache.size()};
    };
    const auto probe = [&](const npusim::SimCache &cache,
                           const HybridPlanner &planner) {
        std::vector<Left> pattern;
        for (const auto &[r, t, k] :
             {std::tuple{1, 1, 1}, std::tuple{3, 2, 5},
              std::tuple{1, 32, 1}, std::tuple{2, 8, 4},
              std::tuple{16, 1, 2}, std::tuple{1, 1, 32}}) {
            planner.evaluate(resnet, r, t, k, full);
            pattern.push_back(left(cache, planner));
        }
        return pattern;
    };

    for (std::size_t capacity : {0, 8}) {
        for (int jobs : {1, 4}) {
            SCOPED_TRACE("capacity " + std::to_string(capacity) +
                         " jobs " + std::to_string(jobs));
            npusim::SimCache searched_cache(capacity);
            const HybridPlanner searcher(estimate, testLink(),
                                         &searched_cache);
            warm(searcher);
            const PlanSearch search = searcher.plan(
                resnet, kBudget, full, PlanObjective::Throughput, jobs);
            const ShardPlan &best = search.best();
            ASSERT_GT(search.evaluated.size(), 100u);

            npusim::SimCache lone_cache(capacity);
            const HybridPlanner lone(estimate, testLink(), &lone_cache);
            warm(lone);
            lone.evaluate(resnet, best.dataParallel, best.tensorShards,
                          best.pipelineStages, full);

            const Left after_search = left(searched_cache, searcher);
            EXPECT_TRUE(after_search == left(lone_cache, lone));
            if (capacity == 0) {
                EXPECT_EQ(after_search.sim.evictions, 0u);
            } else {
                EXPECT_EQ(after_search.simSize, capacity);
            }
            EXPECT_TRUE(probe(searched_cache, searcher) ==
                        probe(lone_cache, lone));
        }
    }
}

TEST_F(ShardingFixture, ResNet50BudgetSearchIsPinned)
{
    // Every row of the 1024-chip ResNet50 search at the on-chip batch
    // and the default link, and the winner's index, bit for bit: the
    // whole search a `shard --chips 1024` run makes, at jobs 1 and 4.
    // A row folded into the wrong slot, or with another point's
    // all-reduce cycles, moves the digest.
    const dnn::Network resnet = dnn::makeResNet50();
    const int full = npusim::maxBatch(config, estimate, resnet);
    for (int jobs : {1, 4}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        npusim::SimCache fresh;
        const HybridPlanner planner(estimate, {}, &fresh);
        const PlanSearch search = planner.plan(
            resnet, 1024, full, PlanObjective::Throughput, jobs);
        Fnv1a digest;
        for (const PlanRow &row : search.evaluated) {
            digest.word((std::uint64_t)row.dataParallel)
                .word((std::uint64_t)row.tensorShards)
                .word((std::uint64_t)row.pipelineStages)
                .word((std::uint64_t)row.batch)
                .real(row.frequencyGhz)
                .word(row.tensorCollectiveCycles)
                .word(row.gatherCycles)
                .word(row.bottleneckCycles)
                .word(row.fillCycles)
                .word(row.intervalCycles)
                .word(row.latencyCycles);
        }
        digest.word((std::uint64_t)search.bestIndex);
        EXPECT_EQ(search.evaluated.size(), 17931u);
        EXPECT_EQ(digest.value(), 0x6dc0798158d6a64dull);
    }
}

TEST(ShardingResNet50, BestThroughputNeverDropsAsTheBudgetGrows)
{
    // A bigger budget's search space holds every smaller budget's
    // factorization, so the winner's throughput can never drop as
    // chips are added (78 226 -> 390 370 inf/s from 1 to 8 chips).
    sfq::DeviceConfig dev;
    sfq::CellLibrary lib(dev);
    const estimator::NpuConfig config =
        estimator::NpuConfig::superNpu();
    const estimator::NpuEstimate estimate =
        estimator::NpuEstimator(lib).estimate(config);
    const dnn::Network net = dnn::makeResNet50();
    const int batch = npusim::maxBatch(config, estimate, net);

    npusim::SimCache cache;
    const HybridPlanner planner(estimate, {}, &cache);
    double last = 0.0;
    for (int budget : {1, 2, 4, 8}) {
        SCOPED_TRACE("budget " + std::to_string(budget));
        const ShardPlan best =
            planner.plan(net, budget, batch, PlanObjective::Throughput)
                .best();
        const obs::AuditReport audit = obs::auditSharding(best);
        EXPECT_TRUE(audit.ok()) << audit.summary();
        EXPECT_GE(best.throughput(), last);
        last = best.throughput();
    }
}

TEST(ShardingResNet50, DataParallelSpeedupMayBeatReplicasPastTheOnChipBatch)
{
    // Past the solver's on-chip batch the full-batch solo run costs
    // more per image than a replica's share, so two replicas beat
    // 2x: the plan audit bounds MAC rate, never the DP speedup.
    sfq::DeviceConfig dev;
    sfq::CellLibrary lib(dev);
    const estimator::NpuConfig config =
        estimator::NpuConfig::superNpu();
    const estimator::NpuEstimate estimate =
        estimator::NpuEstimator(lib).estimate(config);
    const dnn::Network net = dnn::makeResNet50();
    const int batch = npusim::maxBatch(config, estimate, net);

    npusim::SimCache cache;
    const HybridPlanner planner(estimate, {}, &cache);
    const ShardPlan plan = planner.evaluate(net, 2, 1, 1, 2 * batch);
    EXPECT_EQ(plan.replicaShare, batch);
    EXPECT_GT(plan.soloCycles,
              2 * (plan.bottleneckCycles + plan.gatherCycles));
    const obs::AuditReport audit = obs::auditSharding(plan);
    EXPECT_TRUE(audit.ok()) << audit.summary();
}

// --- serving replica groups ------------------------------------------

TEST_F(ShardingFixture, ServingReplicaGroupsShareTheLoad)
{
    serving::BatchServiceModel service(estimate, net);
    serving::ServingConfig serving;
    serving.arrival.ratePerSec = 0.5 * service.peakRps(batch);
    serving.batching.maxBatch = batch;
    serving.batching.timeoutSec = 1e-4;
    serving.requests = 2000;
    serving.chips = 4;
    serving.dataParallelReplicas = 2;
    const auto report =
        serving::ServingSimulator(service, serving).run();

    EXPECT_EQ(report.completed, serving.requests);
    EXPECT_EQ(report.dataParallelReplicas, 2);
    EXPECT_EQ(report.replicaGroups, 2);
    // Launches are attributed to each group's first chip; busy time
    // lands on every replica.
    ASSERT_EQ(report.perChipBatches.size(), 4u);
    EXPECT_GT(report.perChipBatches[0], 0u);
    EXPECT_EQ(report.perChipBatches[1], 0u);
    EXPECT_EQ(report.perChipBatches[0] + report.perChipBatches[2],
              report.batchesLaunched);
    for (double busy : report.perChipBusySec)
        EXPECT_GT(busy, 0.0);
    // Both replicas of a group ride the same batches, so their busy
    // clocks match exactly.
    EXPECT_DOUBLE_EQ(report.perChipBusySec[0],
                     report.perChipBusySec[1]);

    const obs::AuditReport audit = obs::auditServing(report);
    EXPECT_TRUE(audit.ok()) << audit.summary();
}

TEST_F(ShardingFixture, ServingFaultQuarantinesTheWholeReplicaGroup)
{
    serving::BatchServiceModel service(estimate, net);
    serving::ServingConfig serving;
    serving.arrival.ratePerSec = 0.5 * service.peakRps(batch);
    serving.batching.maxBatch = batch;
    serving.batching.timeoutSec = 1e-4;
    serving.requests = 2000;
    serving.chips = 4;
    serving.dataParallelReplicas = 2;
    // One permanent flux trap on chip 1 — the *second* replica of
    // group 0. A replica group is one logical server, so quarantine
    // must write off both chips.
    reliability::FaultScheduleConfig faults;
    faults.chips = 4;
    reliability::FaultEvent event;
    event.kind = reliability::FaultKind::FluxTrap;
    event.chip = 1;
    event.magnitude = faults.fluxTrapDerate;
    serving.faults =
        reliability::FaultSchedule::fromEvents(faults, {event});
    serving.resilience.recovery =
        serving::RecoveryPolicy::DegradedDispatch;
    serving.resilience.detectLatencySec = 1e-12;
    const auto report =
        serving::ServingSimulator(service, serving).run();

    EXPECT_EQ(report.completed, serving.requests);
    ASSERT_EQ(report.perChipBatches.size(), 4u);
    EXPECT_EQ(report.perChipBatches[0], 0u);
    EXPECT_EQ(report.perChipBatches[1], 0u);
    EXPECT_GT(report.perChipBatches[2], 0u);
    // Writing off one of two groups costs half the fleet.
    EXPECT_LT(report.availability, 0.55);
    const obs::AuditReport audit = obs::auditServing(report);
    EXPECT_TRUE(audit.ok()) << audit.summary();
}

TEST_F(ShardingFixture, ServingRejectsReplicasWithPipelineStages)
{
    serving::ServingConfig serving;
    serving.chips = 4;
    serving.pipelineStages = 2;
    serving.dataParallelReplicas = 2;
    EXPECT_DEATH(serving.check(), "replica");
}

TEST_F(ShardingFixture, ServingRejectsReplicasWithCheckpointRestart)
{
    serving::ServingConfig serving;
    serving.chips = 2;
    serving.dataParallelReplicas = 2;
    serving.resilience.checkpointRestart = true;
    EXPECT_DEATH(serving.check(), "checkpoint");
}

} // namespace
} // namespace sharding
} // namespace supernpu
