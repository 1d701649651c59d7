/**
 * @file
 * Tests for the multi-chip partitioning subsystem: link-model
 * arithmetic and saturation, the bottleneck-minimizing DP, the K=1
 * equivalence guarantee (byte-identical ledgers against the
 * single-chip simulator), pipeline composition invariants through
 * obs::auditPipeline, throughput monotonicity on ResNet50, and the
 * memoized PipelineServiceModel the serving layer rides.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>

#include "dnn/networks.hh"
#include "dnn/parser.hh"
#include "estimator/npu_estimator.hh"
#include "npusim/batch.hh"
#include "npusim/sim.hh"
#include "npusim/sim_cache.hh"
#include "obs/audit.hh"
#include "obs/ledger.hh"
#include "partition/pipeline_sim.hh"

namespace supernpu {
namespace partition {
namespace {

constexpr std::uint64_t kMax =
    std::numeric_limits<std::uint64_t>::max();

// --- link model ------------------------------------------------------

TEST(LinkModel, TransferCyclesAreLatencyPlusWireTime)
{
    LinkConfig link;
    link.bandwidthGBps = 100.0;
    link.latencyCycles = 10;
    // 1000 bytes at 50 GHz over 100 GB/s: ceil(1000*50/100) = 500
    // wire cycles on top of the fixed latency.
    EXPECT_EQ(transferCycles(link, 1000, 50.0), 510u);
    // An empty transfer still pays the fixed latency.
    EXPECT_EQ(transferCycles(link, 0, 50.0), 10u);
}

TEST(LinkModel, TransferCyclesSaturateInsteadOfWrapping)
{
    LinkConfig link;
    link.bandwidthGBps = 100.0;
    link.latencyCycles = 10;
    EXPECT_EQ(transferCycles(link, kMax, 200.0), kMax);
}

TEST(LinkModel, ActivationBytesMatchOfmapTimesBatch)
{
    const dnn::Layer layer = dnn::conv("c", 3, 32, 16, 3, 1, 1);
    EXPECT_EQ(activationBytes(layer, 1), layer.ofmapBytes());
    EXPECT_EQ(activationBytes(layer, 8), 8u * layer.ofmapBytes());
}

TEST(LinkModel, ActivationBytesSaturateOnAbsurdShapes)
{
    // 2e9 channels x 1e5 x 1e5 positions is ~2e19 bytes per image —
    // past UINT64_MAX, and past what ofmapBytes() can represent
    // without wrapping. The link model must saturate, not wrap.
    const dnn::Layer layer =
        dnn::conv("huge", 1, 100000, 2000000000, 1, 1, 0);
    EXPECT_EQ(activationBytes(layer, 1), kMax);
    EXPECT_EQ(activationBytes(layer, 1000), kMax);
}

// --- partitioner -----------------------------------------------------

/** Shared design point + a cheap four-conv network. */
class PartitionFixture : public ::testing::Test
{
  protected:
    PartitionFixture()
        : net(dnn::parseNetwork("network PartTest\n"
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

TEST_F(PartitionFixture, SingleStageIsByteIdenticalToDirectRun)
{
    Partitioner partitioner(estimate, {}, &cache);
    const PartitionPlan plan = partitioner.partition(net, 1, batch);
    ASSERT_EQ(plan.stageCount(), 1);
    EXPECT_EQ(plan.stages[0].linkBytes, 0u);
    EXPECT_EQ(plan.stages[0].linkCycles, 0u);

    npusim::NpuSimulator sim(estimate);
    const npusim::SimResult direct = sim.run(net, batch);
    EXPECT_EQ(plan.stages[0].stageCycles, direct.totalCycles);

    // The strong form of the K=1 guarantee: the stage's ledger is
    // byte-for-byte the single-chip simulator's ledger.
    obs::RunLedger staged, reference;
    obs::addSimResult(staged, *plan.stages[0].sim);
    obs::addSimResult(reference, direct);
    EXPECT_EQ(staged.json(), reference.json());
}

TEST_F(PartitionFixture, TwoStagesBeatTheSingleStageBottleneck)
{
    // A real workload: on the tiny fixture net the standalone stage
    // re-simulation overhead (the stage head cannot overlap its
    // first weight fetch) can exceed the split savings, and the
    // partitioner honestly reports that. ResNet-18 is deep enough
    // that halving genuinely halves the bottleneck.
    const dnn::Network deep = dnn::makeResNet18();
    const int deep_batch = npusim::maxBatch(config, estimate, deep);
    Partitioner partitioner(estimate, {}, &cache);
    const PartitionPlan one =
        partitioner.partition(deep, 1, deep_batch);
    const PartitionPlan two =
        partitioner.partition(deep, 2, deep_batch);
    ASSERT_EQ(two.stageCount(), 2);
    EXPECT_LT(two.bottleneckCycles, one.bottleneckCycles);
    // Stages are contiguous and cover the network exactly once.
    EXPECT_EQ(two.stages[0].firstLayer, 0);
    EXPECT_EQ(two.stages[1].firstLayer, two.stages[0].lastLayer + 1);
    EXPECT_EQ(two.stages[1].lastLayer, (int)deep.layers.size() - 1);
    // Only interior boundaries ship activations.
    EXPECT_GT(two.stages[0].linkBytes, 0u);
    EXPECT_EQ(two.stages[1].linkBytes, 0u);
}

TEST_F(PartitionFixture, StageCountIsClampedToLayerCount)
{
    Partitioner partitioner(estimate, {}, &cache);
    const PartitionPlan plan = partitioner.partition(net, 99, batch);
    EXPECT_EQ(plan.stageCount(), (int)net.layers.size());
    for (const auto &stage : plan.stages)
        EXPECT_EQ(stage.layerCount(), 1);
}

TEST_F(PartitionFixture, RepartitioningHitsTheSimCache)
{
    Partitioner partitioner(estimate, {}, &cache);
    partitioner.partition(net, 2, batch);
    const auto before = cache.stats();
    partitioner.partition(net, 2, batch);
    const auto after = cache.stats();
    // The second partition re-simulates nothing: same full-network
    // run, same stage sub-networks, all served from the cache.
    EXPECT_EQ(after.misses, before.misses);
    EXPECT_GT(after.hits, before.hits);
}

TEST_F(PartitionFixture, RepartitioningHitsTheLayerTimingCache)
{
    Partitioner partitioner(estimate, {}, &cache);
    partitioner.partition(net, 2, batch);
    const LayerTimingCacheStats first =
        partitioner.timingCacheStats();
    EXPECT_EQ(first.misses, 1u);
    EXPECT_EQ(first.hits, 0u);

    // Any other K of the same (network, batch) reuses the memoized
    // prefix sums and link costs — the sweep pattern the planner's
    // K = 1..layers enumeration produces.
    partitioner.partition(net, 3, batch);
    const LayerTimingCacheStats second =
        partitioner.timingCacheStats();
    EXPECT_EQ(second.misses, first.misses);
    EXPECT_EQ(second.hits, first.hits + 1);

    // A different batch is a different timing point.
    partitioner.partition(net, 2, std::max(1, batch - 1));
    EXPECT_EQ(partitioner.timingCacheStats().misses,
              first.misses + 1);
}

// --- layer-timing cache ----------------------------------------------

/** A minimal one-layer LayerTimings tagged by configName. */
LayerTimings
namedTimings(const char *name)
{
    LayerTimings timings;
    timings.configName = name;
    timings.frequencyGhz = 1.0;
    timings.prefix = {0.0, 2.0};
    timings.linkAfter = {0.0};
    timings.linkCycles = {0};
    timings.linkBytes = {0};
    return timings;
}

TEST(LayerTimingCache, MemoizesOneBuildPerKey)
{
    LayerTimingCache cache;
    int builds = 0;
    const auto build = [&]() {
        ++builds;
        return namedTimings("a");
    };
    const auto first = cache.getOrCompute({0x51, 4}, build);
    EXPECT_EQ(builds, 1);
    EXPECT_EQ(first->layerCount(), 1);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 0u);

    // Same key: the very same shared object, no rebuild.
    const auto again = cache.getOrCompute({0x51, 4}, build);
    EXPECT_EQ(builds, 1);
    EXPECT_EQ(again.get(), first.get());
    EXPECT_EQ(cache.stats().hits, 1u);

    // A different batch is a different key.
    const auto other = cache.getOrCompute({0x51, 8}, build);
    EXPECT_EQ(builds, 2);
    EXPECT_NE(other.get(), first.get());
    EXPECT_EQ(cache.size(), 2u);
}

TEST(LayerTimingCache, TrustsTheNetworkHashUntilCleared)
{
    // The cache is keyed on (network hash, batch) alone: a colliding
    // key hands back the FIRST build's timings, never re-running the
    // builder. hashNetwork must therefore cover every field the
    // timing derivation reads; this pins that contract, and that
    // clear() is the only invalidation.
    LayerTimingCache cache;
    const auto first = cache.getOrCompute(
        {7, 1}, [] { return namedTimings("first"); });
    const auto collided = cache.getOrCompute(
        {7, 1}, [] { return namedTimings("second"); });
    EXPECT_EQ(collided.get(), first.get());
    EXPECT_EQ(collided->configName, "first");

    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().misses, 0u);
    const auto rebuilt = cache.getOrCompute(
        {7, 1}, [] { return namedTimings("second"); });
    EXPECT_EQ(rebuilt->configName, "second");
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST_F(PartitionFixture, PlansAreDeterministicAcrossFreshCaches)
{
    const auto fingerprint = [&]() {
        npusim::SimCache fresh;
        PipelineSimulator sim(estimate, {}, &fresh);
        obs::RunLedger ledger;
        obs::addPipelineResult(ledger, sim.run(net, 3, batch, 16));
        return ledger.json();
    };
    EXPECT_EQ(fingerprint(), fingerprint());
}

// --- pipeline composition --------------------------------------------

TEST_F(PartitionFixture, PipelineResultPassesTheAudit)
{
    PipelineSimulator sim(estimate, {}, &cache);
    for (int stages : {1, 2, 3, 4}) {
        const PipelineResult run = sim.run(net, stages, batch, 8);
        const obs::AuditReport audit = obs::auditPipeline(run);
        EXPECT_TRUE(audit.ok()) << audit.summary();
        EXPECT_EQ(run.makespanCycles,
                  run.plan.fillCycles +
                      7u * run.plan.bottleneckCycles);
        for (int s = 0; s < run.plan.stageCount(); ++s) {
            EXPECT_GT(run.plan.stageUtilization(s), 0.0);
            EXPECT_LE(run.plan.stageUtilization(s), 1.0);
        }
        EXPECT_DOUBLE_EQ(
            run.plan.stageUtilization(run.plan.bottleneckStage), 1.0);
    }
}

TEST_F(PartitionFixture, AuditCatchesACookedBottleneck)
{
    PipelineSimulator sim(estimate, {}, &cache);
    PipelineResult run = sim.run(net, 2, batch, 8);
    run.plan.bottleneckCycles += 1;
    EXPECT_FALSE(obs::auditPipeline(run).ok());
}

TEST(PartitionResNet50, ThroughputIsMonotonicInPipelineDepth)
{
    sfq::DeviceConfig dev;
    sfq::CellLibrary lib(dev);
    const estimator::NpuConfig config =
        estimator::NpuConfig::superNpu();
    const estimator::NpuEstimate estimate =
        estimator::NpuEstimator(lib).estimate(config);
    const dnn::Network net = dnn::makeResNet50();
    const int batch = npusim::maxBatch(config, estimate, net);

    npusim::SimCache cache;
    PipelineSimulator sim(estimate, {}, &cache);
    double last = 0.0;
    for (int stages : {1, 2, 4}) {
        const PipelineResult run = sim.run(net, stages, batch, 4);
        const obs::AuditReport audit = obs::auditPipeline(run);
        EXPECT_TRUE(audit.ok()) << audit.summary();
        EXPECT_GE(run.steadyInferencesPerSec(), last);
        last = run.steadyInferencesPerSec();
    }
}

// --- serving-facing timing model -------------------------------------

TEST_F(PartitionFixture, ServiceModelTimingIsConsistent)
{
    PipelineServiceModel model(estimate, net, 2, {}, &cache);
    const auto timing = model.timing(batch);
    ASSERT_EQ(timing.stageBusySec.size(), 2u);
    // Latency is the serial walk through both stages; the interval
    // is just the bottleneck, so it can never exceed the latency.
    EXPECT_GE(timing.latencySec, timing.intervalSec);
    EXPECT_NEAR(timing.latencySec,
                timing.stageBusySec[0] + timing.stageBusySec[1],
                1e-12);
    EXPECT_DOUBLE_EQ(timing.stageStartSec[0], 0.0);
    EXPECT_NEAR(timing.stageStartSec[1], timing.stageBusySec[0],
                1e-12);
    // Memoized: identical object on the second call.
    EXPECT_DOUBLE_EQ(model.timing(batch).latencySec,
                     timing.latencySec);
}

TEST_F(PartitionFixture, SingleStageServiceModelMatchesTheBatchTime)
{
    PipelineServiceModel model(estimate, net, 1, {}, &cache);
    const auto timing = model.timing(batch);
    // K=1: no link, one stage — latency and interval are both the
    // plain batch service time of the single-chip simulator.
    npusim::NpuSimulator sim(estimate);
    const double batch_sec = sim.run(net, batch).seconds();
    EXPECT_DOUBLE_EQ(timing.latencySec, timing.intervalSec);
    EXPECT_DOUBLE_EQ(timing.latencySec, batch_sec);
}

} // namespace
} // namespace partition
} // namespace supernpu
