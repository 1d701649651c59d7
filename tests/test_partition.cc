/**
 * @file
 * Tests for the multi-chip partitioning subsystem: link-model
 * arithmetic and saturation, the bottleneck-minimizing DP, the K=1
 * equivalence guarantee (byte-identical ledgers against the
 * single-chip simulator), pipeline composition invariants through
 * obs::auditPipeline, throughput monotonicity on ResNet50, and the
 * PipelineServiceModel the serving layer rides.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "common/parallel.hh"
#include "dnn/networks.hh"
#include "dnn/parser.hh"
#include "estimator/npu_estimator.hh"
#include "npusim/batch.hh"
#include "npusim/sim.hh"
#include "npusim/sim_cache.hh"
#include "obs/audit.hh"
#include "obs/ledger.hh"
#include "partition/pipeline_sim.hh"
#include "perf/profile.hh"

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

TEST_F(PartitionFixture, StageKeysNameTheParentAndTheRange)
{
    // A stage's cache key is an O(1) mix of its parent's hash and its
    // range. Over every K's cuts of two parents that differ only in
    // name, one (parent, range) always gets one key, a key never
    // names two (parent, range) pairs, and K=1 keeps the parent's own
    // hash — the single-chip path's cache entry.
    dnn::Network twin = net;
    twin.name = "PartTwin";
    const int n = (int)net.layers.size();
    Partitioner partitioner(estimate, {}, &cache);
    const npusim::NpuSimulator sim(estimate);
    using Range = std::tuple<int, int, int>; // parent, first, last
    std::map<std::uint64_t, Range> range_of;
    std::map<Range, std::uint64_t> key_of;
    int parent = 0;
    for (const dnn::Network *network : {&net, &twin}) {
        const std::uint64_t hash = npusim::hashNetwork(*network);
        const LayerTimings timings = partitioner.buildTimings(
            *network, cache.getOrRun(sim, *network, batch), batch);
        const std::vector<std::vector<int>> cuts =
            Partitioner::cutStages(timings, 1, n);
        EXPECT_EQ(Partitioner::stageHash(hash, 0, cuts[0].back(), n),
                  hash);
        for (const std::vector<int> &cut : cuts) {
            int first = 0;
            for (const int last : cut) {
                const Range range{parent, first, last};
                const std::uint64_t key =
                    Partitioner::stageHash(hash, first, last, n);
                EXPECT_EQ(range_of.try_emplace(key, range).first->second,
                          range);
                EXPECT_EQ(key_of.try_emplace(range, key).first->second,
                          key);
                first = last + 1;
            }
        }
        ++parent;
    }
    // Per parent at least the whole range (K=1) and the n single
    // layers (K=n), each under a key of its own.
    EXPECT_EQ(key_of.size(), range_of.size());
    EXPECT_GE(key_of.size(), 2u * (std::size_t)(n + 1));
}

// --- cut table -----------------------------------------

/** Every field of two plans that the cut search or a stage decides. */
void
expectSamePlan(const PartitionPlan &a, const PartitionPlan &b)
{
    EXPECT_EQ(a.networkName, b.networkName);
    EXPECT_EQ(a.configName, b.configName);
    EXPECT_EQ(a.batch, b.batch);
    EXPECT_EQ(a.frequencyGhz, b.frequencyGhz);
    EXPECT_EQ(a.bottleneckStage, b.bottleneckStage);
    EXPECT_EQ(a.bottleneckCycles, b.bottleneckCycles);
    EXPECT_EQ(a.fillCycles, b.fillCycles);
    ASSERT_EQ(a.stageCount(), b.stageCount());
    for (int s = 0; s < a.stageCount(); ++s) {
        SCOPED_TRACE("stage " + std::to_string(s));
        const PipelineStage &x = a.stages[s];
        const PipelineStage &y = b.stages[s];
        EXPECT_EQ(x.firstLayer, y.firstLayer);
        EXPECT_EQ(x.lastLayer, y.lastLayer);
        EXPECT_EQ(x.sim->networkName, y.sim->networkName);
        EXPECT_EQ(x.sim->layers().size(), y.sim->layers().size());
        EXPECT_EQ(x.stageCycles, y.stageCycles);
        EXPECT_EQ(x.sim->totalCycles, y.sim->totalCycles);
        EXPECT_EQ(x.linkBytes, y.linkBytes);
        EXPECT_EQ(x.linkCycles, y.linkCycles);
    }
}

TEST(CutTable, AnyKOrderMatchesAFreshPartitionerPerK)
{
    sfq::DeviceConfig dev;
    sfq::CellLibrary lib(dev);
    const estimator::NpuConfig config =
        estimator::NpuConfig::superNpu();
    const estimator::NpuEstimate estimate =
        estimator::NpuEstimator(lib).estimate(config);
    const dnn::Network net = dnn::makeResNet50();
    const int batch = npusim::maxBatch(config, estimate, net);
    const int n = (int)net.layers.size();

    // The reference: a fresh Partitioner for every K. Simulations
    // are pure, so the SimCache may be shared.
    npusim::SimCache cache;
    std::vector<PartitionPlan> fresh;
    for (int k = 1; k <= n; ++k)
        fresh.push_back(
            Partitioner(estimate, {}, &cache).partition(net, k, batch));

    const auto expect_match = [&](const std::vector<int> &order,
                                  const std::vector<PartitionPlan> &plans,
                                  const char *how) {
        ASSERT_EQ(plans.size(), order.size());
        for (std::size_t i = 0; i < order.size(); ++i) {
            SCOPED_TRACE(std::string(how) + " K=" +
                         std::to_string(order[i]));
            expectSamePlan(plans[i], fresh[order[i] - 1]);
        }
    };
    const auto serial = [&](const std::vector<int> &order) {
        Partitioner shared(estimate, {}, &cache);
        std::vector<PartitionPlan> plans;
        for (int k : order)
            plans.push_back(shared.partition(net, k, batch));
        return plans;
    };

    // Descending: one partitioner, largest K first.
    std::vector<int> order(n);
    for (int i = 0; i < n; ++i)
        order[i] = n - i;
    expect_match(order, serial(order), "descending");

    // Shuffled: no call depends on which K came before it.
    std::shuffle(order.begin(), order.end(), std::mt19937(15));
    expect_match(order, serial(order), "shuffled");

    // Concurrent: pool tasks share one partitioner and its SimCache.
    Partitioner shared(estimate, {}, &cache);
    ThreadPool pool(4);
    const std::vector<PartitionPlan> racing =
        pool.parallelMap(order.size(), [&](std::size_t i) {
            return shared.partition(net, order[i], batch);
        });
    expect_match(order, racing, "concurrent");
}

TEST(CutTable, SharedTableCutsAreMinMaxOptimal)
{
    // An oracle independent of the DP: enumerate every cut set of
    // VGG-16 (2^15 of them) and take the min over sets of the max
    // stage cost, with the cost the DP charges — fused per-layer
    // cycles plus the outbound link transfer. One partitioner is
    // asked for K = n..1.
    sfq::DeviceConfig dev;
    sfq::CellLibrary lib(dev);
    const estimator::NpuConfig config =
        estimator::NpuConfig::superNpu();
    const estimator::NpuEstimate estimate =
        estimator::NpuEstimator(lib).estimate(config);
    const dnn::Network net = dnn::makeVgg16();
    const int batch = npusim::maxBatch(config, estimate, net);
    const int n = (int)net.layers.size();
    ASSERT_LE(n, 20);

    npusim::SimCache cache;
    const auto full = cache.getOrRun(npusim::NpuSimulator(estimate),
                                     net, batch);
    const LinkConfig link;
    std::vector<double> prefix(n + 1, 0.0), link_after(n, 0.0);
    for (int l = 0; l < n; ++l) {
        prefix[l + 1] = prefix[l] + (double)full->layers()[l].totalCycles();
        if (l + 1 < n)
            link_after[l] = (double)transferCycles(
                link, activationBytes(net.layers[l], batch),
                full->frequencyGhz);
    }
    const auto seg_cost = [&](int i, int j) {
        return prefix[j + 1] - prefix[i] + link_after[j];
    };
    // best[k]: min-max cost over cut sets with k stages.
    std::vector<double> best(n + 1,
                             std::numeric_limits<double>::infinity());
    for (std::uint32_t mask = 0; mask < (1u << (n - 1)); ++mask) {
        double worst = 0.0;
        int first = 0, stages = 0;
        for (int l = 0; l < n; ++l) {
            if (l == n - 1 || (mask >> l & 1u)) {
                worst = std::max(worst, seg_cost(first, l));
                first = l + 1;
                ++stages;
            }
        }
        best[stages] = std::min(best[stages], worst);
    }

    Partitioner shared(estimate, link, &cache);
    for (int k = n; k >= 1; --k) {
        SCOPED_TRACE("K=" + std::to_string(k));
        const PartitionPlan plan = shared.partition(net, k, batch);
        ASSERT_EQ(plan.stageCount(), k);
        double worst = 0.0;
        for (const PipelineStage &stage : plan.stages)
            worst = std::max(worst,
                             seg_cost(stage.firstLayer, stage.lastLayer));
        EXPECT_EQ(worst, best[k]);
    }
}

TEST(CutTable, PrunedDpMatchesTheUnprunedReference)
{
    // The DP scans each j's last cut downward and stops once the
    // segment alone exceeds the best cost. Against the full upward
    // scan with a strict compare, every cut row and the frontier must
    // match exactly, at every K, on inputs heavy with ties: small
    // integer layer costs with zeros, all-zero, all-equal and random
    // link costs, and huge costs whose prefix sums round.
    std::mt19937 rng(31);
    constexpr double kInf = std::numeric_limits<double>::infinity();
    for (int trial = 0; trial < 240; ++trial) {
        const int n = 1 + (int)(rng() % 18);
        const int link_mode = trial % 3, cost_mode = trial / 3 % 4;
        LayerTimings timings;
        timings.prefix.assign(n + 1, 0.0);
        timings.linkAfter.assign(n, 0.0);
        const double same_link = (double)(rng() % 4);
        for (int l = 0; l < n; ++l) {
            double cost = (double)(rng() % (cost_mode == 0 ? 2 : 5));
            if (cost_mode == 3)
                cost = (double)(rng() % 3) * 0x1p60 + (double)(rng() % 7);
            timings.prefix[l + 1] = timings.prefix[l] + cost;
            if (l + 1 < n)
                timings.linkAfter[l] = link_mode == 0   ? 0.0
                                       : link_mode == 1 ? same_link
                                                        : (double)(rng() % 4);
        }
        const auto seg_cost = [&](int i, int j) {
            return timings.prefix[j + 1] - timings.prefix[i] +
                   timings.linkAfter[j];
        };

        // Reference rows 1..n: every i, upward, first minimum kept.
        std::vector<std::vector<double>> dp(n + 1);
        std::vector<std::vector<int>> cut(n + 1);
        dp[1].resize(n);
        for (int j = 0; j < n; ++j)
            dp[1][j] = seg_cost(0, j);
        for (int s = 2; s <= n; ++s) {
            dp[s].assign(n, kInf);
            cut[s].assign(n, -1);
            for (int j = s - 1; j < n; ++j)
                for (int i = s - 2; i < j; ++i) {
                    const double cost =
                        std::max(dp[s - 1][i], seg_cost(i + 1, j));
                    if (cost < dp[s][j]) {
                        dp[s][j] = cost;
                        cut[s][j] = i;
                    }
                }
        }

        for (int k = 1; k <= n; ++k) {
            SCOPED_TRACE("trial " + std::to_string(trial) + " n=" +
                         std::to_string(n) + " K=" + std::to_string(k));
            LayerTimings fresh;
            fresh.prefix = timings.prefix;
            fresh.linkAfter = timings.linkAfter;
            const CutTable table = Partitioner::cutTable(fresh, k);
            ASSERT_EQ((int)table.cut.size(), std::max(k + 1, 2));
            for (int s = 2; s <= k; ++s)
                ASSERT_EQ(table.cut[s], cut[s]) << "row " << s;
            ASSERT_EQ(table.frontier, dp[k]);
        }
    }
}

TEST(CutTable, StageCyclesAreTheColdHeadPlusTheWideRunsPrefix)
{
    // The plan search prices a stage as its cold head plus the wide
    // run's later layers from LayerTimings' exact prefix, without
    // composing it. On every built-in workload, both ends of the
    // optimization ladder and batches 1, 7 and the on-chip maximum,
    // that must be runRange's totalCycles for every range; and
    // layer 0's cold head is the wide run's own layer 0.
    std::vector<dnn::Network> nets = dnn::evaluationWorkloads();
    nets.push_back(dnn::makeResNet18());
    nets.push_back(dnn::makeVgg19());
    sfq::DeviceConfig dev;
    sfq::CellLibrary lib(dev);
    const estimator::NpuEstimator estimator(lib);
    const bool was_profiling = perf::enabled();
    perf::setEnabled(true);
    perf::Counter &layer_sims = perf::counter("npusim.layerSims");
    for (const dnn::Network &net : nets) {
        const int n = (int)net.layers.size();
        for (const estimator::NpuConfig &config :
             {estimator::NpuConfig::superNpu(),
              estimator::NpuConfig::baseline()}) {
            const estimator::NpuEstimate est = estimator.estimate(config);
            const npusim::NpuSimulator sim(est);
            const Partitioner partitioner(est);
            for (int batch : {1, 7, npusim::maxBatch(config, est, net)}) {
                const auto whole = std::make_shared<const npusim::SimResult>(
                    sim.run(net, batch));
                const LayerTimings timings =
                    partitioner.buildTimings(net, whole, batch);
                ASSERT_EQ(timings.cycles.back(), whole->totalCycles);
                for (int first = 0; first < n; ++first) {
                    const std::uint64_t sims_before = layer_sims.value();
                    const std::uint64_t head =
                        sim.coldHead(net, first, batch).totalCycles();
                    EXPECT_EQ(layer_sims.value() - sims_before, 1u);
                    if (first == 0) {
                        ASSERT_EQ(head, whole->layers()[0].totalCycles());
                    }
                    for (int last = first; last < n; ++last)
                        ASSERT_EQ(timings.stageCycles(first, last, head),
                                  sim.runRange(net, first, last, batch,
                                               whole)
                                      .totalCycles)
                            << net.name << " " << config.name << " batch "
                            << batch << " [" << first << ", " << last
                            << "]";
                }
            }
        }
    }
    perf::setEnabled(was_profiling);
}

// --- diagnostics -----------------------------------------------------

TEST_F(PartitionFixture, ClampWarningNamesTheNetworkAndCounts)
{
    Partitioner partitioner(estimate, {}, &cache);
    ::testing::internal::CaptureStderr();
    partitioner.partition(net, 99, batch);
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("[warn] network 'PartTest' has 4 layers; "
                       "clamping 99 pipeline stages to 4\n"),
              std::string::npos)
        << err;
}

TEST(LinkModel, SaturationWarningSpellsOutTheBytes)
{
    LinkConfig link;
    link.bandwidthGBps = 100.0;
    ::testing::internal::CaptureStderr();
    transferCycles(link, kMax, 200.0);
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("[warn] link transfer of 18446744073709551615 "
                       "bytes saturates the 64-bit cycle count\n"),
              std::string::npos)
        << err;
}

TEST_F(PartitionFixture, FatalsSpellOutTheBadValue)
{
    Partitioner partitioner(estimate, {}, &cache);
    EXPECT_EXIT(partitioner.partition(net, 0, batch),
                ::testing::ExitedWithCode(1),
                "\\[fatal\\] pipeline needs at least 1 stage, got 0");
    EXPECT_EXIT(partitioner.partition(net, 2, 0),
                ::testing::ExitedWithCode(1),
                "\\[fatal\\] batch must be at least 1, got 0");
    PipelineSimulator sim(estimate, {}, &cache);
    const PartitionPlan plan = partitioner.partition(net, 2, batch);
    EXPECT_EXIT(sim.run(plan, 0), ::testing::ExitedWithCode(1),
                "pipeline stream needs at least 1 batch, got 0");
    LinkConfig dead;
    dead.bandwidthGBps = 0.0;
    EXPECT_EXIT(dead.check(), ::testing::ExitedWithCode(1),
                "link bandwidth must be positive, got 0 GB/s");
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
    // Deterministic: the same timing on the second call.
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
