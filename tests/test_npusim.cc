/**
 * @file
 * Tests for the cycle-level NPU performance simulator: the batch
 * solver (Table II), MAC conservation, the Fig. 15/18/20/22 cost
 * mechanics, the optimization-step orderings, and the composition
 * of stage sub-networks from a whole-network run (runRange).
 */

#include <gtest/gtest.h>

#include <tuple>

#include "common/units.hh"
#include "dnn/networks.hh"
#include "npusim/batch.hh"
#include "npusim/mapping.hh"
#include "npusim/sim.hh"
#include "npusim/sim_cache.hh"
#include "obs/ledger.hh"

namespace supernpu {
namespace npusim {
namespace {

using estimator::NpuConfig;
using estimator::NpuEstimate;
using estimator::NpuEstimator;

class SimFixture : public ::testing::Test
{
  protected:
    sfq::DeviceConfig dev;
    sfq::CellLibrary lib{dev};
    NpuEstimator estimator{lib};

    NpuEstimate
    estimate(const NpuConfig &config) const
    {
        return estimator.estimate(config);
    }
};

// --- batch solver (Table II) ----------------------------------------------

TEST_F(SimFixture, BaselineBatchIsOneEverywhere)
{
    const NpuConfig config = NpuConfig::baseline();
    const NpuEstimate est = estimate(config);
    for (const auto &net : dnn::evaluationWorkloads())
        EXPECT_EQ(maxBatch(config, est, net), 1) << net.name;
}

TEST_F(SimFixture, BufferOptBatchesMatchTableTwo)
{
    const NpuConfig config = NpuConfig::bufferOpt();
    const NpuEstimate est = estimate(config);
    const auto nets = dnn::evaluationWorkloads();
    // Table II: AlexNet 15, GoogLeNet 3, MobileNet 3, ResNet50 3,
    // VGG16 1.
    EXPECT_NEAR(maxBatch(config, est, nets[0]), 15, 1); // AlexNet
    EXPECT_EQ(maxBatch(config, est, nets[2]), 3);       // GoogLeNet
    EXPECT_EQ(maxBatch(config, est, nets[3]), 3);       // MobileNet
    EXPECT_EQ(maxBatch(config, est, nets[4]), 3);       // ResNet50
    EXPECT_EQ(maxBatch(config, est, nets[5]), 1);       // VGG16
}

TEST_F(SimFixture, SuperNpuBatchesMatchTableTwo)
{
    const NpuConfig config = NpuConfig::superNpu();
    const NpuEstimate est = estimate(config);
    const auto nets = dnn::evaluationWorkloads();
    // Table II: 30 for most workloads, 7 for VGG16.
    EXPECT_EQ(maxBatch(config, est, nets[0]), 30); // AlexNet
    EXPECT_EQ(maxBatch(config, est, nets[2]), 30); // GoogLeNet
    EXPECT_EQ(maxBatch(config, est, nets[3]), 30); // MobileNet
    EXPECT_EQ(maxBatch(config, est, nets[4]), 30); // ResNet50
    EXPECT_EQ(maxBatch(config, est, nets[5]), 7);  // VGG16
}

TEST_F(SimFixture, UnifiedBatchMatchesTpuColumn)
{
    // Table II: the TPU runs AlexNet at batch 22 from its 24 MB
    // buffer / the 1.05 MB largest layer.
    const auto nets = dnn::evaluationWorkloads();
    const std::uint64_t buffer = 24 * units::MiB;
    EXPECT_NEAR(maxBatchUnified(buffer, nets[0]), 22, 1); // AlexNet
    EXPECT_EQ(maxBatchUnified(buffer, nets[5]), 3);       // VGG16
}

TEST_F(SimFixture, BatchIsClampedToCap)
{
    // A tiny network would fit hundreds of batches; the solver
    // follows the paper's conservative cap of 30.
    dnn::Network tiny;
    tiny.name = "tiny";
    tiny.layers = {dnn::conv("c", 8, 8, 64, 3)};
    const NpuConfig config = NpuConfig::superNpu();
    EXPECT_EQ(maxBatch(config, estimate(config), tiny), batchCap);
}

TEST_F(SimFixture, OutputWidthUnderutilizationBindsBatch)
{
    // Fig. 18(b): K = 64 filters on a 256-wide array strands 3/4 of
    // the output buffer; the same layer on a 64-wide array does not.
    dnn::Network narrow_k;
    narrow_k.name = "narrowK";
    narrow_k.layers = {dnn::conv("c", 64, 112, 64, 3)};

    const NpuConfig wide = NpuConfig::bufferOpt();     // width 256
    const NpuConfig narrow = NpuConfig::resourceOpt(); // width 64
    const int batch_wide = maxBatch(wide, estimate(wide), narrow_k);
    const int batch_narrow =
        maxBatch(narrow, estimate(narrow), narrow_k);
    EXPECT_GT(batch_narrow, 2 * batch_wide);
}

// --- mapping plans ----------------------------------------------------------

TEST_F(SimFixture, MappingPlanCoversEveryWeightOnce)
{
    for (const NpuConfig &config :
         {NpuConfig::baseline(), NpuConfig::superNpu()}) {
        for (const auto &net : dnn::evaluationWorkloads()) {
            for (const auto &layer : net.layers) {
                const MappingPlan plan =
                    MappingPlan::build(layer, config);
                EXPECT_EQ(plan.totalWeightBytes(), layer.weightBytes())
                    << net.name << "/" << layer.name;
                EXPECT_EQ(plan.mappings.size(),
                          plan.rowFolds * plan.colFolds)
                    << layer.name;
            }
        }
    }
}

TEST_F(SimFixture, MappingPlanCoversEveryMac)
{
    const NpuConfig config = NpuConfig::superNpu();
    for (const auto &net : dnn::evaluationWorkloads()) {
        for (const auto &layer : net.layers) {
            const MappingPlan plan = MappingPlan::build(layer, config);
            EXPECT_EQ(plan.totalMacs(layer.outputPositions(), 3),
                      layer.macCount() * 3ull)
                << net.name << "/" << layer.name;
        }
    }
}

TEST_F(SimFixture, RegistersShrinkColumnFolds)
{
    const dnn::Layer layer = dnn::conv("wide", 256, 14, 2048, 3);
    const MappingPlan one =
        MappingPlan::build(layer, NpuConfig::resourceOpt());
    const MappingPlan eight =
        MappingPlan::build(layer, NpuConfig::superNpu());
    EXPECT_EQ(one.colFolds, 32ull);  // 2048 / 64
    EXPECT_EQ(eight.colFolds, 4ull); // 2048 / (64 * 8)
    EXPECT_EQ(one.rowFolds, eight.rowFolds);
}

TEST_F(SimFixture, DepthwisePlansOneFilterPerMapping)
{
    const dnn::Layer layer = dnn::depthwise("dw", 128, 14, 1);
    const MappingPlan plan =
        MappingPlan::build(layer, NpuConfig::superNpu());
    EXPECT_TRUE(plan.depthwise);
    EXPECT_EQ(plan.colFolds, 128ull);
    for (const auto &mapping : plan.mappings) {
        EXPECT_EQ(mapping.activeCols, 1ull);
        EXPECT_EQ(mapping.activeRows, 9ull);
    }
}

// --- MAC conservation -------------------------------------------------------

/** The simulator executes exactly batch x layer MACs, per config. */
class MacConservation : public ::testing::TestWithParam<int>
{
};

TEST_P(MacConservation, MacsMatchAnalytical)
{
    sfq::DeviceConfig dev;
    sfq::CellLibrary lib(dev);
    NpuEstimator estimator(lib);
    const NpuConfig configs[] = {
        NpuConfig::baseline(), NpuConfig::bufferOpt(),
        NpuConfig::resourceOpt(), NpuConfig::superNpu()};
    const NpuConfig &config = configs[GetParam()];
    const NpuEstimate est = estimator.estimate(config);
    NpuSimulator sim(est);

    for (const auto &net : dnn::evaluationWorkloads()) {
        const int batch = 3;
        const SimResult result = sim.run(net, batch);
        EXPECT_EQ(result.macOps, net.totalMacs() * (std::uint64_t)batch)
            << net.name << " on " << config.name;
    }
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, MacConservation,
                         ::testing::Range(0, 4));

// --- trace recorder ----------------------------------------------------------

TEST_F(SimFixture, TraceRecordsOneEventPerMapping)
{
    const NpuEstimate est = estimate(NpuConfig::superNpu());
    NpuSimulator sim(est);
    TraceRecorder trace;
    sim.setTrace(&trace);
    const dnn::Layer layer = dnn::conv("c", 256, 14, 512, 3);
    const LayerResult res = sim.simulateLayer(layer, 2);
    EXPECT_EQ(trace.events().size(), res.weightMappings);

    // Per-event sums reconcile with the layer aggregates.
    std::uint64_t macs = 0, compute = 0, weight = 0;
    for (const auto &event : trace.events()) {
        macs += event.macOps;
        compute += event.computeCycles;
        weight += event.weightLoadCycles;
        EXPECT_EQ(event.layer, "c");
    }
    EXPECT_EQ(macs, res.macOps);
    EXPECT_EQ(compute, res.computeCycles);
    EXPECT_EQ(weight, res.prep.weightLoad);
}

TEST_F(SimFixture, TraceCsvHasHeaderAndRows)
{
    const NpuEstimate est = estimate(NpuConfig::superNpu());
    NpuSimulator sim(est);
    TraceRecorder trace;
    sim.setTrace(&trace);
    sim.simulateLayer(dnn::conv("layerX", 64, 14, 64, 3), 1);
    const std::string csv = trace.csv();
    EXPECT_NE(csv.find("layer,col_fold,row_fold"), std::string::npos);
    EXPECT_NE(csv.find("layerX,0,0,"), std::string::npos);
    trace.clear();
    EXPECT_TRUE(trace.events().empty());
}

TEST_F(SimFixture, DetachedTraceRecordsNothing)
{
    const NpuEstimate est = estimate(NpuConfig::superNpu());
    NpuSimulator sim(est);
    TraceRecorder trace;
    sim.setTrace(&trace);
    sim.setTrace(nullptr);
    sim.simulateLayer(dnn::conv("c", 64, 14, 64, 3), 1);
    EXPECT_TRUE(trace.events().empty());
}

// --- cycle accounting basics -----------------------------------------------

TEST_F(SimFixture, LayerTotalsRollUp)
{
    const NpuEstimate est = estimate(NpuConfig::superNpu());
    NpuSimulator sim(est);
    const SimResult result = sim.run(dnn::makeResNet50(), 4);
    std::uint64_t compute = 0, prep = 0, stall = 0, macs = 0;
    for (const auto &layer : result.layers()) {
        compute += layer.computeCycles;
        prep += layer.prepCycles;
        stall += layer.memoryStallCycles;
        macs += layer.macOps;
    }
    EXPECT_EQ(compute, result.computeCycles);
    EXPECT_EQ(prep, result.prepCycles);
    EXPECT_EQ(stall, result.memoryStallCycles);
    EXPECT_EQ(macs, result.macOps);
    EXPECT_EQ(result.totalCycles, compute + prep + stall);
}

TEST_F(SimFixture, PrepBreakdownAccountsEveryPrepCycle)
{
    // Every prep cycle the simulator charges must land in exactly
    // one trace bucket (the Fig. 14 analyzer invariant).
    for (const NpuConfig &config :
         {NpuConfig::baseline(), NpuConfig::bufferOpt(),
          NpuConfig::superNpu()}) {
        const NpuEstimate est = estimate(config);
        NpuSimulator sim(est);
        for (const auto &net : dnn::evaluationWorkloads()) {
            const SimResult r = sim.run(net, 2);
            EXPECT_EQ(r.prep.total(), r.prepCycles)
                << net.name << " on " << config.name;
            for (const auto &layer : r.layers()) {
                EXPECT_EQ(layer.prep.total(), layer.prepCycles)
                    << layer.layerName;
            }
        }
    }
}

TEST_F(SimFixture, BaselinePrepDominatedByBufferMovement)
{
    // Section V-A2: the Baseline's preparation is dominated by the
    // psum moves and ifmap rewinds of the monolithic buffers.
    const NpuEstimate est = estimate(NpuConfig::baseline());
    NpuSimulator sim(est);
    const SimResult r = sim.run(dnn::makeVgg16(), 1);
    const std::uint64_t movement = r.prep.psumMove + r.prep.ifmapRewind;
    EXPECT_GT(movement, r.prepCycles / 2);
}

TEST_F(SimFixture, SuperNpuEliminatesPsumMoves)
{
    const NpuEstimate base = estimate(NpuConfig::baseline());
    const NpuEstimate super = estimate(NpuConfig::superNpu());
    NpuSimulator sim_b(base), sim_s(super);
    const dnn::Network net = dnn::makeResNet50();
    const SimResult rb = sim_b.run(net, 1);
    const SimResult rs = sim_s.run(net, 1);
    EXPECT_LT(rs.prep.psumMove, rb.prep.psumMove / 100);
}

TEST_F(SimFixture, UtilizationNeverExceedsOne)
{
    for (const NpuConfig &config :
         {NpuConfig::baseline(), NpuConfig::superNpu()}) {
        const NpuEstimate est = estimate(config);
        NpuSimulator sim(est);
        for (const auto &net : dnn::evaluationWorkloads()) {
            const SimResult r = sim.run(net, 2);
            EXPECT_LE(r.peUtilization(config.peCount()), 1.0)
                << net.name;
            EXPECT_GT(r.totalCycles, 0ull) << net.name;
        }
    }
}

TEST_F(SimFixture, DramTrafficIncludesWeightsAtLeastOnce)
{
    const NpuEstimate est = estimate(NpuConfig::superNpu());
    NpuSimulator sim(est);
    for (const auto &net : dnn::evaluationWorkloads()) {
        const SimResult r = sim.run(net, 1);
        EXPECT_GE(r.dramBytes, net.totalWeightBytes()) << net.name;
    }
}

// --- Fig. 15: preparation dominates the Baseline ------------------------------

TEST_F(SimFixture, BaselinePreparationAboveNinetyPercent)
{
    const NpuEstimate est = estimate(NpuConfig::baseline());
    NpuSimulator sim(est);
    for (const auto &net : dnn::evaluationWorkloads()) {
        const SimResult r = sim.run(net, 1);
        EXPECT_GT(r.preparationFraction(), 0.90) << net.name;
    }
}

TEST_F(SimFixture, SuperNpuPreparationMuchLower)
{
    const NpuEstimate base = estimate(NpuConfig::baseline());
    const NpuEstimate super = estimate(NpuConfig::superNpu());
    NpuSimulator sim_b(base), sim_s(super);
    const dnn::Network net = dnn::makeResNet50();
    EXPECT_LT(sim_s.run(net, 30).preparationFraction(),
              sim_b.run(net, 1).preparationFraction());
}

// --- optimization-step orderings (Figs. 20-23 mechanics) ----------------------

namespace {

/** Average effective MAC/s over the six workloads at max batch. */
double
averagePerf(const NpuEstimator &estimator, const NpuConfig &config)
{
    const NpuEstimate est = estimator.estimate(config);
    NpuSimulator sim(est);
    double total = 0.0;
    const auto nets = dnn::evaluationWorkloads();
    for (const auto &net : nets) {
        const int batch = maxBatch(config, est, net);
        total += sim.run(net, batch).effectiveMacPerSec();
    }
    return total / (double)nets.size();
}

} // namespace

TEST_F(SimFixture, EachOptimizationStepHelps)
{
    const double base = averagePerf(estimator, NpuConfig::baseline());
    const double buffer = averagePerf(estimator, NpuConfig::bufferOpt());
    const double resource =
        averagePerf(estimator, NpuConfig::resourceOpt());
    const double super = averagePerf(estimator, NpuConfig::superNpu());
    EXPECT_GT(buffer, 4.0 * base);
    EXPECT_GT(resource, buffer);
    EXPECT_GT(super, resource);
}

TEST_F(SimFixture, DivisionImprovesSingleBatchPerformance)
{
    // Fig. 20's single-batch series: more chunks, shorter moves.
    const dnn::Network net = dnn::makeVgg16();
    double prev = 0.0;
    for (int division : {1, 4, 64}) {
        NpuConfig config = NpuConfig::baseline();
        config.name = "div";
        config.integratedOutputBuffer = division > 1;
        if (division > 1) {
            config.outputBufferBytes = 12 * units::MiB;
            config.ifmapBufferBytes = 12 * units::MiB;
            config.psumBufferBytes = 0;
            config.ofmapBufferBytes = 0;
        }
        config.ifmapDivision = division;
        config.outputDivision = division;
        const NpuEstimate est = estimate(config);
        NpuSimulator sim(est);
        const double perf = sim.run(net, 1).effectiveMacPerSec();
        EXPECT_GT(perf, prev) << "division " << division;
        prev = perf;
    }
}

TEST_F(SimFixture, IntegrationRemovesPsumMoves)
{
    // A many-row-fold layer exercises psum movement heavily.
    dnn::Network net;
    net.name = "deepC";
    net.layers = {dnn::conv("c", 512, 14, 128, 3)};

    NpuConfig separate = NpuConfig::baseline();
    NpuConfig integrated = NpuConfig::baseline();
    integrated.integratedOutputBuffer = true;
    integrated.outputBufferBytes = 16 * units::MiB;
    integrated.psumBufferBytes = 0;
    integrated.ofmapBufferBytes = 0;

    NpuSimulator sim_sep(estimate(separate));
    NpuSimulator sim_int(estimate(integrated));
    EXPECT_LT(sim_int.run(net, 1).prepCycles,
              sim_sep.run(net, 1).prepCycles / 2);
}

TEST_F(SimFixture, RegistersHelpManyFilterLayers)
{
    // Fig. 22's mechanism: with K >> width, weight registers cut the
    // column folds and the per-fold preparation.
    dnn::Network net;
    net.name = "manyK";
    net.layers = {dnn::conv("c", 256, 14, 2048, 3)};

    NpuConfig one = NpuConfig::resourceOpt();
    NpuConfig eight = NpuConfig::superNpu();
    NpuSimulator sim_one(estimate(one));
    NpuSimulator sim_eight(estimate(eight));
    const double p1 = sim_one.run(net, 8).effectiveMacPerSec();
    const double p8 = sim_eight.run(net, 8).effectiveMacPerSec();
    EXPECT_GT(p8, p1);
}

TEST_F(SimFixture, BatchRaisesThroughput)
{
    const NpuEstimate est = estimate(NpuConfig::superNpu());
    NpuSimulator sim(est);
    const dnn::Network net = dnn::makeAlexNet();
    const double b1 = sim.run(net, 1).effectiveMacPerSec();
    const double b30 = sim.run(net, 30).effectiveMacPerSec();
    EXPECT_GT(b30, 2.0 * b1);
}

TEST_F(SimFixture, OnChipChainingBeatsDramRefetch)
{
    const NpuEstimate est = estimate(NpuConfig::superNpu());
    NpuSimulator sim(est);
    const dnn::Layer layer = dnn::conv("c", 256, 28, 256, 3);
    const LayerResult cold = sim.simulateLayer(layer, 4, false);
    const LayerResult warm = sim.simulateLayer(layer, 4, true);
    EXPECT_LT(warm.totalCycles(), cold.totalCycles());
    EXPECT_LT(warm.dramBytes, cold.dramBytes);
}

// --- weight double-buffering (prev-mapping overlap) --------------------

TEST_F(SimFixture, DoubleBufferingHidesBehindPreviousMapping)
{
    // Regression: the fetch overlaps the compute of the mapping
    // simulated *before* it — zero before the first mapping (nothing
    // to hide behind), then the actual previous mapping's compute.
    // Pin the prep cycles of a 2-mapping layer analytically.
    NpuConfig config = NpuConfig::superNpu();
    config.weightDoubleBuffering = true;
    const NpuEstimate est = estimate(config);
    NpuSimulator sim(est);

    // 16 in-channels * 3x3 = 144 rows (one row fold on the 256-high
    // array); 1024 filters over 64 cols * 8 regs = two column folds.
    const dnn::Layer layer = dnn::conv("c", 16, 7, 1024, 3);
    const MappingPlan plan = MappingPlan::build(layer, config);
    ASSERT_EQ(plan.mappings.size(), 2u);

    const int batch = 2;
    const double cycles_per_byte =
        est.frequencyGhz * 1e9 / config.memoryBandwidth;
    const double shift = (double)(config.peHeight + config.peWidth);
    const std::uint64_t overhead = (std::uint64_t)(
        config.peHeight + config.peWidth + 2 * config.bitWidth - 1);
    const auto compute_of = [&](const WeightMapping &mapping) {
        return layer.outputPositions() * (std::uint64_t)batch *
                   mapping.regsUsed +
               overhead;
    };

    // First mapping: nothing precedes it, the full fetch is exposed.
    const double dram0 =
        (double)plan.mappings[0].weightBytes() * cycles_per_byte;
    // Second mapping: the fetch hides behind mapping 0's compute.
    const double dram1 = std::max(
        0.0, (double)plan.mappings[1].weightBytes() * cycles_per_byte -
                 (double)compute_of(plan.mappings[0]));
    const std::uint64_t expected =
        (std::uint64_t)std::max(shift, dram0) +
        (std::uint64_t)std::max(shift, dram1);

    const LayerResult res = sim.simulateLayer(layer, batch);
    EXPECT_EQ(res.prep.weightLoad, expected);
    EXPECT_EQ(res.lastMappingComputeCycles,
              compute_of(plan.mappings[1]));
}

TEST_F(SimFixture, FirstFetchOfTheRunHidesNothing)
{
    // The buggy accounting claimed overlap on the very first mapping
    // of the run; with the fix, a seeded previous compute lowers the
    // weight-load cost by exactly that amount (while the fetch stays
    // bandwidth-bound), and the default seed of zero lowers nothing.
    NpuConfig config = NpuConfig::superNpu();
    config.weightDoubleBuffering = true;
    const NpuEstimate est = estimate(config);
    NpuSimulator sim(est);

    const dnn::Layer layer = dnn::conv("c", 16, 7, 512, 3);
    const std::uint64_t hide = 1000;
    const LayerResult cold = sim.simulateLayer(layer, 1);
    const LayerResult warm = sim.simulateLayer(layer, 1, false, hide);
    EXPECT_EQ(cold.prep.weightLoad - warm.prep.weightLoad, hide);
}

TEST_F(SimFixture, RunThreadsOverlapAcrossLayers)
{
    // run() seeds each layer's first fetch with the previous layer's
    // last mapping compute — the whole-network totals must reconcile
    // with per-layer calls threaded the same way.
    NpuConfig config = NpuConfig::superNpu();
    config.weightDoubleBuffering = true;
    const NpuEstimate est = estimate(config);
    NpuSimulator sim(est);

    dnn::Network net;
    net.name = "chain";
    net.layers = {dnn::conv("a", 16, 7, 512, 3),
                  dnn::conv("b", 512, 7, 512, 3)};
    net.check();

    const SimResult whole = sim.run(net, 1);
    const LayerResult a = sim.simulateLayer(net.layers[0], 1, false, 0);
    const LayerResult b = sim.simulateLayer(
        net.layers[1], 1, a.outputOnChip, a.lastMappingComputeCycles);
    EXPECT_EQ(whole.layers()[0].prep.weightLoad, a.prep.weightLoad);
    EXPECT_EQ(whole.layers()[1].prep.weightLoad, b.prep.weightLoad);

    // Ignoring the cross-layer seed would overstate the second
    // layer's exposed fetch.
    const LayerResult b_unseeded =
        sim.simulateLayer(net.layers[1], 1, a.outputOnChip, 0);
    EXPECT_GT(b_unseeded.prep.weightLoad, b.prep.weightLoad);
}

TEST_F(SimFixture, DepthwiseUnderutilizesThePeArray)
{
    const NpuEstimate est = estimate(NpuConfig::superNpu());
    NpuSimulator sim(est);
    const dnn::Layer dw = dnn::depthwise("dw", 256, 14, 1);
    const dnn::Layer pw = dnn::conv("pw", 256, 14, 256, 1, 1, 0);
    const LayerResult rdw = sim.simulateLayer(dw, 4);
    const LayerResult rpw = sim.simulateLayer(pw, 4);
    const double util_dw =
        (double)rdw.macOps / (double)rdw.totalCycles();
    const double util_pw =
        (double)rpw.macOps / (double)rpw.totalCycles();
    EXPECT_LT(util_dw, util_pw / 10.0);
}

// --- stage composition (runRange) --------------------------------------------

/** Every LayerResult field, in declaration order. */
auto
layerFields(const LayerResult &l)
{
    return std::make_tuple(
        l.layerName, l.computeCycles, l.prepCycles, l.memoryStallCycles,
        l.prep.weightLoad, l.prep.ifmapFill, l.prep.ifmapRewind,
        l.prep.psumMove, l.prep.outputFlush, l.prep.outputHandoff,
        l.macOps, l.weightMappings, l.dramBytes, l.dramWeightBytes,
        l.dramIfmapBytes, l.dramOutputBytes, l.outputOnChip,
        l.lastMappingComputeCycles, l.ifmapShiftChunkCycles,
        l.outputShiftChunkCycles, l.dauWordsForwarded, l.nwHops);
}

/** Every SimResult field except the per-layer list. */
auto
totalFields(const SimResult &r)
{
    return std::make_tuple(
        r.networkName, r.configName, r.batch, r.frequencyGhz,
        r.layers().size(), r.totalCycles, r.computeCycles, r.prepCycles,
        r.memoryStallCycles, r.prep.weightLoad, r.prep.ifmapFill,
        r.prep.ifmapRewind, r.prep.psumMove, r.prep.outputFlush,
        r.prep.outputHandoff, r.macOps, r.dramBytes, r.dramWeightBytes,
        r.dramIfmapBytes, r.dramOutputBytes, r.ifmapShiftChunkCycles,
        r.outputShiftChunkCycles, r.dauWordsForwarded, r.nwHops,
        r.faultEventsInjected, r.faultRecomputeCycles);
}

/** One built-in workload per instance. */
class RangeComposition : public ::testing::TestWithParam<int>
{
};

TEST_P(RangeComposition, EveryRangeEqualsTheStandaloneSubNetwork)
{
    // A standalone stage is its head layer simulated cold plus the
    // wide run's later layers: runRange must equal run() on the
    // hand-built sub-network field by field and in the ledger, for
    // every range, both ends of the optimization ladder, double
    // buffering on and off, and batches up to one whose ifmaps no
    // longer fit on chip.
    std::vector<dnn::Network> nets = dnn::evaluationWorkloads();
    nets.push_back(dnn::makeResNet18());
    nets.push_back(dnn::makeVgg19());
    const dnn::Network &net = nets.at(GetParam());
    const int n = (int)net.layers.size();

    sfq::DeviceConfig dev;
    sfq::CellLibrary lib(dev);
    NpuEstimator estimator(lib);
    int cold_heads = 0, streamed_heads = 0;
    for (NpuConfig config : {NpuConfig::superNpu(), NpuConfig::baseline()}) {
        for (bool double_buffer : {false, true}) {
            config.weightDoubleBuffering = double_buffer;
            const NpuEstimate est = estimator.estimate(config);
            const NpuSimulator sim(est);
            for (int batch : {1, 7, maxBatch(config, est, net)}) {
                const auto whole =
                    std::make_shared<const SimResult>(sim.run(net, batch));
                for (int first = 0; first < n; ++first) {
                    const bool fits =
                        maxIfmapBatch(config, est, net.layers[first]) >=
                        batch;
                    ++(fits ? cold_heads : streamed_heads);
                    for (int last = first; last < n; ++last) {
                        SCOPED_TRACE(config.name + " db=" +
                                     std::to_string(double_buffer) +
                                     " batch=" + std::to_string(batch) +
                                     " [" + std::to_string(first) + ", " +
                                     std::to_string(last) + "]");
                        dnn::Network stage;
                        stage.name = net.name;
                        if (first != 0 || last != n - 1)
                            stage.name += "[" + std::to_string(first) +
                                          "-" + std::to_string(last) +
                                          "]";
                        stage.layers.assign(
                            net.layers.begin() + first,
                            net.layers.begin() + last + 1);
                        const SimResult expected = sim.run(stage, batch);
                        const SimResult composed =
                            sim.runRange(net, first, last, batch, whole);
                        ASSERT_EQ(totalFields(composed),
                                  totalFields(expected));
                        for (int l = 0; l <= last - first; ++l)
                            ASSERT_EQ(layerFields(composed.layers()[l]),
                                      layerFields(expected.layers()[l]))
                                << "layer " << l;
                        obs::RunLedger a, b;
                        obs::addSimResult(a, composed);
                        obs::addSimResult(b, expected);
                        ASSERT_EQ(a.json(), b.json());
                    }
                }
            }
        }
    }
    // Heads whose ifmap fills from DRAM and heads that stream it.
    EXPECT_GT(cold_heads, 0);
    EXPECT_GT(streamed_heads, 0);
}

INSTANTIATE_TEST_SUITE_P(BuiltinWorkloads, RangeComposition,
                         ::testing::Range(0, 8));

TEST_F(SimFixture, RunRangeRejectsAMismatchedWideRun)
{
    const NpuSimulator sim(estimate(NpuConfig::superNpu()));
    const dnn::Network net = dnn::makeAlexNet();
    const auto whole = std::make_shared<const SimResult>(sim.run(net, 2));
    EXPECT_DEATH(sim.runRange(net, 0, 1, 3, whole), "does not match");
    EXPECT_DEATH(sim.runRange(net, 2, 1, 2, whole), "layer range");
    TraceRecorder trace;
    NpuSimulator traced(estimate(NpuConfig::superNpu()));
    traced.setTrace(&trace);
    EXPECT_DEATH(traced.runRange(net, 0, 1, 2, whole), "trace");
}

TEST_F(SimFixture, RunRangeRejectsAComposedWideRun)
{
    // A stage's tail lives in a run that owns every layer; a stage
    // composed from another stage would chain them.
    const NpuSimulator sim(estimate(NpuConfig::superNpu()));
    const dnn::Network net = dnn::makeAlexNet();
    const int n = (int)net.layers.size();
    const auto whole = std::make_shared<const SimResult>(sim.run(net, 2));
    const auto composed = std::make_shared<const SimResult>(
        sim.runRange(net, 0, n - 1, 2, whole));
    ASSERT_EQ((int)composed->layers().size(), n);
    EXPECT_DEATH(sim.runRange(net, 1, 2, 2, composed),
                 "owns all its layers");
}

TEST_F(SimFixture, StageTailIsTheWideRunsLayersAndKeepsItAlive)
{
    // A composed stage owns its cold head only: every later layer is
    // the wide run's own object, and the stage keeps that run alive
    // after the cache evicts both and every other owner lets go.
    const NpuSimulator sim(estimate(NpuConfig::superNpu()));
    const dnn::Network net = dnn::makeResNet50();
    const int n = (int)net.layers.size(), batch = 2;
    const int first = 3, last = n - 4;
    dnn::Network sub;
    sub.name = net.name + "[" + std::to_string(first) + "-" +
               std::to_string(last) + "]";
    sub.layers.assign(net.layers.begin() + first,
                      net.layers.begin() + last + 1);
    const SimResult expected = sim.run(sub, batch);
    obs::RunLedger expected_ledger;
    obs::addSimResult(expected_ledger, expected);

    SimCache cache(1);
    const std::uint64_t config_hash = hashEstimate(sim.estimate());
    auto whole = cache.getOrRun({hashNetwork(net), config_hash, batch},
                                sim, net);
    auto stage = cache.getOrCompute({1, config_hash, batch}, [&] {
        return sim.runRange(net, first, last, batch, whole);
    });
    const LayerView wide_layers = whole->layers();
    const LayerView stage_layers = stage->layers();
    ASSERT_EQ((int)stage_layers.size(), last - first + 1);
    EXPECT_NE(&stage_layers[0], &wide_layers[first]);
    for (int l = 1; l <= last - first; ++l)
        EXPECT_EQ(&stage_layers[l], &wide_layers[first + l]) << l;
    int walked = 0;
    for (const LayerResult &layer : stage_layers) {
        EXPECT_EQ(&layer, &stage_layers[walked]) << walked;
        ++walked;
    }
    EXPECT_EQ(walked, last - first + 1);

    // Capacity 1: the stage evicted the wide run; a third key evicts
    // the stage. Then the stage is the wide run's last owner.
    cache.getOrCompute({2, config_hash, batch}, [] { return SimResult(); });
    ASSERT_EQ(cache.size(), 1u);
    ASSERT_EQ(cache.stats().misses, 3u);
    ASSERT_EQ(cache.stats().evictions, 2u);
    const std::weak_ptr<const SimResult> wide_alive = whole;
    whole.reset();
    EXPECT_EQ(wide_alive.use_count(), 1);

    // Fully readable: every layer and the ledger match the standalone
    // sub-network's run.
    ASSERT_EQ(stage->layers().size(), expected.layers().size());
    for (std::size_t l = 0; l < expected.layers().size(); ++l)
        EXPECT_EQ(layerFields(stage->layers()[l]),
                  layerFields(expected.layers()[l]))
            << "layer " << l;
    obs::RunLedger ledger;
    obs::addSimResult(ledger, *stage);
    EXPECT_EQ(ledger.json(), expected_ledger.json());

    stage.reset();
    EXPECT_TRUE(wide_alive.expired());
}

} // namespace
} // namespace npusim
} // namespace supernpu
