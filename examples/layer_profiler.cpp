/**
 * @file
 * Layer profiler: the paper's Fig. 14 trace analyzers exposed as a
 * tool. Runs one workload on one configuration and prints, per
 * layer, the cycle breakdown by category (compute, weight loads,
 * fills, rewinds, psum moves, flushes, hand-offs, memory stalls) and
 * the utilization — the view used to find the Section V bottlenecks.
 *
 * Usage: layer_profiler [workload] [config]
 *   workload: alexnet|fasterrcnn|googlenet|mobilenet|resnet50|vgg16
 *             (default resnet50)
 *   config:   baseline|bufferopt|resourceopt|supernpu
 *             (default supernpu)
 */

#include <cctype>
#include <cstdio>
#include <cstring>

#include "common/logging.hh"
#include "common/table.hh"
#include "dnn/networks.hh"
#include "estimator/npu_estimator.hh"
#include "npusim/batch.hh"
#include "npusim/sim.hh"

using namespace supernpu;

namespace {

dnn::Network
pickWorkload(const char *name)
{
    for (const auto &net : dnn::evaluationWorkloads()) {
        std::string lowered;
        for (char c : net.name)
            lowered += (char)std::tolower((unsigned char)c);
        if (lowered == name)
            return net;
    }
    fatal("unknown workload '", name,
          "' (try alexnet, fasterrcnn, googlenet, mobilenet, "
          "resnet50, vgg16)");
}

estimator::NpuConfig
pickConfig(const char *name)
{
    if (!std::strcmp(name, "baseline"))
        return estimator::NpuConfig::baseline();
    if (!std::strcmp(name, "bufferopt"))
        return estimator::NpuConfig::bufferOpt();
    if (!std::strcmp(name, "resourceopt"))
        return estimator::NpuConfig::resourceOpt();
    if (!std::strcmp(name, "supernpu"))
        return estimator::NpuConfig::superNpu();
    fatal("unknown config '", name,
          "' (try baseline, bufferopt, resourceopt, supernpu)");
}

} // namespace

int
main(int argc, char **argv)
{
    const dnn::Network net =
        pickWorkload(argc > 1 ? argv[1] : "resnet50");
    const estimator::NpuConfig config =
        pickConfig(argc > 2 ? argv[2] : "supernpu");

    sfq::DeviceConfig device;
    sfq::CellLibrary library(device);
    estimator::NpuEstimator npu_estimator(library);
    const auto estimate = npu_estimator.estimate(config);
    npusim::NpuSimulator sim(estimate);
    const int batch = npusim::maxBatch(config, estimate, net);
    const auto run = sim.run(net, batch);

    std::printf("%s on %s — batch %d, %.1f GHz, %.1f TMAC/s effective"
                " (%.1f%% PE utilization)\n\n",
                net.name.c_str(), config.name.c_str(), batch,
                run.frequencyGhz, run.effectiveMacPerSec() / 1e12,
                100.0 * run.peUtilization(config.peCount()));

    TextTable table("per-layer cycle breakdown (kilocycles)");
    table.row()
        .cell("layer")
        .cell("compute")
        .cell("weights")
        .cell("fill")
        .cell("rewind")
        .cell("psum")
        .cell("flush")
        .cell("handoff")
        .cell("stall")
        .cell("maps")
        .cell("util %");

    auto kc = [](std::uint64_t cycles) { return (double)cycles / 1e3; };
    for (const auto &layer : run.layers()) {
        const double util =
            (double)layer.macOps /
            ((double)layer.totalCycles() * config.peCount());
        table.row()
            .cell(layer.layerName)
            .cell(kc(layer.computeCycles), 1)
            .cell(kc(layer.prep.weightLoad), 1)
            .cell(kc(layer.prep.ifmapFill), 1)
            .cell(kc(layer.prep.ifmapRewind), 1)
            .cell(kc(layer.prep.psumMove), 1)
            .cell(kc(layer.prep.outputFlush), 1)
            .cell(kc(layer.prep.outputHandoff), 1)
            .cell(kc(layer.memoryStallCycles), 1)
            .cell((unsigned long long)layer.weightMappings)
            .cell(100.0 * util, 1);
    }
    table.print();

    TextTable totals("totals");
    totals.row().cell("category").cell("kilocycles").cell("share %");
    const double total = (double)run.totalCycles;
    auto add = [&](const char *name, std::uint64_t cycles) {
        totals.row().cell(name).cell(kc(cycles), 1).cell(
            100.0 * (double)cycles / total, 1);
    };
    add("compute", run.computeCycles);
    add("weight load", run.prep.weightLoad);
    add("ifmap fill", run.prep.ifmapFill);
    add("ifmap rewind", run.prep.ifmapRewind);
    add("psum move", run.prep.psumMove);
    add("output flush", run.prep.outputFlush);
    add("output handoff", run.prep.outputHandoff);
    add("memory stall", run.memoryStallCycles);
    std::printf("\n");
    totals.print();
    return 0;
}
