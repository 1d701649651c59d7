/**
 * @file
 * Regenerates Fig. 23, the paper's headline evaluation: per-workload
 * throughput of the four SFQ NPU design points normalized to the
 * TPU-class comparator, each at its Table II maximum batch.
 * Paper averages: Baseline 0.4x, Buffer opt. 7.7x, Resource opt.
 * 17.3x, SuperNPU 23x (MobileNet peaking around 42x).
 */

#include <cstdio>
#include <limits>
#include <string>

#include "bench_common.hh"

using namespace supernpu;

int
main()
{
    bench::Pipeline pipe;

    TextTable table("Fig. 23: speed-up over the TPU comparator");
    table.row()
        .cell("workload")
        .cell("TPU (TMAC/s)")
        .cell("Baseline")
        .cell("Buffer opt.")
        .cell("Resource opt.")
        .cell("SuperNPU");

    const auto configs = bench::tableOneConfigs();
    std::vector<double> average(configs.size(), 0.0);
    // The SuperNPU column (the last design point) at its lowest.
    double min_speedup = std::numeric_limits<double>::infinity();
    std::string min_workload;

    for (const auto &net : pipe.workloads) {
        const int tpu_batch = npusim::maxBatchUnified(
            pipe.tpuConfig.unifiedBufferBytes, net);
        const double tpu_perf =
            pipe.tpu.run(net, tpu_batch).effectiveMacPerSec();

        auto &row = table.row();
        row.cell(net.name).cell(tpu_perf / 1e12, 2);
        for (std::size_t i = 0; i < configs.size(); ++i) {
            const auto est = pipe.estimator.estimate(configs[i]);
            npusim::NpuSimulator sim(est);
            const int batch =
                npusim::maxBatch(configs[i], est, net);
            const double speedup =
                sim.run(net, batch).effectiveMacPerSec() / tpu_perf;
            average[i] += speedup / (double)pipe.workloads.size();
            row.cell(speedup, 2);
            if (i + 1 == configs.size() && speedup < min_speedup) {
                min_speedup = speedup;
                min_workload = net.name;
            }
        }
    }

    auto &avg_row = table.row();
    avg_row.cell("AVERAGE").cell("");
    for (double a : average)
        avg_row.cell(a, 2);
    table.print();

    std::printf("\npaper reference: averages 0.4x / 7.7x / 17.3x / 23x;"
                " MobileNet is the largest column (~42x);"
                " every workload gains >10x on SuperNPU.\n");
    std::printf("reproduced: the smallest SuperNPU gain is %.2fx (%s).\n",
                min_speedup, min_workload.c_str());
    return 0;
}
