/**
 * @file
 * Pipeline-parallel cycle simulator implementation.
 */

#include "pipeline_sim.hh"

#include "common/logging.hh"
#include "perf/profile.hh"

namespace supernpu {
namespace partition {

double
PipelineResult::makespanSec() const
{
    return (double)makespanCycles / (plan.frequencyGhz * 1e9);
}

double
PipelineResult::steadyBatchesPerSec() const
{
    return 1.0 / plan.intervalSec();
}

double
PipelineResult::steadyInferencesPerSec() const
{
    return (double)plan.batch * steadyBatchesPerSec();
}

double
PipelineResult::effectiveMacPerSec() const
{
    return (double)macOpsPerBatch * steadyBatchesPerSec();
}

PipelineSimulator::PipelineSimulator(
    const estimator::NpuEstimate &estimate, LinkConfig link,
    npusim::SimCache *cache)
    : _partitioner(estimate, link, cache)
{
}

PipelineResult
PipelineSimulator::run(const dnn::Network &network, int stages,
                       int batch, int batches) const
{
    perf::Scope perf_scope("pipeline.run");
    if (perf::enabled()) {
        static perf::Counter &plans = perf::counter("pipeline.plans");
        plans.add(1);
    }
    return run(_partitioner.partition(network, stages, batch),
               batches);
}

PipelineResult
PipelineSimulator::run(const PartitionPlan &plan, int batches) const
{
    if (batches < 1)
        fatal("pipeline stream needs at least 1 batch, got ", batches);

    PipelineResult result;
    result.plan = plan;
    result.batches = batches;
    result.makespanCycles =
        plan.fillCycles +
        (std::uint64_t)(batches - 1) * plan.bottleneckCycles;
    for (const auto &stage : plan.stages) {
        result.totalStageCycles += stage.stageCycles;
        result.totalLinkCycles += stage.linkCycles;
        result.macOpsPerBatch += stage.sim->macOps;
    }
    return result;
}

PipelineServiceModel::PipelineServiceModel(
    const estimator::NpuEstimate &estimate, dnn::Network network,
    int stages, LinkConfig link, npusim::SimCache *cache)
    : _partitioner(estimate, link, cache), _net(std::move(network)),
      _stages(stages)
{
    SUPERNPU_ASSERT(stages >= 1, "stage count must be positive");
    _net.check();
}

PipelineServiceModel::Timing
PipelineServiceModel::timing(int batch) const
{
    const PartitionPlan plan = _partitioner.partition(_net, _stages, batch);
    const double hz = plan.frequencyGhz * 1e9;
    Timing timing;
    timing.latencySec = plan.fillLatencySec();
    timing.intervalSec = plan.intervalSec();
    double start = 0.0;
    for (const auto &stage : plan.stages) {
        double busy = (double)stage.occupancyCycles() / hz;
        timing.stageStartSec.push_back(start);
        timing.stageBusySec.push_back(busy);
        start += busy;
    }
    return timing;
}

} // namespace partition
} // namespace supernpu
