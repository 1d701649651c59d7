/**
 * @file
 * Design-space explorer implementation.
 */

#include "explorer.hh"

#include <algorithm>

#include "batch.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/units.hh"
#include "estimator/design_rules.hh"
#include "perf/profile.hh"
#include "sim.hh"

namespace supernpu {
namespace npusim {

const char *
objectiveName(Objective objective)
{
    switch (objective) {
      case Objective::Throughput:
        return "throughput";
      case Objective::PerfPerWatt:
        return "perf/W";
      case Objective::PerfPerArea:
        return "perf/area";
    }
    panic("unknown objective");
}

DesignSpaceExplorer::DesignSpaceExplorer(
    const sfq::CellLibrary &lib, std::vector<dnn::Network> workloads)
    : _lib(lib), _workloads(std::move(workloads))
{
    SUPERNPU_ASSERT(!_workloads.empty(), "no workloads to score");
}

estimator::NpuConfig
DesignSpaceExplorer::makeConfig(int width, int division, int regs,
                                int buffer_mb)
{
    estimator::NpuConfig config;
    config.name = "w";
    config.name += std::to_string(width);
    config.name += "/d";
    config.name += std::to_string(division);
    config.name += "/r";
    config.name += std::to_string(regs);
    config.peWidth = width;
    config.peHeight = 256;
    config.integratedOutputBuffer = true;
    const std::uint64_t half =
        (std::uint64_t)buffer_mb / 2 * units::MiB;
    config.ifmapBufferBytes = half;
    config.outputBufferBytes =
        (std::uint64_t)buffer_mb * units::MiB - half;
    config.ifmapDivision = std::min(division, 64);
    config.outputDivision = division;
    config.regsPerPe = regs;
    config.weightBufferBytes =
        (std::uint64_t)width * 256 * (std::uint64_t)regs;
    return config;
}

Candidate
DesignSpaceExplorer::evaluate(
    const estimator::NpuEstimator &npu_estimator,
    const estimator::NpuConfig &config, Objective objective) const
{
    Candidate cand;
    cand.config = config;
    const auto est = npu_estimator.estimate(cand.config);
    cand.areaMm2 = est.areaMm2;

    const auto findings =
        estimator::checkDesignRules(cand.config, est);
    if (!estimator::designIsOperable(findings)) {
        cand.operable = false;
        for (const auto &finding : findings) {
            if (finding.severity == estimator::RuleSeverity::Error) {
                cand.note = finding.message;
                break;
            }
        }
        return cand;
    }

    NpuSimulator sim(est);
    double dynamic = 0.0;
    for (const auto &net : _workloads) {
        const int batch = maxBatch(cand.config, est, net);
        std::shared_ptr<const SimResult> run;
        if (_cache) {
            run = _cache->getOrRun(sim, net, batch);
        } else {
            run = std::make_shared<const SimResult>(sim.run(net, batch));
        }
        cand.avgMacPerSec +=
            run->effectiveMacPerSec() / (double)_workloads.size();
        dynamic +=
            power::analyze(est, *run).dynamicW / (double)_workloads.size();
    }
    cand.chipPowerW = est.staticPowerW + dynamic;

    switch (objective) {
      case Objective::Throughput:
        cand.score = cand.avgMacPerSec;
        break;
      case Objective::PerfPerWatt:
        cand.score = cand.avgMacPerSec / cand.chipPowerW;
        break;
      case Objective::PerfPerArea:
        cand.score = cand.avgMacPerSec / cand.areaMm2;
        break;
    }
    return cand;
}

std::vector<Candidate>
DesignSpaceExplorer::explore(const ExplorationSpace &space,
                             Objective objective, int jobs) const
{
    ThreadPool pool(jobs);
    return explore(space, objective, pool);
}

std::vector<Candidate>
DesignSpaceExplorer::explore(const ExplorationSpace &space,
                             Objective objective,
                             ThreadPool &pool) const
{
    perf::Scope perf_scope("explorer.explore");
    const ThreadPool::Stats pool_before = pool.stats();

    SUPERNPU_ASSERT(space.widths.size() ==
                        space.bufferMbForWidth.size(),
                    "bufferMbForWidth must parallel widths");

    // Flatten the knob nest in the canonical (width, division, regs)
    // order; parallelMap fills result slots in this same order, so
    // the pre-sort candidate sequence is independent of `jobs`.
    std::vector<estimator::NpuConfig> configs;
    for (std::size_t w = 0; w < space.widths.size(); ++w) {
        for (int division : space.divisions) {
            for (int regs : space.regsPerPe) {
                configs.push_back(makeConfig(space.widths[w], division,
                                             regs,
                                             space.bufferMbForWidth[w]));
            }
        }
    }

    estimator::NpuEstimator npu_estimator(_lib);
    std::vector<Candidate> candidates =
        pool.parallelMap(configs.size(), [&](std::size_t i) {
            return evaluate(npu_estimator, configs[i], objective);
        });

    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const Candidate &a, const Candidate &b) {
                         if (a.operable != b.operable)
                             return a.operable;
                         return a.score > b.score;
                     });

    // Fold this sweep's share of the pool's lifetime counters into
    // the perf registry (the pool itself stays perf-agnostic).
    if (perf::enabled()) {
        const ThreadPool::Stats pool_after = pool.stats();
        static perf::Counter &tasks =
            perf::counter("explorer.poolTasks");
        static perf::Counter &loops =
            perf::counter("explorer.poolLoops");
        static perf::Counter &evaluated =
            perf::counter("explorer.candidates");
        tasks.add(pool_after.tasks - pool_before.tasks);
        loops.add(pool_after.loops - pool_before.loops);
        evaluated.add(candidates.size());
    }
    return candidates;
}

} // namespace npusim
} // namespace supernpu
