/**
 * @file
 * Conservation-invariant implementations.
 */

#include "audit.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "common/logging.hh"
#include "json_writer.hh"

#ifndef SUPERNPU_AUDIT_DEFAULT
#define SUPERNPU_AUDIT_DEFAULT 0
#endif

namespace supernpu {
namespace obs {

std::string
Violation::str() const
{
    return source + ":" + metric + " expected " + expected + " got " +
           got;
}

std::string
AuditReport::summary() const
{
    std::string out;
    for (const Violation &violation : violations) {
        if (!out.empty())
            out += '\n';
        out += violation.str();
    }
    return out;
}

void
AuditReport::merge(const AuditReport &other)
{
    violations.insert(violations.end(), other.violations.begin(),
                      other.violations.end());
}

namespace {

/**
 * Violation-message rendering of a double. jsonNumber() fatal()s on
 * non-finite input, but a *violated* metric can legitimately be NaN
 * — that is precisely what the message must be able to say — so
 * non-finite values render through iostream ("inf"/"nan") here.
 */
std::string
realText(double value)
{
    if (!std::isfinite(value)) {
        std::ostringstream os;
        os << value;
        return os.str();
    }
    return jsonNumber(value);
}

/** Relative slack for comparisons between derived doubles. */
bool
nearlyLe(double a, double b)
{
    const double slack =
        1e-9 * std::max({1.0, std::fabs(a), std::fabs(b)});
    return a <= b + slack;
}

void
expectEq(AuditReport &report, const std::string &source,
         const std::string &metric, std::uint64_t expected,
         std::uint64_t got)
{
    if (expected != got) {
        report.violations.push_back(
            Violation{source, metric, std::to_string(expected),
                      std::to_string(got)});
    }
}

void
expectLe(AuditReport &report, const std::string &source,
         const std::string &metric, double value, double bound)
{
    if (!nearlyLe(value, bound)) {
        report.violations.push_back(
            Violation{source, metric, "<= " + realText(bound),
                      realText(value)});
    }
}

void
expectRange(AuditReport &report, const std::string &source,
            const std::string &metric, double value, double lo,
            double hi)
{
    if (!nearlyLe(lo, value) || !nearlyLe(value, hi)) {
        report.violations.push_back(Violation{
            source, metric,
            "in [" + realText(lo) + ", " + realText(hi) + "]",
            realText(value)});
    }
}

void
auditLayer(AuditReport &report, const npusim::LayerResult &layer)
{
    const std::string source = "sim/" + layer.layerName;
    expectEq(report, source, "prepCycles", layer.prep.total(),
             layer.prepCycles);
    expectEq(report, source, "dramBytes",
             layer.dramWeightBytes + layer.dramIfmapBytes +
                 layer.dramOutputBytes,
             layer.dramBytes);
}

} // namespace

AuditReport
auditSim(const npusim::SimResult &result)
{
    AuditReport report;

    std::uint64_t compute = 0, prep = 0, stall = 0, macs = 0;
    std::uint64_t dram = 0, dram_weight = 0, dram_ifmap = 0;
    std::uint64_t dram_output = 0;
    npusim::PrepBreakdown buckets;
    for (const npusim::LayerResult &layer : result.layers()) {
        auditLayer(report, layer);
        compute += layer.computeCycles;
        prep += layer.prepCycles;
        stall += layer.memoryStallCycles;
        macs += layer.macOps;
        dram += layer.dramBytes;
        dram_weight += layer.dramWeightBytes;
        dram_ifmap += layer.dramIfmapBytes;
        dram_output += layer.dramOutputBytes;
        buckets.add(layer.prep);
    }

    // Cycle roll-ups: layers -> network totals -> totalCycles.
    expectEq(report, "sim", "computeCycles", compute,
             result.computeCycles);
    expectEq(report, "sim", "prepCycles", prep, result.prepCycles);
    expectEq(report, "sim", "memoryStallCycles", stall,
             result.memoryStallCycles);
    expectEq(report, "sim", "totalCycles",
             result.computeCycles + result.prepCycles +
                 result.memoryStallCycles,
             result.totalCycles);
    expectEq(report, "sim", "prepBucketTotal", result.prep.total(),
             result.prepCycles);
    expectEq(report, "sim", "prepBucketSum", buckets.total(),
             result.prep.total());
    expectEq(report, "sim", "prepWeightLoad", buckets.weightLoad,
             result.prep.weightLoad);
    expectEq(report, "sim", "macOps", macs, result.macOps);

    // DRAM traffic decomposes exactly into its three streams.
    expectEq(report, "sim", "dramBytes", dram, result.dramBytes);
    expectEq(report, "sim", "dramStreamBytes",
             dram_weight + dram_ifmap + dram_output, result.dramBytes);

    return report;
}

AuditReport
auditServing(const serving::ServingReport &report)
{
    AuditReport audit;

    // Request conservation: the event loop drains every arrival.
    expectEq(audit, "serving", "completed", report.generated,
             report.completed);

    // Busy time is bounded by total chip-time.
    double busy = 0.0;
    for (double chip_busy : report.perChipBusySec) {
        expectLe(audit, "serving", "chipBusySec", -chip_busy, 0.0);
        busy += chip_busy;
    }
    expectLe(audit, "serving", "sumBusySec", busy,
             (double)report.chips * report.makespanSec);
    expectRange(audit, "serving", "utilization", report.utilization,
                0.0, 1.0);

    // Rates and ranges.
    expectLe(audit, "serving", "goodputRps", report.goodputRps,
             report.throughputRps);
    expectRange(audit, "serving", "availability", report.availability,
                0.0, 1.0);
    expectLe(audit, "serving", "meanQueueDepth",
             -report.meanQueueDepth, 0.0);

    // The latency tail is monotone and bounded by the max.
    expectLe(audit, "serving", "latencyP50", report.latencyP50,
             report.latencyP95);
    expectLe(audit, "serving", "latencyP95", report.latencyP95,
             report.latencyP99);
    expectLe(audit, "serving", "latencyP99", report.latencyP99,
             report.latencyP999);
    expectLe(audit, "serving", "latencyP999", report.latencyP999,
             report.latencyMax);
    expectLe(audit, "serving", "latencyMean", report.latencyMean,
             report.latencyMax);
    if (report.completed == 0) {
        // Empty runs must report zeros, not garbage (the
        // RunningStats/Histogram empty-semantics contract).
        expectLe(audit, "serving", "emptyLatencyMax",
                 report.latencyMax, 0.0);
        expectEq(audit, "serving", "emptyMaxBatchLaunched", 0,
                 (std::uint64_t)report.maxBatchLaunched);
    }

    // Batch accounting.
    expectLe(audit, "serving", "meanBatch", report.meanBatch,
             (double)report.maxBatchLaunched);
    expectLe(audit, "serving", "maxBatchLaunched",
             (double)report.maxBatchLaunched, (double)report.maxBatch);
    std::uint64_t chip_batches = 0;
    for (std::uint64_t batches : report.perChipBatches)
        chip_batches += batches;
    if (!report.perChipBatches.empty()) {
        expectEq(audit, "serving", "perChipBatches", chip_batches,
                 report.batchesLaunched);
    }

    // Fault-path conservation.
    if (report.resilienceActive) {
        expectLe(audit, "serving", "restarts",
                 (double)report.restarts, (double)report.batchesKilled);
        expectEq(audit, "serving", "requestsKilled",
                 report.retriesTotal + report.retryGiveUps,
                 report.requestsKilled);
        expectLe(audit, "serving", "faultsInjected",
                 (double)report.faultsInjected,
                 (double)report.faultsScheduled);
        expectLe(audit, "serving", "failedRequests",
                 (double)report.failedRequests,
                 (double)report.completed);
    }

    return audit;
}

AuditReport
auditPipeline(const partition::PipelineResult &result)
{
    AuditReport audit;
    const partition::PartitionPlan &plan = result.plan;
    const int k = plan.stageCount();
    if (k < 1) {
        audit.violations.push_back(Violation{
            "pipeline", "stages", ">= 1", std::to_string(k)});
        return audit;
    }

    std::uint64_t fill = 0, stage_cycles = 0, link_cycles = 0;
    std::uint64_t macs = 0, bottleneck = 0;
    int bottleneck_stage = 0;
    int next_first = 0;
    for (int s = 0; s < k; ++s) {
        const partition::PipelineStage &stage = plan.stages[s];
        const std::string source =
            "pipeline/stage" + std::to_string(s);
        // Each stage's own cycle accounting must hold, and the
        // stage totals must be the simulation's, not a cached copy
        // that drifted.
        audit.merge(auditSim(*stage.sim));
        expectEq(audit, source, "stageCycles",
                 stage.sim->totalCycles, stage.stageCycles);
        expectEq(audit, source, "firstLayer",
                 (std::uint64_t)next_first,
                 (std::uint64_t)stage.firstLayer);
        expectLe(audit, source, "layerCount", 1.0,
                 (double)stage.layerCount());
        expectEq(audit, source, "simBatch", (std::uint64_t)plan.batch,
                 (std::uint64_t)stage.sim->batch);
        next_first = stage.lastLayer + 1;

        const std::uint64_t occ = stage.occupancyCycles();
        fill += occ;
        stage_cycles += stage.stageCycles;
        link_cycles += stage.linkCycles;
        macs += stage.sim->macOps;
        if (occ > bottleneck) {
            bottleneck = occ;
            bottleneck_stage = s;
        }
        expectRange(audit, source, "utilization",
                    plan.stageUtilization(s), 0.0, 1.0);
    }
    expectEq(audit, "pipeline", "lastStageLinkCycles", 0,
             plan.stages[k - 1].linkCycles);
    expectEq(audit, "pipeline", "lastStageLinkBytes", 0,
             plan.stages[k - 1].linkBytes);

    expectEq(audit, "pipeline", "bottleneckCycles", bottleneck,
             plan.bottleneckCycles);
    expectEq(audit, "pipeline", "bottleneckStage",
             (std::uint64_t)bottleneck_stage,
             (std::uint64_t)plan.bottleneckStage);
    expectEq(audit, "pipeline", "bottleneckUtilization", 1,
             (std::uint64_t)plan.stageUtilization(
                 plan.bottleneckStage));
    // Σ stage + link cycles is exactly the fill latency, and the
    // bottleneck bounds it on both sides: one stage cannot exceed
    // the sum, and no stage exceeds the bottleneck.
    expectEq(audit, "pipeline", "fillCycles",
             stage_cycles + link_cycles, plan.fillCycles);
    expectEq(audit, "pipeline", "fillCycles", fill, plan.fillCycles);
    expectLe(audit, "pipeline", "bottleneckLeFill",
             (double)plan.bottleneckCycles, (double)plan.fillCycles);
    expectLe(audit, "pipeline", "fillLeStagesTimesBottleneck",
             (double)plan.fillCycles,
             (double)k * (double)plan.bottleneckCycles);
    expectEq(audit, "pipeline", "totalStageCycles", stage_cycles,
             result.totalStageCycles);
    expectEq(audit, "pipeline", "totalLinkCycles", link_cycles,
             result.totalLinkCycles);
    expectEq(audit, "pipeline", "macOpsPerBatch", macs,
             result.macOpsPerBatch);
    expectEq(audit, "pipeline", "makespanCycles",
             plan.fillCycles + (std::uint64_t)(result.batches - 1) *
                                   plan.bottleneckCycles,
             result.makespanCycles);
    return audit;
}

AuditReport
auditSharding(const sharding::TensorShardResult &result)
{
    AuditReport audit;
    const int t = result.shards;
    if (t < 1 || !result.wideSim) {
        audit.violations.push_back(Violation{
            "sharding/tp", "shards", ">= 1 with a wide sim",
            std::to_string(t)});
        return audit;
    }
    audit.merge(auditSim(*result.wideSim));
    expectEq(audit, "sharding/tp", "layerCount",
             (std::uint64_t)result.wideSim->layers().size(),
             (std::uint64_t)result.layers.size());
    std::uint64_t shard = 0, coll = 0, bytes = 0;
    for (std::size_t l = 0; l < result.layers.size(); ++l) {
        const sharding::ShardLayerTiming &timing = result.layers[l];
        expectEq(audit, "sharding/tp/" + timing.layerName,
                 "shardCycles",
                 result.wideSim->layers()[l].totalCycles(),
                 timing.shardCycles);
        shard += timing.shardCycles;
        coll = sharding::saturatingAdd(coll, timing.reduceCycles);
        bytes = sharding::saturatingAdd(bytes, timing.reduceBytes);
    }
    expectEq(audit, "sharding/tp", "shardCycles", shard,
             result.shardCycles);
    expectEq(audit, "sharding/tp", "wideSimCycles",
             result.wideSim->totalCycles, result.shardCycles);
    expectEq(audit, "sharding/tp", "collectiveCycles", coll,
             result.collectiveCycles);
    expectEq(audit, "sharding/tp", "collectiveBytes", bytes,
             result.collectiveBytes);
    expectEq(audit, "sharding/tp", "totalCycles",
             sharding::saturatingAdd(result.shardCycles,
                                     result.collectiveCycles),
             result.totalCycles);
    if (t == 1) {
        expectEq(audit, "sharding/tp", "collectiveCyclesAtT1", 0,
                 result.collectiveCycles);
        expectEq(audit, "sharding/tp", "collectiveBytesAtT1", 0,
                 result.collectiveBytes);
        expectEq(audit, "sharding/tp", "soloIdentityAtT1",
                 result.soloCycles, result.totalCycles);
    }
    // Speedup is NOT bounded by T: narrowing a layer below the
    // PE-array width drops whole weight mappings, so a shard can
    // legitimately beat a 1/T share of the solo run. What no group
    // can beat is T chips' worth of peak MAC throughput.
    if (result.peakMacPerSec > 0) {
        expectLe(audit, "sharding/tp", "macThroughputLeShards",
                 result.effectiveMacPerSec(),
                 (double)t * result.peakMacPerSec * (1 + 1e-9));
    }
    return audit;
}

AuditReport
auditSharding(const sharding::ShardPlan &plan)
{
    AuditReport audit;
    const int k = plan.pipelineStages;
    if (plan.dataParallel < 1 || plan.tensorShards < 1 || k < 1 ||
        plan.pipeline.stageCount() != k) {
        audit.violations.push_back(Violation{
            "sharding/plan", "degrees",
            "positive R/T/K with K pipeline stages",
            std::to_string(plan.dataParallel) + "x" +
                std::to_string(plan.tensorShards) + "x" +
                std::to_string(k)});
        return audit;
    }
    const int r = plan.dataParallel;
    expectEq(audit, "sharding/plan", "replicaShare",
             (std::uint64_t)((plan.batch + r - 1) / r),
             (std::uint64_t)plan.replicaShare);
    std::uint64_t coll = 0, fill = 0, bottleneck = 0;
    for (int s = 0; s < k; ++s) {
        const partition::PipelineStage &stage =
            plan.pipeline.stages[s];
        const std::string source =
            "sharding/plan/stage" + std::to_string(s);
        audit.merge(auditSim(*stage.sim));
        expectEq(audit, source, "stageCycles",
                 stage.sim->totalCycles, stage.stageCycles);
        expectEq(audit, source, "stageBatch",
                 (std::uint64_t)plan.replicaShare,
                 (std::uint64_t)stage.sim->batch);
        // Overlaid occupancy: pipeline occupancy + in-range TP
        // all-reduce cycles.
        expectEq(audit, source, "occupancyCycles",
                 sharding::saturatingAdd(
                     stage.occupancyCycles(),
                     plan.stageCollectiveCycles[s]),
                 plan.stageOccupancyCycles[s]);
        coll = sharding::saturatingAdd(
            coll, plan.stageCollectiveCycles[s]);
        fill = sharding::saturatingAdd(
            fill, plan.stageOccupancyCycles[s]);
        bottleneck =
            std::max(bottleneck, plan.stageOccupancyCycles[s]);
    }
    expectEq(audit, "sharding/plan", "tensorCollectiveCycles", coll,
             plan.tensorCollectiveCycles);
    expectEq(audit, "sharding/plan", "fillCycles", fill,
             plan.fillCycles);
    expectEq(audit, "sharding/plan", "bottleneckCycles", bottleneck,
             plan.bottleneckCycles);
    expectEq(audit, "sharding/plan", "intervalCycles",
             std::max(plan.bottleneckCycles, plan.gatherCycles),
             plan.intervalCycles);
    expectEq(audit, "sharding/plan", "latencyCycles",
             sharding::saturatingAdd(plan.fillCycles,
                                     plan.gatherCycles),
             plan.latencyCycles);
    if (plan.tensorShards == 1) {
        expectEq(audit, "sharding/plan", "collectiveCyclesAtT1", 0,
                 plan.tensorCollectiveCycles);
        expectEq(audit, "sharding/plan", "collectiveBytesAtT1", 0,
                 plan.tensorCollectiveBytes);
    }
    if (plan.dataParallel == 1) {
        expectEq(audit, "sharding/plan", "gatherCyclesAtR1", 0,
                 plan.gatherCycles);
        expectEq(audit, "sharding/plan", "gatherBytesAtR1", 0,
                 plan.gatherBytes);
    }
    if (plan.chips() == 1) {
        // The degree-1 plan is the single-chip simulation itself.
        expectEq(audit, "sharding/plan", "soloIdentityAtDegree1",
                 plan.soloCycles, plan.intervalCycles);
        expectEq(audit, "sharding/plan", "fillIdentityAtDegree1",
                 plan.soloCycles, plan.fillCycles);
    }
    // Speedup is NOT bounded by R·T·K: tensor sharding can drop
    // whole weight mappings when a layer narrows below the PE-array
    // width, and a full batch past the on-chip batch costs more per
    // image than a replica's share, so the group can legitimately
    // beat chips() solo shares. What it can never beat is chips()
    // worth of peak MAC rate.
    if (plan.peakMacPerSec > 0) {
        expectLe(audit, "sharding/plan", "macThroughputLeChips",
                 plan.effectiveMacPerSec(),
                 (double)plan.chips() * plan.peakMacPerSec *
                     (1 + 1e-9));
    }
    return audit;
}

AuditReport
auditPerf(const perf::Report &report, std::uint64_t wall_ns_bound)
{
    AuditReport audit;

    // Sum each parent path's immediate children; root phases (no '/')
    // accumulate toward the optional wall-clock bound.
    std::uint64_t root_ns = 0;
    for (const perf::PhaseStat &stat : report.phases) {
        if (stat.count == 0) {
            audit.violations.push_back(Violation{
                "perf", "phaseCount " + stat.path, ">= 1", "0"});
        }
        const std::size_t cut = stat.path.rfind('/');
        if (cut == std::string::npos) {
            root_ns += stat.ns;
            continue;
        }
        const std::string parent = stat.path.substr(0, cut);
        const perf::PhaseStat *parent_stat = report.phase(parent);
        if (parent_stat == nullptr) {
            audit.violations.push_back(
                Violation{"perf", "orphanPhase " + stat.path,
                          "parent '" + parent + "' recorded",
                          "missing"});
        }
    }
    for (const perf::PhaseStat &parent : report.phases) {
        std::uint64_t child_ns = 0;
        const std::string prefix = parent.path + "/";
        for (const perf::PhaseStat &child : report.phases) {
            if (child.path.size() <= prefix.size() ||
                child.path.compare(0, prefix.size(), prefix) != 0)
                continue;
            // Immediate children only: no further '/' past the prefix.
            if (child.path.find('/', prefix.size()) !=
                std::string::npos)
                continue;
            child_ns += child.ns;
        }
        expectLe(audit, "perf", "childSum " + parent.path,
                 (double)child_ns, (double)parent.ns);
    }
    if (wall_ns_bound != 0) {
        expectLe(audit, "perf", "rootPhasesLeWall", (double)root_ns,
                 (double)wall_ns_bound);
    }
    return audit;
}

bool
auditEnabled()
{
    const char *env = std::getenv("SUPERNPU_AUDIT");
    if (env && env[0] != '\0')
        return env[0] != '0';
    return SUPERNPU_AUDIT_DEFAULT != 0;
}

void
enforce(const AuditReport &report, const std::string &context)
{
    if (report.ok())
        return;
    for (const Violation &violation : report.violations)
        warn("audit: ", violation.str());
    fatal("audit failed for ", context, ": ",
          report.violations.size(), " invariant violation(s)");
}

} // namespace obs
} // namespace supernpu
