/**
 * @file
 * Serving metrics implementation.
 */

#include "metrics.hh"

#include <algorithm>
#include <cstdio>

#include "common/logging.hh"
#include "common/table.hh"

namespace supernpu {
namespace serving {

namespace {

/** Milliseconds with enough digits for microsecond-scale tails. */
std::string
msCell(double seconds)
{
    char text[48];
    std::snprintf(text, sizeof(text), "%.4f", seconds * 1e3);
    return text;
}

} // namespace

void
ServingReport::print() const
{
    std::printf("%s on %s x%d: arrival %s, batching %s (max %d),"
                " dispatch %s\n",
                network.c_str(), configName.c_str(), chips,
                arrival.c_str(), policy.c_str(), maxBatch,
                dispatch.c_str());
    if (pipelineStages > 1) {
        std::printf("pipelined: %d stages x %d group(s)\n",
                    pipelineStages, pipelineGroups);
    }
    if (dataParallelReplicas > 1) {
        std::printf("replicated: %d replicas x %d group(s)\n",
                    dataParallelReplicas, replicaGroups);
    }
    TextTable table;
    table.row().cell("metric").cell("value");
    table.row().cell("requests completed").cell((long long)completed);
    table.row().cell("makespan (s)").cell(makespanSec, 4);
    table.row().cell("offered load (req/s)").cell(offeredRps, 1);
    table.row().cell("throughput (req/s)").cell(throughputRps, 1);
    table.row().cell("chip utilization (%)").cell(utilization * 100.0, 1);
    table.row().cell("mean queue depth").cell(meanQueueDepth, 2);
    table.row().cell("mean batch").cell(meanBatch, 2);
    table.row().cell("largest batch").cell((long long)maxBatchLaunched);
    table.row().cell("latency mean (ms)").cell(msCell(latencyMean));
    table.row().cell("latency p50 (ms)").cell(msCell(latencyP50));
    table.row().cell("latency p95 (ms)").cell(msCell(latencyP95));
    table.row().cell("latency p99 (ms)").cell(msCell(latencyP99));
    table.row().cell("latency p99.9 (ms)").cell(msCell(latencyP999));
    table.row().cell("latency max (ms)").cell(msCell(latencyMax));
    if (resilienceActive) {
        table.row().cell("recovery policy").cell(recovery);
        table.row().cell("faults injected").cell(faultsInjected);
        table.row().cell("batches killed").cell(batchesKilled);
        table.row().cell("requests killed").cell(requestsKilled);
        table.row().cell("retries").cell(retriesTotal);
        table.row().cell("retry give-ups").cell(retryGiveUps);
        table.row().cell("checkpoint restarts").cell(restarts);
        table.row().cell("re-dispatches").cell(redispatches);
        table.row().cell("link glitches absorbed").cell(glitchesAbsorbed);
        table.row().cell("failed requests").cell(failedRequests);
        table.row().cell("availability (%)").cell(availability * 100.0,
                                                  2);
        table.row().cell("goodput (req/s)").cell(goodputRps, 1);
    }
    table.print();
}

MetricsCollector::MetricsCollector(int chips)
    : _busySec(chips, 0.0), _chipBatches(chips, 0),
      _transientLossSec(chips, 0.0), _permFraction(chips, 0.0),
      _permSinceSec(chips, 0.0), _permAccruedSec(chips, 0.0)
{
    SUPERNPU_ASSERT(chips >= 1, "need at least one chip");
}

void
MetricsCollector::advanceTo(double now_sec,
                            std::size_t total_queue_depth)
{
    SUPERNPU_ASSERT(now_sec + 1e-12 >= _clockSec,
                    "simulation clock ran backwards");
    if (now_sec > _clockSec) {
        _depthIntegral +=
            (double)total_queue_depth * (now_sec - _clockSec);
        _clockSec = now_sec;
    }
}

void
MetricsCollector::recordLatency(double seconds)
{
    _latency.add(seconds);
}

void
MetricsCollector::recordGroupBatch(int first_chip, int size,
                                   const std::vector<double> &lane_busy,
                                   int replicas)
{
    const int chips = (int)lane_busy.size() * replicas;
    SUPERNPU_ASSERT(first_chip >= 0 &&
                        first_chip + chips <= (int)_busySec.size(),
                    "dispatch group outside the chip range");
    ++_batches;
    _batchSizeSum += (std::uint64_t)size;
    _maxBatch = std::max(_maxBatch, size);
    // The launch counts once, attributed to the group's first chip,
    // so Σ perChipBatches == batchesLaunched still holds
    // (obs/audit.hh checks it); the busy time lands on every chip.
    ++_chipBatches[first_chip];
    for (int chip = 0; chip < chips; ++chip)
        _busySec[first_chip + chip] += lane_busy[chip / replicas];
}

void
MetricsCollector::extendBusy(int chip, double delta_sec)
{
    SUPERNPU_ASSERT(chip >= 0 && chip < (int)_busySec.size(),
                    "bad chip index");
    _busySec[chip] += delta_sec;
    SUPERNPU_ASSERT(_busySec[chip] >= -1e-12,
                    "chip busy time went negative");
}

void
MetricsCollector::addTransientLoss(int chip, double seconds)
{
    SUPERNPU_ASSERT(chip >= 0 && chip < (int)_busySec.size(),
                    "bad chip index");
    SUPERNPU_ASSERT(seconds >= 0, "negative transient loss");
    _transientLossSec[chip] += seconds;
}

void
MetricsCollector::setPermanentLoss(int chip, double since_sec,
                                   double fraction)
{
    SUPERNPU_ASSERT(chip >= 0 && chip < (int)_busySec.size(),
                    "bad chip index");
    SUPERNPU_ASSERT(fraction >= 0.0 && fraction <= 1.0,
                    "permanent loss fraction outside [0, 1]");
    if (_permFraction[chip] > 0.0 && since_sec > _permSinceSec[chip]) {
        _permAccruedSec[chip] +=
            _permFraction[chip] * (since_sec - _permSinceSec[chip]);
    }
    _permFraction[chip] = fraction;
    _permSinceSec[chip] = since_sec;
}

ServingReport
MetricsCollector::finish(double makespan_sec) const
{
    ServingReport report;
    report.makespanSec = makespan_sec;
    report.completed = _latency.count();
    if (makespan_sec > 0.0) {
        report.throughputRps =
            (double)_latency.count() / makespan_sec;
        double busy = 0.0;
        for (double b : _busySec)
            busy += b;
        report.utilization =
            busy / (makespan_sec * (double)_busySec.size());
        report.meanQueueDepth = _depthIntegral / makespan_sec;
    } else {
        // A zero-length run (no requests, or everything at t = 0)
        // has no meaningful rates; every time-normalized metric is
        // pinned to 0 rather than dividing by zero.
        warn("serving makespan is zero; reporting zero rates, "
             "utilization, and availability");
        report.throughputRps = 0.0;
        report.utilization = 0.0;
        report.meanQueueDepth = 0.0;
        report.availability = 0.0;
    }
    report.batchesLaunched = _batches;
    report.meanBatch =
        _batches ? (double)_batchSizeSum / (double)_batches : 0.0;
    report.maxBatchLaunched = _maxBatch;
    report.latencyMean = _latency.mean();
    report.latencyP50 = _latency.percentile(50.0);
    report.latencyP95 = _latency.percentile(95.0);
    report.latencyP99 = _latency.percentile(99.0);
    report.latencyP999 = _latency.percentile(99.9);
    report.latencyMax = _latency.max();

    report.perChipBatches = _chipBatches;
    report.perChipBusySec = _busySec;
    if (makespan_sec > 0.0) {
        double lost = 0.0;
        for (std::size_t chip = 0; chip < _busySec.size(); ++chip) {
            lost += _transientLossSec[chip] + _permAccruedSec[chip];
            if (_permFraction[chip] > 0.0 &&
                makespan_sec > _permSinceSec[chip]) {
                lost += _permFraction[chip] *
                        (makespan_sec - _permSinceSec[chip]);
            }
        }
        const double capacity =
            makespan_sec * (double)_busySec.size();
        report.availability =
            std::max(0.0, std::min(1.0, 1.0 - lost / capacity));
    }
    return report;
}

} // namespace serving
} // namespace supernpu
