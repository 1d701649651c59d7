/**
 * @file
 * Tests for the inference-serving subsystem: arrival-model
 * statistics and determinism, batch-queue policy invariants,
 * dispatcher behavior, and end-to-end discrete-event properties
 * (conservation, no batch above the solver max, timeout flushes,
 * p99 monotonicity in offered load, multi-chip scaling).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/parallel.hh"
#include "dnn/parser.hh"
#include "estimator/npu_estimator.hh"
#include "npusim/batch.hh"
#include "npusim/sim_cache.hh"
#include "obs/audit.hh"
#include "reliability/fault_model.hh"
#include "serving/simulator.hh"

namespace supernpu {
namespace serving {
namespace {

// --- arrival models --------------------------------------------------

TEST(Arrival, PoissonGapsMatchConfiguredRate)
{
    ArrivalConfig config;
    config.kind = ArrivalKind::OpenPoisson;
    config.ratePerSec = 1000.0;
    ArrivalProcess process(config, 1);
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        const double gap = process.nextGapSec();
        EXPECT_GT(gap, 0.0);
        sum += gap;
    }
    EXPECT_NEAR(sum / n, 1e-3, 1e-3 * 0.05);
}

TEST(Arrival, BurstyPreservesOfferedLoad)
{
    ArrivalConfig config;
    config.kind = ArrivalKind::Bursty;
    config.ratePerSec = 2000.0;
    config.meanOnSec = 2e-3;
    config.meanOffSec = 8e-3;
    ArrivalProcess process(config, 7);
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += process.nextGapSec();
    // The long-run mean gap is 1/rate despite the on/off modulation.
    EXPECT_NEAR(sum / n, 1.0 / 2000.0, 1.0 / 2000.0 * 0.1);
}

TEST(Arrival, SameSeedSameGaps)
{
    ArrivalConfig config;
    config.kind = ArrivalKind::Bursty;
    ArrivalProcess a(config, 42);
    ArrivalProcess b(config, 42);
    ArrivalProcess c(config, 43);
    bool any_differ = false;
    for (int i = 0; i < 1000; ++i) {
        const double gap = a.nextGapSec();
        EXPECT_DOUBLE_EQ(gap, b.nextGapSec());
        any_differ |= gap != c.nextGapSec();
    }
    EXPECT_TRUE(any_differ);
}

TEST(Arrival, ZeroThinkTimeIsExactlyZero)
{
    ArrivalConfig config;
    config.kind = ArrivalKind::ClosedLoop;
    config.clients = 4;
    ArrivalProcess process(config, 1);
    EXPECT_DOUBLE_EQ(process.thinkGapSec(), 0.0);
}

// --- batch queue -----------------------------------------------------

TEST(BatchQueue, FullBatchLaunchesImmediately)
{
    BatchingConfig config;
    config.maxBatch = 4;
    config.timeoutSec = 1.0;
    BatchQueue queue(config);
    for (int i = 0; i < 4; ++i) {
        EXPECT_FALSE(queue.launchable(1e-5 * i));
        queue.push(Request{(std::uint64_t)i, 1e-5 * i, 1e-5 * i});
    }
    EXPECT_TRUE(queue.launchable(4e-5));
    EXPECT_EQ(queue.pop().size(), 4u);
    EXPECT_TRUE(queue.empty());
}

TEST(BatchQueue, PartialBatchWaitsForTimeout)
{
    BatchingConfig config;
    config.maxBatch = 8;
    config.timeoutSec = 1e-3;
    BatchQueue queue(config);
    queue.push(Request{0, 0.5, 0.5});
    queue.push(Request{1, 0.5004, 0.5004});
    // The deadline tracks the oldest request, not the newest.
    EXPECT_DOUBLE_EQ(queue.nextDeadlineSec(), 0.5 + 1e-3);
    EXPECT_FALSE(queue.launchable(0.5009));
    EXPECT_TRUE(queue.launchable(0.501));
    EXPECT_EQ(queue.pop().size(), 2u);
}

TEST(BatchQueue, PopNeverExceedsMax)
{
    BatchingConfig config;
    config.maxBatch = 3;
    BatchQueue queue(config);
    for (int i = 0; i < 8; ++i)
        queue.push(Request{(std::uint64_t)i, (double)i, (double)i});
    EXPECT_EQ(queue.pop().size(), 3u);
    EXPECT_EQ(queue.pop().size(), 3u);
    const auto last = queue.pop();
    ASSERT_EQ(last.size(), 2u);
    // FIFO order end to end.
    EXPECT_EQ(last[0].id, 6u);
    EXPECT_EQ(last[1].id, 7u);
}

TEST(BatchQueue, FixedPolicyNeverTimesOut)
{
    BatchingConfig config;
    config.policy = BatchPolicy::FixedBatch;
    config.maxBatch = 4;
    BatchQueue queue(config);
    queue.push(Request{0, 0.0, 0.0});
    EXPECT_FALSE(queue.launchable(1e9));
    EXPECT_TRUE(std::isinf(queue.nextDeadlineSec()));
    queue.push(Request{1, 1.0, 1.0});
    queue.push(Request{2, 2.0, 2.0});
    queue.push(Request{3, 3.0, 3.0});
    EXPECT_TRUE(queue.launchable(3.0));
}

// --- dispatcher ------------------------------------------------------

TEST(Dispatch, RoundRobinCycles)
{
    Dispatcher dispatcher(DispatchPolicy::RoundRobin, 3);
    const std::vector<int> outstanding{5, 0, 9};
    for (int expect : {0, 1, 2, 0, 1, 2})
        EXPECT_EQ(dispatcher.pick(outstanding), expect);
}

TEST(Dispatch, JsqPicksLeastLoadedLowestIndexOnTies)
{
    Dispatcher dispatcher(DispatchPolicy::JoinShortestQueue, 4);
    EXPECT_EQ(dispatcher.pick({3, 1, 2, 1}), 1);
    EXPECT_EQ(dispatcher.pick({0, 0, 0, 0}), 0);
    EXPECT_EQ(dispatcher.pick({2, 2, 2, 0}), 3);
}

// --- end-to-end ------------------------------------------------------

/**
 * A small two-conv network keeps the memoized cycle simulations
 * cheap while exercising the real NpuSimulator path.
 */
class ServingFixture : public ::testing::Test
{
  protected:
    ServingFixture()
        : net(dnn::parseNetwork("network ServeTest\n"
                                "conv c1  3 16 16 3 1 1\n"
                                "conv c2 16 16 16 3 1 1\n")),
          config(estimator::NpuConfig::superNpu()),
          estimate(estimator::NpuEstimator(lib).estimate(config)),
          solver_max(npusim::maxBatch(config, estimate, net)),
          service(estimate, net)
    {
    }

    ServingConfig
    baseConfig(double rps) const
    {
        ServingConfig serving;
        serving.arrival.ratePerSec = rps;
        serving.batching.maxBatch = solver_max;
        serving.batching.timeoutSec = 1e-4;
        serving.requests = 3000;
        return serving;
    }

    sfq::DeviceConfig dev;
    sfq::CellLibrary lib{dev};
    dnn::Network net;
    estimator::NpuConfig config;
    estimator::NpuEstimate estimate;
    int solver_max;
    BatchServiceModel service;
};

TEST_F(ServingFixture, ServiceModelCachesPerBatch)
{
    npusim::SimCache cache;
    BatchServiceModel model(estimate, net, &cache);
    const double once = model.batchSeconds(4);
    EXPECT_GT(once, 0.0);
    EXPECT_DOUBLE_EQ(model.batchSeconds(4), once);
    // One simulation per distinct batch size: the repeat is a hit.
    EXPECT_EQ(model.cache()->size(), 1u);
    EXPECT_EQ(model.cache()->stats().misses, 1u);
    // Larger batches amortize preparation: strictly cheaper per
    // inference than batch 1.
    EXPECT_LT(model.batchSeconds(solver_max) / solver_max,
              model.batchSeconds(1));
}

TEST_F(ServingFixture, ConservesRequestsAndBoundsBatches)
{
    const double capacity = service.peakRps(solver_max);
    const auto report =
        ServingSimulator(service, baseConfig(0.7 * capacity)).run();
    EXPECT_EQ(report.completed, 3000u);
    EXPECT_EQ(report.generated, 3000u);
    EXPECT_GE(report.maxBatchLaunched, 1);
    EXPECT_LE(report.maxBatchLaunched, solver_max);
    EXPECT_GT(report.utilization, 0.0);
    EXPECT_LE(report.utilization, 1.0);
    EXPECT_GE(report.latencyP99, report.latencyP50);
    EXPECT_GE(report.latencyMax, report.latencyP999);
    // The full conservation-audit battery holds on a clean run.
    const obs::AuditReport audit = obs::auditServing(report);
    EXPECT_TRUE(audit.ok()) << audit.summary();
}

TEST_F(ServingFixture, BusyTimeIsBoundedByChipTime)
{
    const double capacity = service.peakRps(solver_max);
    ServingConfig serving = baseConfig(0.8 * 2.0 * capacity);
    serving.chips = 2;
    const auto report = ServingSimulator(service, serving).run();
    ASSERT_EQ(report.perChipBusySec.size(), 2u);
    double busy = 0.0;
    for (double chip_busy : report.perChipBusySec) {
        EXPECT_GE(chip_busy, 0.0);
        EXPECT_LE(chip_busy, report.makespanSec * (1.0 + 1e-9));
        busy += chip_busy;
    }
    EXPECT_LE(busy, 2.0 * report.makespanSec * (1.0 + 1e-9));
    // utilization is exactly the busy fraction of total chip-time.
    EXPECT_NEAR(report.utilization,
                busy / (2.0 * report.makespanSec), 1e-9);
    const obs::AuditReport audit = obs::auditServing(report);
    EXPECT_TRUE(audit.ok()) << audit.summary();
}

TEST_F(ServingFixture, TimeoutFlushesPartialBatches)
{
    // One lonely request: it can only leave via the timeout flush,
    // so its latency is exactly timeout + batch-1 service.
    ServingConfig serving = baseConfig(1.0);
    serving.requests = 1;
    const auto report = ServingSimulator(service, serving).run();
    EXPECT_EQ(report.completed, 1u);
    EXPECT_EQ(report.maxBatchLaunched, 1);
    EXPECT_NEAR(report.latencyMax,
                serving.batching.timeoutSec + service.batchSeconds(1),
                1e-12);
}

TEST_F(ServingFixture, SameSeedReplaysBitIdentically)
{
    const double capacity = service.peakRps(solver_max);
    const auto a =
        ServingSimulator(service, baseConfig(0.5 * capacity)).run();
    const auto b =
        ServingSimulator(service, baseConfig(0.5 * capacity)).run();
    EXPECT_DOUBLE_EQ(a.latencyP99, b.latencyP99);
    EXPECT_DOUBLE_EQ(a.throughputRps, b.throughputRps);
    EXPECT_DOUBLE_EQ(a.makespanSec, b.makespanSec);
    EXPECT_EQ(a.batchesLaunched, b.batchesLaunched);

    ServingConfig other = baseConfig(0.5 * capacity);
    other.seed += 1;
    const auto c = ServingSimulator(service, other).run();
    EXPECT_NE(a.makespanSec, c.makespanSec);
}

TEST_F(ServingFixture, P99RisesMonotonicallyWithOfferedLoad)
{
    // The timeout must be small next to the service time, else the
    // low-load floor is timeout-bound and batches that fill *faster*
    // under load make latency initially fall (a real dynamic-batching
    // effect, but not the queueing signal this test pins down).
    const double capacity = service.peakRps(solver_max);
    const auto at_load = [&](double frac) {
        ServingConfig serving = baseConfig(frac * capacity);
        serving.batching.timeoutSec = 2.0 * service.batchSeconds(1);
        return ServingSimulator(service, serving).run();
    };
    double previous = 0.0;
    for (double frac : {0.3, 0.7, 1.0, 1.3}) {
        const auto report = at_load(frac);
        EXPECT_GE(report.latencyP99, previous) << "at load " << frac;
        previous = report.latencyP99;
    }
    // Overload (1.3x) must push p99 well past the light-load floor.
    EXPECT_GT(previous, 2.0 * at_load(0.3).latencyP99);
}

TEST_F(ServingFixture, FixedPolicyLaunchesOnlyFullBatchesPlusDrain)
{
    ServingConfig serving = baseConfig(0.5 * service.peakRps(4));
    serving.batching.policy = BatchPolicy::FixedBatch;
    serving.batching.maxBatch = 4;
    serving.requests = 1001; // forces one partial drain batch
    const auto report = ServingSimulator(service, serving).run();
    EXPECT_EQ(report.completed, 1001u);
    EXPECT_LE(report.maxBatchLaunched, 4);
    // 250 full batches and the drained singleton.
    EXPECT_EQ(report.batchesLaunched, 251u);
}

TEST_F(ServingFixture, ClosedLoopKeepsClientsOutstanding)
{
    ServingConfig serving = baseConfig(0.0);
    serving.arrival.kind = ArrivalKind::ClosedLoop;
    serving.arrival.clients = 8;
    serving.requests = 2000;
    const auto report = ServingSimulator(service, serving).run();
    EXPECT_EQ(report.completed, 2000u);
    // Little's law: N = X * R, with N bounded by the population.
    const double n = report.throughputRps * report.latencyMean;
    EXPECT_LE(n, 8.0 + 1e-6);
    EXPECT_GT(n, 1.0);
}

TEST_F(ServingFixture, MultiChipScalingLiftsThroughput)
{
    // Saturate: closed loop with a big population admits as much as
    // the chips can serve, so throughput tracks chip count. Greedy
    // batching (zero timeout) keeps the drain tail from dominating
    // this tiny workload's makespan.
    ServingConfig serving = baseConfig(0.0);
    serving.arrival.kind = ArrivalKind::ClosedLoop;
    serving.arrival.clients = 256;
    serving.batching.timeoutSec = 0.0;
    serving.requests = 30000;
    const auto one = ServingSimulator(service, serving).run();
    serving.chips = 4;
    const auto four = ServingSimulator(service, serving).run();
    EXPECT_GT(one.utilization, 0.9);
    EXPECT_GT(four.throughputRps, 3.0 * one.throughputRps);
}

TEST_F(ServingFixture, BurstyTrafficHasFatterTailThanPoisson)
{
    const double capacity = service.peakRps(solver_max);
    ServingConfig serving = baseConfig(0.6 * capacity);
    const auto poisson = ServingSimulator(service, serving).run();
    serving.arrival.kind = ArrivalKind::Bursty;
    serving.arrival.meanOnSec = 2e-3;
    serving.arrival.meanOffSec = 8e-3;
    const auto bursty = ServingSimulator(service, serving).run();
    EXPECT_EQ(bursty.completed, poisson.completed);
    // Same average load, but on-phase rate is 5x: the tail suffers.
    EXPECT_GT(bursty.latencyP99, poisson.latencyP99);
}

TEST_F(ServingFixture, ColdAndParallelWarmedCachesServeIdentically)
{
    // The service model memoizes in a SimCache; whether that cache
    // is cold or was warmed concurrently by 8 threads (a parallel
    // sweep sharing the process-wide cache) must not change a single
    // reported number for the same seed.
    const double capacity = service.peakRps(solver_max);
    npusim::SimCache cold_cache, warm_cache;
    BatchServiceModel cold(estimate, net, &cold_cache);
    BatchServiceModel warm(estimate, net, &warm_cache);
    ThreadPool pool(8);
    pool.parallelFor((std::size_t)solver_max, [&](std::size_t i) {
        warm.batchSeconds((int)i + 1);
    });
    EXPECT_EQ(warm.cache()->size(), (std::size_t)solver_max);
    EXPECT_EQ(warm.cache()->stats().misses, (std::uint64_t)solver_max);

    const auto a =
        ServingSimulator(cold, baseConfig(0.7 * capacity)).run();
    const auto b =
        ServingSimulator(warm, baseConfig(0.7 * capacity)).run();
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.batchesLaunched, b.batchesLaunched);
    EXPECT_DOUBLE_EQ(a.throughputRps, b.throughputRps);
    EXPECT_DOUBLE_EQ(a.latencyMean, b.latencyMean);
    EXPECT_DOUBLE_EQ(a.latencyP50, b.latencyP50);
    EXPECT_DOUBLE_EQ(a.latencyP95, b.latencyP95);
    EXPECT_DOUBLE_EQ(a.latencyP99, b.latencyP99);
    EXPECT_DOUBLE_EQ(a.latencyP999, b.latencyP999);
    EXPECT_DOUBLE_EQ(a.latencyMax, b.latencyMax);
}

TEST_F(ServingFixture, ConcurrentBatchSecondsQueriesAgree)
{
    // Thread-safety of the service model itself: many threads asking
    // for overlapping batch sizes all see the deterministic value.
    std::vector<double> reference;
    for (int b = 1; b <= solver_max; ++b)
        reference.push_back(service.batchSeconds(b));
    ThreadPool pool(8);
    const auto parallel =
        pool.parallelMap((std::size_t)solver_max * 4,
                         [&](std::size_t i) {
                             const int b =
                                 (int)(i % (std::size_t)solver_max);
                             return service.batchSeconds(b + 1);
                         });
    for (std::size_t i = 0; i < parallel.size(); ++i) {
        EXPECT_DOUBLE_EQ(
            parallel[i],
            reference[i % (std::size_t)solver_max]);
    }
}

// --- pipelined placement (src/partition) -----------------------------

TEST_F(ServingFixture, PipelinedRunConservesAndAttributesLaunches)
{
    ServingConfig serving =
        baseConfig(0.5 * 2.0 * service.peakRps(solver_max));
    serving.chips = 4;
    serving.pipelineStages = 2;
    const auto report = ServingSimulator(service, serving).run();
    EXPECT_EQ(report.completed, 3000u);
    EXPECT_EQ(report.pipelineStages, 2);
    EXPECT_EQ(report.pipelineGroups, 2);
    const obs::AuditReport audit = obs::auditServing(report);
    EXPECT_TRUE(audit.ok()) << audit.summary();
    // Each batch launch is counted once, on the stage-0 chip of its
    // group; stage-1 chips record busy time but never a launch.
    ASSERT_EQ(report.perChipBatches.size(), 4u);
    EXPECT_EQ(report.perChipBatches[1], 0u);
    EXPECT_EQ(report.perChipBatches[3], 0u);
    EXPECT_EQ(report.perChipBatches[0] + report.perChipBatches[2],
              report.batchesLaunched);
    ASSERT_EQ(report.perChipBusySec.size(), 4u);
    EXPECT_GT(report.perChipBusySec[1], 0.0);
    EXPECT_GT(report.perChipBusySec[3], 0.0);
}

TEST_F(ServingFixture, PipelinedFaultQuarantinesTheWholeGroup)
{
    ServingConfig serving =
        baseConfig(0.5 * service.peakRps(solver_max));
    serving.chips = 4;
    serving.pipelineStages = 2;
    // One permanent flux trap on chip 1 — the *stage-1* chip of
    // group 0. A pipeline is only as healthy as its sickest stage,
    // so quarantine must write off the whole group.
    reliability::FaultScheduleConfig faults;
    faults.chips = 4;
    reliability::FaultEvent event;
    event.kind = reliability::FaultKind::FluxTrap;
    event.chip = 1;
    event.magnitude = faults.fluxTrapDerate;
    serving.faults =
        reliability::FaultSchedule::fromEvents(faults, {event});
    serving.resilience.recovery = RecoveryPolicy::DegradedDispatch;
    serving.resilience.detectLatencySec = 1e-12;
    const auto report = ServingSimulator(service, serving).run();
    EXPECT_EQ(report.completed, serving.requests);
    EXPECT_EQ(report.failedRequests, 0u);
    ASSERT_EQ(report.perChipBatches.size(), 4u);
    EXPECT_EQ(report.perChipBatches[0], 0u);
    EXPECT_EQ(report.perChipBatches[1], 0u);
    EXPECT_GT(report.perChipBatches[2], 0u);
    EXPECT_EQ(report.perChipBatches[3], 0u);
    // Writing off one of two groups costs half the fleet.
    EXPECT_LT(report.availability, 0.55);
    const obs::AuditReport audit = obs::auditServing(report);
    EXPECT_TRUE(audit.ok()) << audit.summary();
}

TEST_F(ServingFixture, PipelinedRetryRidesOutTransientFaults)
{
    ServingConfig serving =
        baseConfig(0.5 * 2.0 * service.peakRps(solver_max));
    serving.chips = 4;
    serving.pipelineStages = 2;
    reliability::FaultScheduleConfig faults;
    faults.chips = 4;
    faults.horizonSec =
        (double)serving.requests / serving.arrival.ratePerSec;
    faults.pulseDropRatePerSec = 20.0 / faults.horizonSec;
    faults.linkGlitchRatePerSec = 20.0 / faults.horizonSec;
    // Scale the glitch stall to the workload: the default is tuned
    // for wall-clock-scale runs and would dwarf this microscopic
    // makespan.
    faults.linkGlitchDelaySec = 0.5 * service.batchSeconds(solver_max);
    serving.faults = reliability::FaultSchedule::generate(faults);
    serving.resilience.recovery = RecoveryPolicy::RetryBackoff;
    serving.resilience.detectLatencySec =
        0.25 * service.batchSeconds(solver_max);
    serving.resilience.backoffBaseSec =
        service.batchSeconds(solver_max);
    const auto report = ServingSimulator(service, serving).run();
    EXPECT_EQ(report.completed, serving.requests);
    const obs::AuditReport audit = obs::auditServing(report);
    EXPECT_TRUE(audit.ok()) << audit.summary();
}

// --- degenerate metrics (zero-makespan guard) ------------------------

TEST(Metrics, ZeroMakespanReportsZeroRatesNotNan)
{
    MetricsCollector metrics(2);
    const ServingReport report = metrics.finish(0.0);
    EXPECT_EQ(report.throughputRps, 0.0);
    EXPECT_EQ(report.utilization, 0.0);
    EXPECT_EQ(report.meanQueueDepth, 0.0);
    EXPECT_EQ(report.availability, 0.0);
    EXPECT_TRUE(std::isfinite(report.throughputRps));
    EXPECT_TRUE(std::isfinite(report.utilization));
    EXPECT_TRUE(std::isfinite(report.availability));
}

} // namespace
} // namespace serving
} // namespace supernpu
