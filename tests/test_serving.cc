/**
 * @file
 * Tests for the inference-serving subsystem: arrival-model
 * statistics and determinism, batch-queue policy invariants,
 * dispatcher behavior, and end-to-end discrete-event properties
 * (conservation, no batch above the solver max, timeout flushes,
 * p99 monotonicity in offered load, multi-chip scaling).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.hh"
#include "dnn/parser.hh"
#include "estimator/npu_estimator.hh"
#include "npusim/batch.hh"
#include "npusim/sim_cache.hh"
#include "obs/audit.hh"
#include "reliability/fault_model.hh"
#include "serving/simulator.hh"
#include "sharding/collective.hh"

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

/**
 * Popped requests stay in the queue's storage until it compacts;
 * FIFO order, depth and the deadline must hold across compactions.
 */
TEST(BatchQueue, FifoDepthAndDeadlineSurviveHeadCompaction)
{
    BatchingConfig config;
    config.maxBatch = 7;
    config.timeoutSec = 0.25;
    BatchQueue queue(config);
    std::uint64_t pushed = 0;
    std::uint64_t popped = 0;
    std::vector<Request> batch;
    // 3 000 pushes in rounds of 150, each round followed by 13
    // pops: the queue grows past the compaction threshold and the
    // consumed prefix is dropped several times with requests queued.
    while (pushed < 3000) {
        for (int i = 0; i < 150; ++i, ++pushed) {
            queue.push(Request{pushed, (double)pushed, (double)pushed});
        }
        for (int i = 0; i < 13; ++i) {
            queue.popInto(batch);
            ASSERT_EQ(batch.size(), 7u);
            for (const Request &request : batch)
                ASSERT_EQ(request.id, popped++);
            EXPECT_EQ(queue.depth(), pushed - popped);
            EXPECT_DOUBLE_EQ(queue.nextDeadlineSec(), (double)popped + 0.25);
        }
    }
    while (!queue.empty()) {
        queue.popInto(batch);
        ASSERT_FALSE(batch.empty());
        ASSERT_LE(batch.size(), 7u);
        for (const Request &request : batch)
            ASSERT_EQ(request.id, popped++);
        EXPECT_EQ(queue.depth(), pushed - popped);
    }
    EXPECT_EQ(popped, pushed);
    EXPECT_TRUE(std::isinf(queue.nextDeadlineSec()));
    // An emptied queue starts over in order.
    queue.push(Request{pushed, 1e4, 1e4});
    EXPECT_EQ(queue.depth(), 1u);
    EXPECT_DOUBLE_EQ(queue.nextDeadlineSec(), 1e4 + 0.25);
    EXPECT_EQ(queue.pop().front().id, pushed);
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
    dispatcher.add(0, 5);
    dispatcher.add(2, 9);
    for (int expect : {0, 1, 2, 0, 1, 2})
        EXPECT_EQ(dispatcher.pick(), expect);
}

/** Sets every kept count of `dispatcher` to `counts`. */
void
setCounts(Dispatcher &dispatcher, const std::vector<int> &counts)
{
    for (int target = 0; target < (int)counts.size(); ++target) {
        dispatcher.add(target, counts[(std::size_t)target] -
                                   dispatcher.outstanding(target));
    }
}

TEST(Dispatch, JsqPicksLeastLoadedLowestIndexOnTies)
{
    Dispatcher dispatcher(DispatchPolicy::JoinShortestQueue, 4);
    setCounts(dispatcher, {3, 1, 2, 1});
    EXPECT_EQ(dispatcher.pick(), 1);
    setCounts(dispatcher, {0, 0, 0, 0});
    EXPECT_EQ(dispatcher.pick(), 0);
    setCounts(dispatcher, {2, 2, 2, 0});
    EXPECT_EQ(dispatcher.pick(), 3);
}

TEST(Dispatch, QuarantinedTargetsAreSkipped)
{
    Dispatcher jsq(DispatchPolicy::JoinShortestQueue, 4);
    setCounts(jsq, {3, 1, 2, 1});
    jsq.quarantine(1);
    jsq.quarantine(1); // a second quarantine changes nothing
    EXPECT_FALSE(jsq.healthy(1));
    EXPECT_EQ(jsq.healthyTargets(), 3);
    EXPECT_EQ(jsq.pick(), 3); // lowest healthy count, not the tie at 1

    Dispatcher rr(DispatchPolicy::RoundRobin, 3);
    EXPECT_EQ(rr.pick(), 0);
    rr.quarantine(1);
    for (int expect : {2, 0, 2, 0})
        EXPECT_EQ(rr.pick(), expect);
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

TEST_F(ServingFixture, PipelineGroupTimingIsResolvedOncePerSize)
{
    const partition::LinkConfig link;
    const partition::PipelineServiceModel pipe(estimate, net, 2, link,
                                               service.cache());
    const auto lookups = [&] {
        const npusim::SimCacheStats stats = service.cache()->stats();
        return stats.hits + stats.misses;
    };
    // What one batch of `size` costs each group shape, derived here
    // from the service model and the pipe.
    const auto expected = [&](int stages, int replicas, int size) {
        if (stages > 1)
            return pipe.timing(size);
        double service_sec =
            service.batchSeconds((size + replicas - 1) / replicas);
        if (replicas > 1) {
            const double ghz = estimate.frequencyGhz;
            service_sec +=
                (double)sharding::allGatherCost(
                    link, replicas,
                    partition::activationBytes(net.layers.back(), size),
                    ghz)
                    .cycles /
                (ghz * 1e9);
        }
        GroupTimingModel::Timing timing;
        timing.latencySec = service_sec;
        timing.intervalSec = service_sec;
        timing.stageStartSec = {0.0};
        timing.stageBusySec = {service_sec};
        return timing;
    };
    for (const auto &[stages, replicas] :
         {std::pair{1, 1}, std::pair{1, 2}, std::pair{2, 1}}) {
        const GroupTimingModel group(service, stages, replicas, link);
        for (int size : {3, 1, solver_max, 3, 1}) {
            SCOPED_TRACE("K " + std::to_string(stages) + " R " +
                         std::to_string(replicas) + " size " +
                         std::to_string(size));
            const GroupTimingModel::Timing &first = group.timing(size);
            group.timing(size == 2 ? 1 : 2); // another size in between
            // A repeat is the same object and asks the cache nothing.
            const std::uint64_t before = lookups();
            EXPECT_EQ(&group.timing(size), &first);
            EXPECT_EQ(lookups(), before);
            const GroupTimingModel::Timing direct =
                expected(stages, replicas, size);
            EXPECT_EQ(first.latencySec, direct.latencySec);
            EXPECT_EQ(first.intervalSec, direct.intervalSec);
            EXPECT_EQ(first.stageStartSec, direct.stageStartSec);
            EXPECT_EQ(first.stageBusySec, direct.stageBusySec);
        }
    }
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

// At low load every arrival to a partial queue re-arms the same
// timeout deadline, so the loop's merged Timeouts matter most here.
// Every report field is pinned exactly at the values of the loop
// that still pushed each repeated Timeout; only eventsProcessed
// moves, to its 6219 pops less the 2781 repeats it popped.
TEST_F(ServingFixture, LowLoadDynamicBatchingReportIsPinned)
{
    ServingConfig serving = baseConfig(4e5);
    serving.chips = 3;
    serving.dispatch = DispatchPolicy::JoinShortestQueue;
    const ServingReport r = ServingSimulator(service, serving).run();
    EXPECT_EQ(r.completed, 3000u);
    EXPECT_EQ(r.generated, 3000u);
    EXPECT_EQ(r.eventsProcessed, 6219u - 2781u);
    EXPECT_EQ(r.makespanSec, 0.0075394055840440179);
    EXPECT_EQ(r.offeredRps, 400000.0);
    EXPECT_EQ(r.throughputRps, 397909.35327170015);
    EXPECT_EQ(r.utilization, 0.002209538743822017);
    EXPECT_EQ(r.meanQueueDepth, 23.778985453492169);
    EXPECT_EQ(r.batchesLaunched, 219u);
    EXPECT_EQ(r.meanBatch, 13.698630136986301);
    EXPECT_EQ(r.maxBatchLaunched, 22);
    EXPECT_EQ(r.latencyMean, 5.999340548414342e-05);
    EXPECT_EQ(r.latencyP50, 6.0676268982201523e-05);
    EXPECT_EQ(r.latencyP95, 0.00010035044934999984);
    EXPECT_EQ(r.latencyP99, 0.00010035044934999984);
    EXPECT_EQ(r.latencyP999, 0.00010035044934999984);
    EXPECT_EQ(r.latencyMax, 0.00010035044934999984);
    EXPECT_FALSE(r.resilienceActive);
    EXPECT_EQ(r.failedRequests, 0u);
    EXPECT_EQ(r.availability, 1.0);
    EXPECT_EQ(r.goodputRps, 397909.35327170015);
    EXPECT_EQ(r.perChipBatches,
              (std::vector<std::uint64_t>{73, 73, 73}));
    EXPECT_EQ(r.perChipBusySec,
              (std::vector<double>{1.6982583499999987e-05,
                                   1.6688061569999987e-05,
                                   1.6305181159999989e-05}));
}

// Five lone dies at 3 M req/s: their ten completion and stage-free
// slots pad to sixteen, so the calendar's winner tree has four levels
// and empty padding leaves, and full batches complete on every die at
// once. Every field is pinned exactly at the values of a calendar
// that kept completions in its heap. Without faults no stale event
// exists, so the pop count is unchanged too.
TEST_F(ServingFixture, FiveDieFleetReportIsPinned)
{
    ServingConfig serving = baseConfig(3e6);
    serving.chips = 5;
    const ServingReport r = ServingSimulator(service, serving).run();
    EXPECT_EQ(r.completed, 3000u);
    EXPECT_EQ(r.eventsProcessed, 3204u);
    EXPECT_EQ(r.batchesLaunched, 102u);
    EXPECT_EQ(r.makespanSec, 0.0010652915187331501);
    EXPECT_EQ(r.meanQueueDepth, 98.276334322567436);
    EXPECT_EQ(r.latencyP99, 9.7851173352677626e-05);
    const std::vector<double> busy = {
        1.6271096230000006e-05, 1.063731164e-05,
        8.7495806199999979e-06, 5.8517722600000002e-06,
        5.3688041999999993e-06};
    EXPECT_EQ(r.perChipBusySec, busy);
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

// --- one group timing model: kills and detection --------------------

/** One request, one client, batch 1, no retries: a kill ends the run. */
ServingConfig
oneShotConfig(int chips, int stages, int replicas)
{
    ServingConfig serving;
    serving.chips = chips;
    serving.pipelineStages = stages;
    serving.dataParallelReplicas = replicas;
    serving.requests = 1;
    serving.arrival.kind = ArrivalKind::ClosedLoop;
    serving.arrival.clients = 1;
    serving.batching.maxBatch = 1;
    serving.resilience.recovery = RecoveryPolicy::RetryBackoff;
    serving.resilience.maxRetries = 0;
    return serving;
}

reliability::FaultEvent
faultAt(reliability::FaultKind kind, int chip, double time_sec,
        double magnitude = 1.0)
{
    reliability::FaultEvent event;
    event.kind = kind;
    event.chip = chip;
    event.timeSec = time_sec;
    event.magnitude = magnitude;
    return event;
}

/**
 * A glitch strikes `glitch_chip` 20% into the window of the lane it
 * belongs to and stalls it for 30% of that window; a pulse drop at
 * 60% is detected 10% later and kills the batch. Every chip must be
 * charged its elapsed compute plus elapsed stall up to the kill —
 * nothing of what the kill cut short.
 */
void
expectKillChargesElapsedBusy(const BatchServiceModel &service,
                             ServingConfig serving, int glitch_chip)
{
    const GroupTimingModel group(service, serving.pipelineStages,
                                 serving.dataParallelReplicas,
                                 serving.link);
    const GroupTimingModel::Timing timing = group.timing(1);
    const int lane = glitch_chip / serving.dataParallelReplicas;
    const double start = timing.stageStartSec[(std::size_t)lane];
    const double busy = timing.stageBusySec[(std::size_t)lane];
    reliability::FaultScheduleConfig faults;
    faults.chips = serving.chips;
    serving.faults = reliability::FaultSchedule::fromEvents(
        faults,
        {faultAt(reliability::FaultKind::LinkGlitch, glitch_chip,
                 start + 0.2 * busy, 0.3 * busy),
         faultAt(reliability::FaultKind::PulseDrop, 0,
                 start + 0.6 * busy)});
    serving.resilience.detectLatencySec = 0.1 * busy;
    const double kill = start + 0.7 * busy;

    const auto report = ServingSimulator(service, serving).run();
    EXPECT_EQ(report.batchesKilled, 1u);
    EXPECT_EQ(report.glitchesAbsorbed, 1u);
    EXPECT_EQ(report.failedRequests, 1u);
    ASSERT_EQ(report.perChipBusySec.size(), (std::size_t)serving.chips);
    for (int chip = 0; chip < serving.chips; ++chip) {
        const std::size_t l =
            (std::size_t)(chip / serving.dataParallelReplicas);
        const double lane_start = timing.stageStartSec[l];
        const double expected =
            std::min(kill - lane_start, timing.stageBusySec[l]);
        EXPECT_NEAR(report.perChipBusySec[(std::size_t)chip], expected,
                    1e-12 * expected)
            << "chip " << chip;
    }
}

TEST_F(ServingFixture, KillChargesElapsedBusyOnLoneChip)
{
    expectKillChargesElapsedBusy(service, oneShotConfig(1, 1, 1), 0);
}

TEST_F(ServingFixture, KillChargesElapsedBusyOnReplicaGroup)
{
    // The glitch on replica 1 stalls the whole lane: both replicas.
    expectKillChargesElapsedBusy(service, oneShotConfig(2, 1, 2), 1);
}

TEST_F(ServingFixture, KillChargesElapsedBusyOnPipeline)
{
    // The glitch strikes the stage-1 chip inside stage 1's window;
    // stage 0 finished before and keeps exactly its compute.
    expectKillChargesElapsedBusy(service, oneShotConfig(2, 2, 1), 1);
}

/**
 * Two corruption waves, one batch each: batch A is corrupted and
 * completes before its Detect fires; batch B, corrupted by a second
 * wave, must die at its own corruption time + detectLatencySec and
 * not at A's stale Detect.
 */
void
expectDetectKillsOnlyItsWave(const BatchServiceModel &service,
                             ServingConfig serving)
{
    serving.requests = 2;
    const double latency =
        GroupTimingModel(service, serving.pipelineStages,
                         serving.dataParallelReplicas, serving.link)
            .timing(1)
            .latencySec;
    reliability::FaultScheduleConfig faults;
    faults.chips = serving.chips;
    serving.faults = reliability::FaultSchedule::fromEvents(
        faults, {faultAt(reliability::FaultKind::PulseDrop, 0,
                         0.6 * latency),
                 faultAt(reliability::FaultKind::PulseDrop, 0,
                         1.05 * latency)});
    serving.resilience.detectLatencySec = 0.5 * latency;

    const auto report = ServingSimulator(service, serving).run();
    EXPECT_EQ(report.completed, 2u);
    EXPECT_EQ(report.batchesKilled, 1u);
    EXPECT_EQ(report.failedRequests, 2u);
    // B launches at L, is corrupted at 1.05 L and detected at 1.55 L.
    EXPECT_GE(report.makespanSec, 1.55 * latency * (1.0 - 1e-12));
    EXPECT_NEAR(report.makespanSec, 1.55 * latency, 1e-12 * latency);
}

TEST_F(ServingFixture, DetectKillsOnlyItsWaveOnLoneChip)
{
    expectDetectKillsOnlyItsWave(service, oneShotConfig(1, 1, 1));
}

TEST_F(ServingFixture, DetectKillsOnlyItsWaveOnPipeline)
{
    expectDetectKillsOnlyItsWave(service, oneShotConfig(2, 2, 1));
}

// --- calendar tie order ---------------------------------------------

/**
 * A schedule built to tie the fault cursor with the rest of the
 * calendar on 4 chips as two 2-chip groups (chips 0-1 and 2-3):
 *
 *  - a pulse drop and a link glitch at t = 0 tie with the closed-loop
 *    clients' seed arrivals. The faults take their sequence numbers
 *    after the seeds, so they strike the batches those arrivals
 *    launched;
 *  - a pulse drop and a link glitch strike chips 2 and 3, both in
 *    group 1, at the same instant;
 *  - a pulse drop falls after the last completion and never fires.
 *
 * Zero think time makes every client re-ask at its completion
 * instant, so the run is dense in same-time events.
 */
ServingReport
runTieSchedule(const BatchServiceModel &service, int stages,
               int replicas)
{
    ServingConfig serving;
    serving.chips = 4;
    serving.pipelineStages = stages;
    serving.dataParallelReplicas = replicas;
    serving.requests = 400;
    serving.arrival.kind = ArrivalKind::ClosedLoop;
    serving.arrival.clients = 8;
    serving.batching.maxBatch = 4;
    const double latency =
        GroupTimingModel(service, stages, replicas, serving.link)
            .timing(4)
            .latencySec;
    serving.batching.timeoutSec = 0.5 * latency;
    serving.resilience.recovery = RecoveryPolicy::RetryBackoff;
    serving.resilience.detectLatencySec = 0.25 * latency;
    serving.resilience.backoffBaseSec = latency;

    using reliability::FaultKind;
    reliability::FaultScheduleConfig faults;
    faults.chips = serving.chips;
    serving.faults = reliability::FaultSchedule::fromEvents(
        faults, {faultAt(FaultKind::PulseDrop, 0, 0.0),
                 faultAt(FaultKind::LinkGlitch, 1, 0.0, 0.3 * latency),
                 faultAt(FaultKind::PulseDrop, 2, 3.0 * latency),
                 faultAt(FaultKind::LinkGlitch, 3, 3.0 * latency,
                         0.3 * latency),
                 faultAt(FaultKind::PulseDrop, 0, 1e3)});
    const ServingReport report = ServingSimulator(service, serving).run();
    EXPECT_EQ(report.completed, serving.requests);
    const obs::AuditReport audit = obs::auditServing(report);
    EXPECT_TRUE(audit.ok()) << audit.summary();
    return report;
}

// The pinned values are those of a calendar that pushed every fault
// onto one heap at seed time: streaming the schedule must not move
// a single event. The event counts are that calendar's pops less the
// Timeouts it pushed a second time at a deadline already armed on
// the same target, which are no longer pushed, less the superseded
// completions and stage-frees a glitch or kill left to pop, which
// no longer exist: 935 - 206 - 6 on the pipeline, 826 - 202 - 4 on
// the replica group, the duplicates and the stale pops counted in
// the older loops.
TEST_F(ServingFixture, FaultTiesKeepTheirOrderOnPipeline)
{
    const ServingReport report = runTieSchedule(service, 2, 1);
    EXPECT_EQ(report.eventsProcessed, 723u);
    EXPECT_EQ(report.faultsInjected, 4u);
    EXPECT_EQ(report.batchesKilled, 2u);
    EXPECT_EQ(report.requestsKilled, 8u);
    EXPECT_DOUBLE_EQ(report.latencyP99, 4.4765495526304152e-07);
}

TEST_F(ServingFixture, FaultTiesKeepTheirOrderOnReplicaGroup)
{
    const ServingReport report = runTieSchedule(service, 1, 2);
    EXPECT_EQ(report.eventsProcessed, 620u);
    EXPECT_EQ(report.faultsInjected, 4u);
    EXPECT_EQ(report.batchesKilled, 2u);
    EXPECT_EQ(report.requestsKilled, 8u);
    EXPECT_DOUBLE_EQ(report.latencyP99, 1.877521442647435e-07);
}

/**
 * Two 4-stage pipelines of a 4-layer network under a dense fault
 * schedule: about one link glitch and one pulse drop per batch
 * latency on each group, so glitches keep stretching FIFOs several
 * batches deep with a stage-free pending, and detections keep
 * killing heads and tails. Every completion and stage-free a glitch
 * moves, and every one a kill cancels, is re-keyed in its target's
 * calendar slot.
 */
ServingReport
runDenseGlitchSchedule(const estimator::NpuEstimate &estimate)
{
    const dnn::Network net = dnn::parseNetwork("network Dense4\n"
                                               "conv c1  3 16 16 3 1 1\n"
                                               "conv c2 16 16 16 3 1 1\n"
                                               "conv c3 16 16 16 3 1 1\n"
                                               "conv c4 16 16 16 3 1 1\n");
    const BatchServiceModel service(estimate, net);
    ServingConfig serving;
    serving.chips = 8;
    serving.pipelineStages = 4;
    serving.requests = 3000;
    serving.batching.maxBatch =
        npusim::maxBatch(estimate.config, estimate, net);
    serving.batching.timeoutSec = 1e-4;
    const GroupTimingModel group(service, 4, 1, serving.link);
    const GroupTimingModel::Timing &full =
        group.timing(serving.batching.maxBatch);
    serving.arrival.ratePerSec = 0.8 * 2.0 *
                                 (double)serving.batching.maxBatch /
                                 full.intervalSec;

    reliability::FaultScheduleConfig faults;
    faults.chips = serving.chips;
    faults.seed = 36;
    faults.horizonSec =
        (double)serving.requests / serving.arrival.ratePerSec;
    // Per chip, so each group of four sees four times this rate.
    faults.linkGlitchRatePerSec = 0.25 / full.latencySec;
    faults.pulseDropRatePerSec = 0.25 / full.latencySec;
    faults.linkGlitchDelaySec = 0.3 * full.intervalSec;
    serving.faults = reliability::FaultSchedule::generate(faults);
    serving.resilience.recovery = RecoveryPolicy::RetryBackoff;
    serving.resilience.detectLatencySec = 0.5 * full.latencySec;
    serving.resilience.backoffBaseSec = full.latencySec;
    const ServingReport report = ServingSimulator(service, serving).run();
    const obs::AuditReport audit = obs::auditServing(report);
    EXPECT_TRUE(audit.ok()) << audit.summary();
    return report;
}

// The pinned values are those of a calendar that re-pushed every
// moved completion and stage-free onto its heap and let the
// superseded entries pop as no-ops: 4957 pops, 170 of them stale. A
// stale pop did nothing but split the queue-depth integral at an
// instant where the depth did not change, so the mean depth may move
// in its last bits only.
TEST_F(ServingFixture, DenseGlitchesLeaveNoStaleCompletion)
{
    const ServingReport r = runDenseGlitchSchedule(estimate);
    EXPECT_EQ(r.completed, 3000u);
    EXPECT_EQ(r.faultsInjected, 69u);
    EXPECT_EQ(r.glitchesAbsorbed, 32u);
    EXPECT_EQ(r.batchesKilled, 49u);
    EXPECT_EQ(r.requestsKilled, 1470u);
    EXPECT_EQ(r.latencyP99, 6.9123010005019066e-05);
    EXPECT_EQ(r.eventsProcessed, 4957u - 170u);
    EXPECT_NEAR(r.meanQueueDepth, 233.46134417497188,
                1e-12 * 233.46134417497188);
}

// --- degenerate metrics (zero-makespan guard) ------------------------

TEST_F(ServingFixture, JsqKeptCountsFollowKillsRedispatchRestartsAndDrain)
{
    // JSQ keeps each target's outstanding count where it changes,
    // and the run's closing assert checks every kept count against
    // its target. Each run below drives paths that change it or must
    // leave it alone: retry-backoff kills, degraded-dispatch
    // quarantine with its redispatch, and checkpoint restarts. All
    // run the fixed-batch policy on an odd request count, so partial
    // batches strand at the end for the drain.
    struct Case
    {
        const char *name;
        RecoveryPolicy recovery;
        bool checkpoint;
    };
    const double batch_sec = service.batchSeconds(4);
    for (const Case &c :
         {Case{"retry", RecoveryPolicy::RetryBackoff, false},
          Case{"degraded", RecoveryPolicy::DegradedDispatch, false},
          Case{"checkpoint", RecoveryPolicy::RetryBackoff, true}}) {
        SCOPED_TRACE(c.name);
        ServingConfig serving = baseConfig(2.0 * service.peakRps(4));
        serving.chips = 4;
        serving.dispatch = DispatchPolicy::JoinShortestQueue;
        serving.batching.policy = BatchPolicy::FixedBatch;
        serving.batching.maxBatch = 4;
        serving.requests = 1001;
        // Pulse drops round-robin over the chips through the run,
        // and under degraded dispatch a flux trap on chip 2 halfway.
        const double horizon =
            (double)serving.requests / serving.arrival.ratePerSec;
        reliability::FaultScheduleConfig faults;
        faults.chips = serving.chips;
        std::vector<reliability::FaultEvent> events;
        for (int i = 0; i < 40; ++i)
            events.push_back(faultAt(reliability::FaultKind::PulseDrop,
                                     i % serving.chips,
                                     horizon * (i + 0.5) / 40));
        if (c.recovery == RecoveryPolicy::DegradedDispatch)
            events.push_back(faultAt(reliability::FaultKind::FluxTrap, 2,
                                     0.5 * horizon,
                                     faults.fluxTrapDerate));
        serving.faults =
            reliability::FaultSchedule::fromEvents(faults, events);
        serving.resilience.recovery = c.recovery;
        serving.resilience.detectLatencySec = 0.25 * batch_sec;
        serving.resilience.backoffBaseSec = batch_sec;
        serving.resilience.checkpointRestart = c.checkpoint;
        serving.resilience.checkpointIntervalSec = 0.1 * batch_sec;

        const auto report = ServingSimulator(service, serving).run();
        EXPECT_EQ(report.completed, serving.requests);
        // Fixed batching launches a partial batch only in the drain.
        EXPECT_LT(report.meanBatch, 4.0);
        if (c.checkpoint) {
            EXPECT_GT(report.restarts, 0u);
            EXPECT_EQ(report.requestsKilled, 0u);
        } else {
            EXPECT_GT(report.requestsKilled, 0u);
            EXPECT_GT(report.retriesTotal, 0u);
        }
        if (c.recovery == RecoveryPolicy::DegradedDispatch) {
            EXPECT_GT(report.redispatches, 0u);
        }
        const obs::AuditReport audit = obs::auditServing(report);
        EXPECT_TRUE(audit.ok()) << audit.summary();
    }
}

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
