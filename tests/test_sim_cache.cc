/**
 * @file
 * Tests for the memoized simulation cache: hit/miss accounting, LRU
 * eviction, key sensitivity (no false sharing between design
 * points), and thread safety.
 */

#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.hh"
#include "dnn/networks.hh"
#include "npusim/sim_cache.hh"

namespace supernpu {
namespace npusim {
namespace {

class SimCacheFixture : public ::testing::Test
{
  protected:
    sfq::DeviceConfig dev;
    sfq::CellLibrary lib{dev};
    estimator::NpuEstimator est{lib};
    estimator::NpuConfig config = estimator::NpuConfig::superNpu();
    estimator::NpuEstimate estimate = est.estimate(config);
    NpuSimulator sim{estimate};
    dnn::Network net = dnn::makeAlexNet();
};

TEST_F(SimCacheFixture, MissThenHitReturnsTheSameResult)
{
    SimCache cache;
    const auto first = cache.getOrRun(sim, net, 4);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 0u);

    const auto second = cache.getOrRun(sim, net, 4);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(first.get(), second.get()); // same object, no rerun
    EXPECT_EQ(first->totalCycles, sim.run(net, 4).totalCycles);
}

TEST_F(SimCacheFixture, DistinctBatchesAreDistinctEntries)
{
    SimCache cache;
    const auto b1 = cache.getOrRun(sim, net, 1);
    const auto b2 = cache.getOrRun(sim, net, 2);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_NE(b1->totalCycles, b2->totalCycles);
}

TEST_F(SimCacheFixture, DistinctConfigsDoNotCollide)
{
    SimCache cache;
    const auto super = cache.getOrRun(sim, net, 4);

    auto other_config = estimator::NpuConfig::baseline();
    NpuSimulator other_sim(est.estimate(other_config));
    const auto baseline = cache.getOrRun(other_sim, net, 4);

    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_NE(super->totalCycles, baseline->totalCycles);
}

TEST_F(SimCacheFixture, SameConfigDifferentLibraryDoesNotCollide)
{
    // The same NpuConfig estimated at another device point simulates
    // differently; the key hashes the estimate, not just the config.
    sfq::DeviceConfig small_dev;
    small_dev.featureSizeUm = 0.5;
    sfq::CellLibrary small_lib{small_dev};
    estimator::NpuEstimator small_est{small_lib};
    NpuSimulator small_sim(small_est.estimate(config));

    SimCache cache;
    cache.getOrRun(sim, net, 4);
    cache.getOrRun(small_sim, net, 4);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.stats().misses, 2u);
}

TEST_F(SimCacheFixture, DistinctNetworksDoNotCollide)
{
    SimCache cache;
    cache.getOrRun(sim, dnn::makeAlexNet(), 4);
    cache.getOrRun(sim, dnn::makeMobileNet(), 4);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.stats().misses, 2u);
}

TEST_F(SimCacheFixture, LruEvictionPastCapacity)
{
    SimCache cache(2);
    cache.getOrRun(sim, net, 1);
    cache.getOrRun(sim, net, 2);
    cache.getOrRun(sim, net, 1); // refresh batch 1
    cache.getOrRun(sim, net, 3); // evicts batch 2 (LRU)
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.stats().evictions, 1u);

    // Batch 1 survived the eviction, batch 2 did not.
    const auto before = cache.stats();
    cache.getOrRun(sim, net, 1);
    EXPECT_EQ(cache.stats().hits, before.hits + 1);
    cache.getOrRun(sim, net, 2);
    EXPECT_EQ(cache.stats().misses, before.misses + 1);
}

TEST_F(SimCacheFixture, ClearDropsEntriesAndCounters)
{
    SimCache cache;
    cache.getOrRun(sim, net, 1);
    cache.getOrRun(sim, net, 1);
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().misses, 0u);
}

TEST_F(SimCacheFixture, ConcurrentLookupsAreConsistent)
{
    SimCache cache;
    // 8 threads hammer 4 distinct keys; every accounting event lands
    // in exactly one counter and every result is the cached one.
    ThreadPool pool(8);
    const auto cycles = pool.parallelMap(64, [&](std::size_t i) {
        return cache.getOrRun(sim, net, 1 + (int)(i % 4))
            ->totalCycles;
    });
    for (std::size_t i = 0; i < cycles.size(); ++i) {
        EXPECT_EQ(cycles[i],
                  cache.getOrRun(sim, net, 1 + (int)(i % 4))
                      ->totalCycles);
    }
    const auto stats = cache.stats();
    EXPECT_EQ(cache.size(), 4u);
    // Single flight: one miss per distinct key whatever the race, and
    // every other call (joined waiters included) is a hit.
    EXPECT_EQ(stats.misses, 4u);
    EXPECT_EQ(stats.hits, 64u + 64u - 4u);
}

TEST_F(SimCacheFixture, EvictedResultsStayValidWhileHeld)
{
    SimCache cache(1);
    const auto held = cache.getOrRun(sim, net, 1);
    cache.getOrRun(sim, net, 2); // evicts batch 1's entry
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(held->batch, 1); // shared_ptr keeps it alive
    EXPECT_GT(held->totalCycles, 0u);
}

TEST(SimHash, NetworkHashIsShapeSensitive)
{
    dnn::Network a = dnn::makeAlexNet();
    dnn::Network b = a;
    EXPECT_EQ(hashNetwork(a), hashNetwork(b));
    b.layers[0].stride += 1;
    EXPECT_NE(hashNetwork(a), hashNetwork(b));
    b = a;
    b.name = "other";
    EXPECT_NE(hashNetwork(a), hashNetwork(b));
}

TEST(SimHash, ConfigHashCoversEveryKnob)
{
    const auto base = estimator::NpuConfig::superNpu();
    auto touch = [&](auto mutate) {
        auto copy = base;
        mutate(copy);
        EXPECT_NE(hashConfig(base), hashConfig(copy));
    };
    touch([](estimator::NpuConfig &c) { c.peWidth /= 2; });
    touch([](estimator::NpuConfig &c) { c.regsPerPe += 1; });
    touch([](estimator::NpuConfig &c) { c.outputDivision *= 2; });
    touch([](estimator::NpuConfig &c) { c.ifmapBufferBytes += 1; });
    touch([](estimator::NpuConfig &c) { c.memoryBandwidth *= 2.0; });
    touch([](estimator::NpuConfig &c) {
        c.weightDoubleBuffering = true;
    });
}

} // namespace
} // namespace npusim
} // namespace supernpu
