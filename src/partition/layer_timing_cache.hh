/**
 * @file
 * Memo of the per-layer timing derivation the partitioner's cut
 * search consumes.
 *
 * A LayerTimings is what a cut search needs of one (network, batch)
 * point: the per-layer cycle prefix sums of one whole-network
 * simulation, the outbound link bytes/cycles at every candidate
 * boundary, the cut DP's rows (CutTable), and the whole-network
 * simulation itself. NpuSimulator::runRange composes every stage a
 * cut picks from that simulation, and stageCycles() prices a stage
 * from its exact prefix without composing it.
 *
 * Partitioner::partition keys the finished derivation on (network
 * hash, batch) in a LayerTimingCache, an unbounded common/memo.hh
 * Memo inside one Partitioner, so every K of one point shares one
 * derivation and grows one DP table: the K of a `partition --sweep`,
 * or a fixed placement's evaluate(). Each entry keeps its
 * whole-network SimResult alive, as does every stage result that
 * shares its layers. Only partition() stores here. A hybrid planner
 * search builds each class's LayerTimings itself
 * (Partitioner::buildTimings) and keeps it to the search; only its
 * winner's evaluate() partitions through the memo.
 */

#ifndef SUPERNPU_PARTITION_LAYER_TIMING_CACHE_HH
#define SUPERNPU_PARTITION_LAYER_TIMING_CACHE_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/hash.hh"
#include "common/memo.hh"
#include "npusim/result.hh"

namespace supernpu {
namespace partition {

/**
 * What Partitioner::partition derives lazily from one LayerTimings
 * and shares across every K of its (network, batch) point.
 *
 * The min-max DP grows to the largest stage count asked for so far.
 * Row s (the best s-stage split of every layer prefix) is built from
 * row s-1 alone and never reads the requested K, so one table
 * answers every K. Only what reconstruction and extension need is
 * kept: every cut row and the frontier dp row.
 */
struct CutTable
{
    /** Guards every member: extension and reconstruction. */
    std::mutex mutex;
    /**
     * cut[s][j] = last layer of stage s-1 in the best s-stage split
     * of layers [0, j], or -1 where no such split exists. Rows 0
     * and 1 stay empty (one stage has no interior cut).
     */
    std::vector<std::vector<int>> cut;
    /** dp row cut.size()-1 (best bottleneck per prefix); empty
     *  until the first partition() builds row 1. */
    std::vector<double> frontier;
};

/** The cut-search inputs derived from one (network, batch) point. */
struct LayerTimings
{
    std::string configName;
    double frequencyGhz = 0.0;
    /** prefix[l] = Σ simulated cycles of layers [0, l); size n+1. */
    std::vector<double> prefix;
    /**
     * The same sums, exact: cycles[l] = Σ totalCycles() of the whole
     * run's layers [0, l) in uint64 arithmetic, as a SimResult sums
     * its totals; size n+1.
     */
    std::vector<std::uint64_t> cycles;
    /** Outbound link occupancy if the boundary sits after layer l;
     *  size n, 0 after the last layer (nothing to ship). */
    std::vector<double> linkAfter;
    std::vector<std::uint64_t> linkCycles; ///< size n
    std::vector<std::uint64_t> linkBytes;  ///< size n
    /** The whole-network simulation the timings derive from. */
    std::shared_ptr<const npusim::SimResult> sim;
    /**
     * The DP rows shared across K. Memo values are const; the table
     * behind this pointer mutates under its own lock.
     */
    std::unique_ptr<CutTable> cuts = std::make_unique<CutTable>();

    int layerCount() const { return (int)prefix.size() - 1; }

    /**
     * runRange(first, last).totalCycles, without composing the stage:
     * its cold head layer's `head_cycles` (NpuSimulator::coldHead)
     * plus the whole run's layers first+1..last. Exact: a SimResult's
     * totalCycles is its layers' compute, prep and stall cycles summed
     * in uint64 arithmetic, which is also what cycles[] sums.
     */
    std::uint64_t stageCycles(int first, int last,
                              std::uint64_t head_cycles) const
    {
        return head_cycles + cycles[last + 1] - cycles[first + 1];
    }
};

/** Which derivation a LayerTimings belongs to. */
struct LayerTimingKey
{
    std::uint64_t networkHash = 0; ///< npusim::hashNetwork
    int batch = 0;

    bool operator==(const LayerTimingKey &other) const
    {
        return networkHash == other.networkHash && batch == other.batch;
    }
};

/** FNV-1a over both LayerTimingKey fields. */
struct LayerTimingKeyHash
{
    std::size_t operator()(const LayerTimingKey &key) const
    {
        return (std::size_t)Fnv1a()
            .word(key.networkHash)
            .word((std::uint64_t)key.batch)
            .value();
    }
};

/** Single-flight memo of LayerTimings keyed (network hash, batch). */
using LayerTimingCache =
    Memo<LayerTimingKey, LayerTimings, LayerTimingKeyHash>;

/** Monotonically-counted cache statistics (evictions stay 0). */
using LayerTimingCacheStats = MemoStats;

} // namespace partition
} // namespace supernpu

#endif // SUPERNPU_PARTITION_LAYER_TIMING_CACHE_HH
