/**
 * @file
 * Memo of the per-layer timing derivation the partitioner's cut
 * search consumes.
 *
 * Partitioner::partition derives the same artifacts for every K of a
 * planner search: the per-layer cycle prefix sums of one
 * whole-network simulation plus the outbound link bytes/cycles at
 * every candidate boundary. Only (network, batch) determine them —
 * the design point and link fabric are fixed per Partitioner — so a
 * DP×TP×PP sweep that evaluates K = 1..layers for each (R, T)
 * re-derives identical vectors K times. LayerTimingCache keys the
 * finished derivation on (network hash, batch) and shares it across
 * one search, so only the first K of each (R, T) pays for the
 * whole-network SimResult walk and the guarded link-cost arithmetic.
 * The entry also carries the cut search's DP rows (CutTable), so a
 * later K extends the table instead of rebuilding it, and the
 * whole-network simulation itself, from which
 * NpuSimulator::runRange composes every stage a cut picks.
 *
 * It is an unbounded common/memo.hh Memo: it lives inside one
 * Partitioner and holds one small vector set, and keeps one
 * whole-network SimResult alive (as does every stage result that
 * shares its layers), per (network, batch) that Partitioner::partition
 * is asked for. Only partition() stores here. A hybrid planner
 * search builds each class's LayerTimings itself and keeps it to the
 * search; only its winner's evaluate() partitions through the memo.
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
