/**
 * @file
 * Thread-safe memoized cache of cycle-level simulation results.
 *
 * The cycle simulator is pure: NpuSimulator::run(network, batch) is
 * fully determined by (network shapes, NpuConfig, batch). Sweeps
 * revisit the same points constantly — the explorer scores every
 * workload at every candidate, the ablation benches re-run the Table
 * I configs, and the serving simulator's service model needs one
 * simulation per distinct batch size — so results are memoized here
 * under a key of (workload hash, config hash, batch, fault hash).
 *
 * The store is a common/memo.hh Memo, LRU-bounded at `maxEntries`,
 * whose header states the single-flight contract. This file owns
 * only what is specific to simulations: the key and its hashes.
 *
 * Who stores here: every live lookup (serving's service models, the
 * partitioner, the reliability injector, the explorer, a fixed
 * HybridPlanner::evaluate). A planner search stores only its winner's
 * evaluate(); the rest of its simulations stay local to the search.
 */

#ifndef SUPERNPU_NPUSIM_SIM_CACHE_HH
#define SUPERNPU_NPUSIM_SIM_CACHE_HH

#include <cstdint>
#include <memory>

#include "common/memo.hh"
#include "dnn/layer.hh"
#include "estimator/npu_config.hh"
#include "result.hh"
#include "sim.hh"

namespace supernpu {
namespace npusim {

/**
 * FNV-1a-style structural hash of a network: name and every layer
 * shape field participate, so any change that can alter simulation
 * results changes the hash.
 */
std::uint64_t hashNetwork(const dnn::Network &network);

/** Structural hash of an NPU configuration (every field). */
std::uint64_t hashConfig(const estimator::NpuConfig &config);

/**
 * Hash of the full estimated design point: the config hash mixed
 * with every estimate field the cycle simulator reads (frequency,
 * buffer geometry, bandwidth-derived stalls). Two identical
 * NpuConfigs estimated under different cell libraries (RSFQ vs
 * ERSFQ, different feature sizes) hash differently — this, not
 * hashConfig, is what cache keys must be built from.
 */
std::uint64_t hashEstimate(const estimator::NpuEstimate &estimate);

/** Cache key: which simulation a result belongs to. */
struct SimKey
{
    std::uint64_t networkHash = 0;
    std::uint64_t configHash = 0; ///< hashEstimate of the design point
    int batch = 0;
    /**
     * Hash of the fault schedule injected into the run
     * (reliability::FaultSchedule::hash()); 0 for a clean run. Keeps
     * faulted and clean simulations of the same design point from
     * ever colliding, even when the injected faults happen not to
     * change the degraded estimate.
     */
    std::uint64_t faultHash = 0;

    bool operator==(const SimKey &other) const
    {
        return networkHash == other.networkHash &&
               configHash == other.configHash &&
               batch == other.batch && faultHash == other.faultHash;
    }
};

/** Bucket hash over every SimKey field. */
struct SimKeyHash
{
    std::size_t operator()(const SimKey &key) const;
};

/** Monotonically-counted cache statistics. */
using SimCacheStats = MemoStats;

/**
 * Thread-safe LRU-memoized store of SimResults. getOrCompute (from
 * Memo) is the generic entry point — the reliability injector caches
 * fault-augmented results through it under fault-qualified keys;
 * getOrRun is sugar for a plain simulation.
 */
class SimCache : public Memo<SimKey, SimResult, SimKeyHash>
{
  public:
    /** @param max_entries LRU capacity; 0 means unbounded. */
    explicit SimCache(std::size_t max_entries = kDefaultMaxEntries);

    /**
     * The memoizing entry point: return the cached result for
     * (network, sim's config, batch), running the simulation on this
     * thread if it is not cached yet.
     */
    std::shared_ptr<const SimResult>
    getOrRun(const NpuSimulator &sim, const dnn::Network &network,
             int batch);

    /**
     * Same, with the hashes precomputed by the caller — the serving
     * service model hashes its fixed (network, config) once and
     * avoids rehashing on every lookup.
     */
    std::shared_ptr<const SimResult>
    getOrRun(const SimKey &key, const NpuSimulator &sim,
             const dnn::Network &network);

    /**
     * The process-wide cache every sweep shares by default, so e.g.
     * an explore sweep warms the serving service model's entries.
     */
    static SimCache &global();

    static constexpr std::size_t kDefaultMaxEntries = 4096;
};

} // namespace npusim
} // namespace supernpu

#endif // SUPERNPU_NPUSIM_SIM_CACHE_HH
