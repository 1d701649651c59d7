/**
 * @file
 * Batch service-time model: the bridge from the cycle-level NPU
 * simulator to the discrete-event serving simulator.
 *
 * Serving a batch of b requests means running the whole network once
 * at batch b, so the service time of a batch is exactly
 * NpuSimulator::run(network, b).seconds(). The cycle simulation is
 * deterministic per (network, config, batch), so results are
 * memoized in a shared npusim::SimCache: a million-request serving
 * run performs at most `maxBatch` cycle simulations, every repeated
 * batch size is an O(1) lookup, and a design-space sweep that
 * already simulated this (network, config) point warms the serving
 * model for free.
 *
 * The model is safe to query from several threads at once (the
 * cache is internally locked), and concurrent queries with the same
 * key return the same deterministic value — so a parallel warm-up
 * changes nothing about a subsequent serving run.
 */

#ifndef SUPERNPU_SERVING_SERVICE_MODEL_HH
#define SUPERNPU_SERVING_SERVICE_MODEL_HH

#include <memory>
#include <vector>

#include "dnn/layer.hh"
#include "npusim/sim.hh"
#include "npusim/sim_cache.hh"
#include "partition/pipeline_sim.hh"

namespace supernpu {
namespace serving {

/** Memoized per-batch service times of one network on one NPU. */
class BatchServiceModel
{
  public:
    /**
     * @param cache Simulation memo store; defaults to the process-
     *        wide npusim::SimCache::global().
     */
    BatchServiceModel(const estimator::NpuEstimate &estimate,
                      dnn::Network network,
                      npusim::SimCache *cache = nullptr);

    /** Wall-clock seconds to serve one batch of the given size. */
    double batchSeconds(int batch) const;

    /**
     * Steady-state ceiling on request throughput at the given batch
     * size, requests/s — what a chip sustains launching back-to-back
     * full batches. The serving simulator's saturation point.
     */
    double peakRps(int batch) const
    {
        return (double)batch / batchSeconds(batch);
    }

    const dnn::Network &network() const { return _net; }
    const estimator::NpuEstimate &estimate() const
    {
        return _sim.estimate();
    }

    /** The simulation memo store this model resolves through. */
    npusim::SimCache *cache() const { return _cache; }

  private:
    npusim::NpuSimulator _sim;
    dnn::Network _net;
    npusim::SimCache *_cache;
    std::uint64_t _netHash = 0;    ///< hashed once at construction
    std::uint64_t _configHash = 0;
};

/**
 * Per-batch timing of one dispatch group: G = R·K chips laid out as
 * K stage lanes of R replica chips each (G = 1 is a lone die). Lane
 * l owns the group's chips l·R .. l·R + R-1. A launched batch holds
 * lane 0 for the initiation interval, occupies lane l from its start
 * offset for its busy seconds, and completes one latency after
 * launch.
 *
 *  - K == 1: one lane, busy for batchSeconds(ceil(size/R)) plus the
 *    ring all-gather of the results when R > 1; interval, latency
 *    and busy coincide.
 *  - K > 1 (R == 1): partition::PipelineServiceModel's Timing for the
 *    size, which partitions afresh on every call.
 *
 * Either way each batch size is resolved once, at its first call,
 * into a table the model owns; every later call is an index, with no
 * SimCache lookup. This table is the only per-size cache on the
 * serving path, so a run's cache tallies count one resolution's
 * lookups per distinct batch size, not one per launch.
 */
class GroupTimingModel
{
  public:
    using Timing = partition::PipelineServiceModel::Timing;

    GroupTimingModel(const BatchServiceModel &service, int stages,
                     int replicas, const partition::LinkConfig &link);

    /**
     * Timing of one batch of the given size, seconds from launch.
     * One caller at a time. The reference stays valid, and is the
     * same object for the same size, for the model's lifetime.
     */
    const Timing &timing(int size) const;

    /** Chips per group, G = R·K. */
    int chips() const { return _stages * _replicas; }

  private:
    /** The size's Timing, from the service model or the pipe. */
    Timing resolve(int size) const;

    const BatchServiceModel &_service;
    int _stages;
    int _replicas;
    partition::LinkConfig _link;
    std::unique_ptr<partition::PipelineServiceModel> _pipe; ///< K > 1
    /** Each batch size's Timing, null until first asked. */
    mutable std::vector<std::unique_ptr<const Timing>> _bySize;
};

} // namespace serving
} // namespace supernpu

#endif // SUPERNPU_SERVING_SERVICE_MODEL_HH
