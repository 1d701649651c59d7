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

#include "dnn/layer.hh"
#include "npusim/sim.hh"
#include "npusim/sim_cache.hh"

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

} // namespace serving
} // namespace supernpu

#endif // SUPERNPU_SERVING_SERVICE_MODEL_HH
