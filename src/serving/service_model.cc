/**
 * @file
 * Batch service-time model implementation.
 */

#include "service_model.hh"

#include "common/logging.hh"

namespace supernpu {
namespace serving {

BatchServiceModel::BatchServiceModel(
    const estimator::NpuEstimate &estimate, dnn::Network network,
    npusim::SimCache *cache)
    : _sim(estimate), _net(std::move(network)),
      _cache(cache != nullptr ? cache : &npusim::SimCache::global())
{
    _net.check();
    _netHash = npusim::hashNetwork(_net);
    _configHash = npusim::hashEstimate(estimate);
}

double
BatchServiceModel::batchSeconds(int batch) const
{
    SUPERNPU_ASSERT(batch >= 1, "bad batch");
    const npusim::SimKey key{_netHash, _configHash, batch};
    const auto run = _cache->getOrRun(key, _sim, _net);
    const double seconds = run->seconds();
    SUPERNPU_ASSERT(seconds > 0.0, "service time must be positive");
    return seconds;
}

} // namespace serving
} // namespace supernpu
