/**
 * @file
 * Batch service-time model implementation.
 */

#include "service_model.hh"

#include "common/logging.hh"
#include "sharding/collective.hh"

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

GroupTimingModel::GroupTimingModel(const BatchServiceModel &service,
                                   int stages, int replicas,
                                   const partition::LinkConfig &link)
    : _service(service), _stages(stages), _replicas(replicas),
      _link(link)
{
    SUPERNPU_ASSERT(stages >= 1 && replicas >= 1,
                    "group degrees must be positive");
    if (stages > 1)
        _pipe = std::make_unique<partition::PipelineServiceModel>(
            service.estimate(), service.network(), stages, link,
            service.cache());
}

const GroupTimingModel::Timing &
GroupTimingModel::timing(int size) const
{
    SUPERNPU_ASSERT(size >= 1, "bad batch");
    if ((std::size_t)size >= _bySize.size())
        _bySize.resize((std::size_t)size + 1);
    std::unique_ptr<const Timing> &timing = _bySize[(std::size_t)size];
    if (!timing)
        timing = std::make_unique<const Timing>(resolve(size));
    return *timing;
}

GroupTimingModel::Timing
GroupTimingModel::resolve(int size) const
{
    if (_pipe)
        return _pipe->timing(size);
    // The batch splits into near-equal shares; the widest share's
    // service plus the ring all-gather of the results bounds the
    // group.
    double service =
        _service.batchSeconds((size + _replicas - 1) / _replicas);
    if (_replicas > 1) {
        const double ghz = _service.estimate().frequencyGhz;
        const std::uint64_t bytes = partition::activationBytes(
            _service.network().layers.back(), size);
        service += (double)sharding::allGatherCost(_link, _replicas,
                                                   bytes, ghz)
                       .cycles /
                   (ghz * 1e9);
    }
    Timing timing;
    timing.latencySec = service;
    timing.intervalSec = service;
    timing.stageStartSec.assign(1, 0.0);
    timing.stageBusySec.assign(1, service);
    return timing;
}

} // namespace serving
} // namespace supernpu
