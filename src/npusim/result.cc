/**
 * @file
 * SimResult derived metrics.
 */

#include "result.hh"

#include "common/logging.hh"

namespace supernpu {
namespace npusim {

void
PrepBreakdown::add(const PrepBreakdown &other)
{
    weightLoad += other.weightLoad;
    ifmapFill += other.ifmapFill;
    ifmapRewind += other.ifmapRewind;
    psumMove += other.psumMove;
    outputFlush += other.outputFlush;
    outputHandoff += other.outputHandoff;
}

LayerView
SimResult::layers() const
{
    if (_layerCount == 0)
        return {};
    const std::vector<LayerResult> &tail = _wide ? _wide->_owned : _owned;
    return LayerView(_owned.data(), tail.data() + _tailFirst, _layerCount);
}

void
SimResult::setLayers(std::vector<LayerResult> layers)
{
    _owned = std::move(layers);
    _wide.reset();
    _tailFirst = 1;
    _layerCount = _owned.size();
}

void
SimResult::shareTail(LayerResult head,
                     std::shared_ptr<const SimResult> wide,
                     std::size_t first, std::size_t last)
{
    SUPERNPU_ASSERT(wide && !wide->_wide,
                    "a stage shares the tail of a run that owns all its "
                    "layers, not of another stage");
    SUPERNPU_ASSERT(first <= last && last < wide->_layerCount,
                    "layer range [", first, ", ", last, "] outside ",
                    wide->_layerCount);
    _owned.clear();
    _owned.push_back(std::move(head));
    _wide = std::move(wide);
    _tailFirst = first + 1;
    _layerCount = last - first + 1;
}

double
SimResult::seconds() const
{
    SUPERNPU_ASSERT(frequencyGhz > 0, "result has no frequency");
    return (double)totalCycles / (frequencyGhz * 1e9);
}

double
SimResult::secondsWithRecompute() const
{
    SUPERNPU_ASSERT(frequencyGhz > 0, "result has no frequency");
    return (double)(totalCycles + faultRecomputeCycles) /
           (frequencyGhz * 1e9);
}

double
SimResult::secondsPerInference() const
{
    SUPERNPU_ASSERT(batch > 0, "result has no batch");
    return seconds() / (double)batch;
}

double
SimResult::inferencesPerSec() const
{
    const double per_inference = secondsPerInference();
    return per_inference > 0 ? 1.0 / per_inference : 0.0;
}

double
SimResult::effectiveMacPerSec() const
{
    const double s = seconds();
    return s > 0 ? (double)macOps / s : 0.0;
}

double
SimResult::peUtilization(int pe_count) const
{
    SUPERNPU_ASSERT(pe_count > 0, "bad PE count");
    if (totalCycles == 0)
        return 0.0;
    return (double)macOps / ((double)totalCycles * (double)pe_count);
}

double
SimResult::preparationFraction() const
{
    if (totalCycles == 0)
        return 0.0;
    return (double)(prepCycles + memoryStallCycles) / (double)totalCycles;
}

} // namespace npusim
} // namespace supernpu
