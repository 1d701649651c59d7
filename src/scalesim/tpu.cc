/**
 * @file
 * TPU comparator timing model.
 */

#include "tpu.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace supernpu {
namespace scalesim {

namespace {

std::uint64_t
ceilDiv(std::uint64_t a, std::uint64_t b)
{
    return (a + b - 1) / b;
}

} // namespace

double
TpuConfig::peakMacPerSec() const
{
    return (double)arrayWidth * arrayHeight * frequencyGhz * 1e9;
}

TpuSimulator::TpuSimulator(const TpuConfig &config)
    : _config(config)
{
    SUPERNPU_ASSERT(config.arrayWidth > 0 && config.arrayHeight > 0,
                    "empty TPU array");
    SUPERNPU_ASSERT(config.frequencyGhz > 0 && config.memoryBandwidth > 0,
                    "bad TPU clock/bandwidth");
}

npusim::LayerResult
TpuSimulator::simulateLayer(const dnn::Layer &layer, int batch) const
{
    SUPERNPU_ASSERT(batch >= 1, "bad batch");
    layer.check();

    const bool depthwise = layer.kind == dnn::LayerKind::DepthwiseConv;
    const std::uint64_t array_w = _config.arrayWidth;
    const std::uint64_t array_h = _config.arrayHeight;
    const std::uint64_t batch_u = (std::uint64_t)batch;

    const std::uint64_t filter_len = layer.weightsPerFilter();
    const std::uint64_t row_folds = ceilDiv(filter_len, array_h);
    const std::uint64_t num_filters =
        depthwise ? (std::uint64_t)layer.inChannels
                  : (std::uint64_t)layer.outChannels;
    const std::uint64_t filters_per_mapping = depthwise ? 1 : array_w;
    const std::uint64_t col_folds =
        ceilDiv(num_filters, filters_per_mapping);

    const std::uint64_t positions = layer.outputPositions();

    npusim::LayerResult res;
    res.layerName = layer.name;

    std::uint64_t compute = 0;
    double weight_traffic = (double)layer.weightBytes();

    if (_config.dataflow == TpuDataflow::WeightStationary) {
        // SCALE-Sim WS tile time: fill the weights down the array,
        // then stream every (position, batch) input row, then drain.
        for (std::uint64_t c = 0; c < col_folds; ++c) {
            const std::uint64_t active_filters =
                std::min(num_filters - c * filters_per_mapping,
                         filters_per_mapping);
            for (std::uint64_t r = 0; r < row_folds; ++r) {
                const std::uint64_t active_rows =
                    std::min(filter_len - r * array_h, array_h);
                compute += positions * batch_u + 2 * array_h + array_w;
                res.macOps +=
                    positions * batch_u * active_rows * active_filters;
                ++res.weightMappings;
            }
        }
    } else {
        // SCALE-Sim OS tile time: each PE owns one (position,
        // filter) output and accumulates over the filter depth;
        // both operands stream for filter_len cycles per tile.
        const std::uint64_t position_tiles =
            ceilDiv(positions * batch_u, array_h);
        const std::uint64_t filter_tiles =
            depthwise ? num_filters : ceilDiv(num_filters, array_w);
        for (std::uint64_t pt = 0; pt < position_tiles; ++pt) {
            const std::uint64_t active_rows =
                std::min(positions * batch_u - pt * array_h, array_h);
            for (std::uint64_t ft = 0; ft < filter_tiles; ++ft) {
                const std::uint64_t active_cols =
                    depthwise
                        ? 1
                        : std::min(num_filters - ft * array_w,
                                   array_w);
                compute += filter_len + 2 * array_h + array_w;
                res.macOps +=
                    filter_len * active_rows * active_cols;
                ++res.weightMappings;
            }
        }
        // OS re-streams the weights once per position tile: the
        // dataflow's buffer-traffic penalty (weights are not held).
        weight_traffic *= (double)position_tiles;
    }

    // DRAM traffic: weights per the dataflow; the activations stay
    // in the unified buffer when the layer's batched working set
    // fits (the Table II batch policy guarantees this at the solved
    // batch), otherwise they spill and re-stream.
    const std::uint64_t io_bytes =
        (layer.ifmapBytes() + layer.ofmapBytes()) * batch_u;
    const bool io_fits = io_bytes <= _config.unifiedBufferBytes;
    const double dram_bytes =
        weight_traffic + (io_fits ? 0.0 : (double)io_bytes);
    const double dram_cycles = dram_bytes * _config.frequencyGhz * 1e9 /
                               _config.memoryBandwidth;

    // The unified buffer double-buffers tiles: compute and DRAM
    // overlap; the layer takes the slower of the two.
    res.computeCycles = compute;
    if (dram_cycles > (double)compute) {
        res.memoryStallCycles =
            (std::uint64_t)(dram_cycles - (double)compute);
    }
    res.dramBytes = (std::uint64_t)dram_bytes;
    return res;
}

npusim::SimResult
TpuSimulator::run(const dnn::Network &network, int batch) const
{
    network.check();

    npusim::SimResult result;
    result.networkName = network.name;
    result.configName = "TPU";
    result.batch = batch;
    result.frequencyGhz = _config.frequencyGhz;

    std::vector<npusim::LayerResult> layers;
    layers.reserve(network.layers.size());
    for (const auto &layer : network.layers) {
        npusim::LayerResult lr = simulateLayer(layer, batch);
        result.computeCycles += lr.computeCycles;
        result.prepCycles += lr.prepCycles;
        result.memoryStallCycles += lr.memoryStallCycles;
        result.macOps += lr.macOps;
        result.dramBytes += lr.dramBytes;
        layers.push_back(std::move(lr));
    }
    result.setLayers(std::move(layers));
    result.totalCycles = result.computeCycles + result.prepCycles +
                         result.memoryStallCycles;
    return result;
}

} // namespace scalesim
} // namespace supernpu
