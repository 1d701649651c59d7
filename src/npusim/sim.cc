/**
 * @file
 * Cycle-level simulator implementation.
 */

#include "sim.hh"

#include <algorithm>
#include <cmath>

#include "batch.hh"
#include "common/logging.hh"
#include "mapping.hh"
#include "perf/profile.hh"

namespace supernpu {
namespace npusim {

namespace {

/** Cycles to switch integrated-buffer chunk roles (mux reconfig). */
constexpr std::uint64_t chunkSwitchCycles = 4;

/**
 * `result` named, its layers summed into its totals: the one roll-up
 * of run() and runRange().
 */
SimResult
assemble(const estimator::NpuEstimate &est, std::string name, int batch,
         SimResult result)
{
    result.networkName = std::move(name);
    result.configName = est.config.name;
    result.batch = batch;
    result.frequencyGhz = est.frequencyGhz;
    for (const LayerResult &lr : result.layers()) {
        result.computeCycles += lr.computeCycles;
        result.prepCycles += lr.prepCycles;
        result.prep.add(lr.prep);
        result.memoryStallCycles += lr.memoryStallCycles;
        result.macOps += lr.macOps;
        result.dramBytes += lr.dramBytes;
        result.dramWeightBytes += lr.dramWeightBytes;
        result.dramIfmapBytes += lr.dramIfmapBytes;
        result.dramOutputBytes += lr.dramOutputBytes;
        result.ifmapShiftChunkCycles += lr.ifmapShiftChunkCycles;
        result.outputShiftChunkCycles += lr.outputShiftChunkCycles;
        result.dauWordsForwarded += lr.dauWordsForwarded;
        result.nwHops += lr.nwHops;
    }
    result.totalCycles = result.computeCycles + result.prepCycles +
                         result.memoryStallCycles;
    return result;
}

} // namespace

NpuSimulator::NpuSimulator(const estimator::NpuEstimate &estimate)
    : _est(estimate)
{
    SUPERNPU_ASSERT(_est.frequencyGhz > 0, "estimate has no frequency");
}

double
NpuSimulator::dramCycles(double bytes) const
{
    const double bytes_per_second = _est.config.memoryBandwidth;
    const double cycles_per_byte =
        _est.frequencyGhz * 1e9 / bytes_per_second;
    return bytes * cycles_per_byte;
}

LayerResult
NpuSimulator::simulateLayer(const dnn::Layer &layer, int batch,
                            bool ifmap_on_chip,
                            std::uint64_t prev_compute_cycles) const
{
    SUPERNPU_ASSERT(batch >= 1, "bad batch");
    layer.check();

    const estimator::NpuConfig &cfg = _est.config;
    const bool depthwise = layer.kind == dnn::LayerKind::DepthwiseConv;

    const std::uint64_t array_w = cfg.peWidth;
    const std::uint64_t array_h = cfg.peHeight;
    const int pe_stages = 2 * cfg.bitWidth - 1;

    const MappingPlan plan = MappingPlan::build(layer, cfg);
    const std::uint64_t row_folds = plan.rowFolds;
    const std::uint64_t col_folds = plan.colFolds;

    const std::uint64_t positions = layer.outputPositions();
    const std::uint64_t batch_u = (std::uint64_t)batch;

    // Shift-in/out rates: one byte per buffer row per cycle.
    const double ifmap_fill_rate = (double)array_h; // bytes/cycle
    const double output_drain_rate = (double)array_w;

    // Does the batch's ifmap working set stay on chip?
    const bool ifmap_fits = maxIfmapBatch(cfg, _est, layer) >= batch;

    // Does the batch's output working set stay on chip?
    const std::uint64_t out_bytes_total =
        layer.ofmapBytes() * batch_u;
    const bool output_fits =
        usableOutputBytes(cfg, layer) >=
        (depthwise ? out_bytes_total / (std::uint64_t)layer.outChannels
                   : out_bytes_total);

    LayerResult res;
    res.layerName = layer.name;

    // Per-mapping ifmap slice: the channels covered by one row fold.
    const double slice_bytes_per_fold =
        (double)layer.ifmapBytes() * (double)batch_u /
        (double)row_folds / (depthwise ? (double)layer.inChannels : 1.0);

    // Compute cycles of the mapping simulated immediately before the
    // current one — what a double-buffered weight fetch hides behind.
    // Seeded by the caller with the previous layer's last mapping.
    std::uint64_t prev_compute = prev_compute_cycles;

    for (const WeightMapping &mapping : plan.mappings) {
        const PrepBreakdown prep_before = res.prep;
        const std::uint64_t compute_before = res.computeCycles;
        const std::uint64_t stall_before = res.memoryStallCycles;
        const std::uint64_t macs_before = res.macOps;
        {
            const std::uint64_t active_rows = mapping.activeRows;
            const std::uint64_t active_filters = mapping.activeFilters;
            const std::uint64_t regs_used = mapping.regsUsed;
            const std::uint64_t r = mapping.rowFold;
            const std::uint64_t c = mapping.colFold;
            (void)c;
            ++res.weightMappings;

            // --- weight load (DRAM -> weight buffer -> array) ----
            const std::uint64_t weight_bytes = mapping.weightBytes();
            const double weight_shift = (double)(array_h + array_w);
            double weight_dram = dramCycles((double)weight_bytes);
            if (cfg.weightDoubleBuffering) {
                // The fetch overlapped the *previous* mapping's
                // computation; only the uncovered remainder is
                // exposed (the buffer-to-array shift never hides).
                // With nothing simulated before — the first mapping
                // of the first layer — nothing hides.
                weight_dram = std::max(
                    0.0, weight_dram - (double)prev_compute);
            }
            const std::uint64_t weight_cycles = (std::uint64_t)std::max(
                weight_shift, weight_dram);
            res.prepCycles += weight_cycles;
            res.prep.weightLoad += weight_cycles;
            res.dramBytes += weight_bytes;
            res.dramWeightBytes += weight_bytes;

            // --- ifmap preparation --------------------------------
            const bool first_use = mapping.firstColFold();
            if (ifmap_fits) {
                if (first_use && !ifmap_on_chip) {
                    // Fill this fold's slice from DRAM; the shift-in
                    // and the DRAM transfer overlap.
                    const double fill = std::max(
                        slice_bytes_per_fold / ifmap_fill_rate,
                        dramCycles(slice_bytes_per_fold));
                    res.prepCycles += (std::uint64_t)fill;
                    res.prep.ifmapFill += (std::uint64_t)fill;
                    res.ifmapShiftChunkCycles += (std::uint64_t)(
                        slice_bytes_per_fold / ifmap_fill_rate);
                    res.dramBytes +=
                        (std::uint64_t)slice_bytes_per_fold;
                    res.dramIfmapBytes +=
                        (std::uint64_t)slice_bytes_per_fold;
                } else if (first_use) {
                    // Handed off on chip by the previous layer; the
                    // transfer cost was charged there.
                } else {
                    // Reuse: rewind the held data back to the head.
                    const std::uint64_t rewind =
                        cfg.ifmapDivision > 1 ? _est.ifmapChunkLength
                                              : _est.ifmapRowLength;
                    res.prepCycles += rewind;
                    res.prep.ifmapRewind += rewind;
                    res.ifmapShiftChunkCycles += rewind;
                }
            } else {
                // Streamed from DRAM every mapping; bandwidth
                // shortfall shows up as stall after compute overlap.
                res.dramBytes += (std::uint64_t)slice_bytes_per_fold;
                res.dramIfmapBytes +=
                    (std::uint64_t)slice_bytes_per_fold;
            }

            // --- partial-sum movement between row folds ----------
            if (r > 0) {
                if (cfg.integratedOutputBuffer) {
                    res.prepCycles += chunkSwitchCycles;
                    res.prep.psumMove += chunkSwitchCycles;
                } else {
                    // Shift the psums out of the ofmap buffer and
                    // back into the psum buffer (Fig. 16, step 1).
                    const std::uint64_t move = 2 * _est.outputRowLength;
                    res.prepCycles += move;
                    res.prep.psumMove += move;
                    res.outputShiftChunkCycles += move;
                }
            }

            // --- computation --------------------------------------
            const std::uint64_t compute =
                positions * batch_u * regs_used +
                (std::uint64_t)(array_h + array_w + pe_stages);
            res.computeCycles += compute;
            prev_compute = compute;
            res.macOps +=
                positions * batch_u * active_rows * active_filters;
            res.dauWordsForwarded += positions * batch_u * active_rows;
            // Words delivered over the store-and-forward edge chains.
            res.nwHops += positions * batch_u * active_rows;

            if (!ifmap_fits) {
                const double stream = dramCycles(slice_bytes_per_fold);
                if (stream > (double)compute) {
                    res.memoryStallCycles +=
                        (std::uint64_t)(stream - (double)compute);
                }
            }
        }

        if (_trace) {
            MappingTraceEvent event;
            event.layer = layer.name;
            event.colFold = mapping.colFold;
            event.rowFold = mapping.rowFold;
            event.weightLoadCycles =
                res.prep.weightLoad - prep_before.weightLoad;
            event.ifmapFillCycles =
                res.prep.ifmapFill - prep_before.ifmapFill;
            event.ifmapRewindCycles =
                res.prep.ifmapRewind - prep_before.ifmapRewind;
            event.psumMoveCycles =
                res.prep.psumMove - prep_before.psumMove;
            event.computeCycles = res.computeCycles - compute_before;
            event.stallCycles = res.memoryStallCycles - stall_before;
            event.macOps = res.macOps - macs_before;
            _trace->record(std::move(event));
        }

        // --- ofmap disposition at column-fold completion -----------
        if (mapping.rowFold + 1 < row_folds)
            continue;
        const std::uint64_t fold_out_bytes =
            positions * batch_u * mapping.activeFilters;
        if (!output_fits ||
            (!cfg.integratedOutputBuffer && cfg.outputDivision <= 1 &&
             col_folds > 1)) {
            // Forced flush to DRAM (Fig. 18(a)) or capacity overflow.
            const double drain =
                std::max((double)fold_out_bytes / output_drain_rate,
                         dramCycles((double)fold_out_bytes));
            res.prepCycles += (std::uint64_t)drain;
            res.prep.outputFlush += (std::uint64_t)drain;
            res.outputShiftChunkCycles += (std::uint64_t)(
                (double)fold_out_bytes / output_drain_rate);
            res.dramBytes += fold_out_bytes;
            res.dramOutputBytes += fold_out_bytes;
        }
    }
    res.lastMappingComputeCycles = prev_compute;

    // --- layer output hand-off ------------------------------------
    // Outputs that stayed on chip shift over to the ifmap buffer for
    // the next layer (or drain to DRAM at the network boundary; the
    // shift cost is the same).
    if (output_fits &&
        (cfg.integratedOutputBuffer || cfg.outputDivision > 1 ||
         col_folds <= 1)) {
        const std::uint64_t handoff = (std::uint64_t)(
            (double)out_bytes_total / output_drain_rate);
        res.prepCycles += handoff;
        res.prep.outputHandoff += handoff;
        res.outputShiftChunkCycles += handoff;
        res.outputOnChip = true;
    }

    return res;
}

SimResult
NpuSimulator::run(const dnn::Network &network, int batch) const
{
    perf::Scope perf_scope("npusim.run");
    network.check();

    std::vector<LayerResult> layers;
    layers.reserve(network.layers.size());
    bool ifmap_on_chip = false; // the first layer's input is in DRAM
    std::uint64_t prev_compute = 0; // nothing precedes the first fetch
    for (const auto &layer : network.layers) {
        layers.push_back(
            simulateLayer(layer, batch, ifmap_on_chip, prev_compute));
        ifmap_on_chip = layers.back().outputOnChip;
        prev_compute = layers.back().lastMappingComputeCycles;
    }
    if (perf::enabled()) {
        static perf::Counter &runs = perf::counter("npusim.runs");
        static perf::Counter &layer_sims =
            perf::counter("npusim.layerSims");
        runs.add(1);
        layer_sims.add(layers.size());
    }
    SimResult result;
    result.setLayers(std::move(layers));
    return assemble(_est, network.name, batch, std::move(result));
}

LayerResult
NpuSimulator::coldHead(const dnn::Network &network, int first,
                       int batch) const
{
    if (perf::enabled()) {
        static perf::Counter &layer_sims =
            perf::counter("npusim.layerSims");
        layer_sims.add(1);
    }
    return simulateLayer(network.layers[first], batch, false, 0);
}

SimResult
NpuSimulator::runRange(const dnn::Network &network, int first, int last,
                       int batch,
                       std::shared_ptr<const SimResult> whole) const
{
    const int n = (int)network.layers.size();
    SUPERNPU_ASSERT(!_trace, "runRange shares layers no trace sees");
    SUPERNPU_ASSERT(first >= 0 && first <= last && last < n,
                    "layer range [", first, ", ", last, "] outside ", n);
    SUPERNPU_ASSERT(whole && (int)whole->layers().size() == n &&
                        whole->batch == batch,
                    "wide run does not match ", n, " layers at batch ",
                    batch);

    // The wide run's layers, but the head starts cold: its input in
    // DRAM, nothing before its first weight fetch.
    SimResult result;
    result.shareTail(coldHead(network, first, batch), std::move(whole),
                     first, last);
    const bool all = first == 0 && last == n - 1;
    return assemble(_est,
                    all ? network.name
                        : network.name + "[" + std::to_string(first) +
                              "-" + std::to_string(last) + "]",
                    batch, std::move(result));
}

} // namespace npusim
} // namespace supernpu
