/**
 * @file
 * The SFQ-NPU cycle-level performance simulator (Section IV-B,
 * Fig. 14): generates the weight mappings for each layer, then
 * accounts preparation cycles (weight loads, buffer fills, intra-
 * and inter-buffer moves, drains), computation cycles, and exposed
 * memory stalls per mapping.
 *
 * Cost model summary (all shapes derive from the Fig. 16 / Fig. 18
 * discussion):
 *  - weight-stationary mapping: a filter's R*S*C weights fold over
 *    the PE array height; filters spread over width * regs columns.
 *  - shift-register buffers move data at one entry per row per
 *    cycle; moving data across a buffer costs its (chunk) length.
 *  - separate psum/ofmap buffers pay a full-length inter-buffer
 *    move per row-fold transition; the integrated buffer swaps
 *    chunk roles instead.
 *  - undivided output buffers flush to DRAM at every column-fold
 *    change (Fig. 18(a)); divided buffers accumulate in spare
 *    chunks.
 *  - ifmap data that fits on chip pays a rewind (chunk or full row)
 *    when reused; data that does not fit re-streams from DRAM and
 *    exposes any bandwidth shortfall as stall cycles.
 */

#ifndef SUPERNPU_NPUSIM_SIM_HH
#define SUPERNPU_NPUSIM_SIM_HH

#include <memory>

#include "dnn/layer.hh"
#include "estimator/npu_estimator.hh"
#include "result.hh"
#include "trace.hh"

namespace supernpu {
namespace npusim {

/** Cycle-level simulator for one estimated NPU instance. */
class NpuSimulator
{
  public:
    /** @param estimate Output of NpuEstimator::estimate(). */
    explicit NpuSimulator(const estimator::NpuEstimate &estimate);

    /**
     * Simulate one layer at the given batch size.
     *
     * @param ifmap_on_chip The layer's input already sits in the
     *        ifmap buffer (handed off by the previous layer), so no
     *        DRAM fill is needed when it fits.
     * @param prev_compute_cycles Compute cycles of the previously
     *        simulated weight mapping (the previous layer's last),
     *        which the first weight fetch of this layer can overlap
     *        when double buffering is on. 0 — no overlap — for the
     *        first layer of a network.
     */
    LayerResult simulateLayer(
        const dnn::Layer &layer, int batch,
        bool ifmap_on_chip = false,
        std::uint64_t prev_compute_cycles = 0) const;

    /** Simulate a whole network at the given batch size. */
    SimResult run(const dnn::Network &network, int batch) const;

    /**
     * Layer `first` of `network` as the head of a standalone stage:
     * simulated cold, its input in DRAM and nothing before its first
     * weight fetch. runRange's layer 0, and at first == 0 run()'s.
     * Counts in npusim.layerSims, not in npusim.runs.
     */
    LayerResult coldHead(const dnn::Network &network, int first,
                         int batch) const;

    /**
     * run() of layers [first, last] as a sub-network `name[first-last]`
     * (the whole range keeps the name), given `whole` == run(network,
     * batch). A layer reads its predecessor only through outputOnChip
     * and lastMappingComputeCycles, which ignore that predecessor's
     * inputs, so the head is simulated cold and the tail shared with
     * `whole`: the result owns its coldHead() only, reads layers
     * first+1..last in place from `whole` and keeps `whole` alive.
     * The call does not count in npusim.runs. Panics with a trace
     * attached, on a range, layer count or batch that `whole` does
     * not match, or when `whole` is itself a composed stage.
     */
    SimResult runRange(const dnn::Network &network, int first, int last,
                       int batch,
                       std::shared_ptr<const SimResult> whole) const;

    /** The estimate this simulator was built from. */
    const estimator::NpuEstimate &estimate() const { return _est; }

    /**
     * Attach a trace recorder: every subsequent simulation appends
     * one MappingTraceEvent per weight mapping (layer-end flushes
     * and hand-offs are aggregate costs and are not per-mapping).
     * Pass nullptr to detach.
     */
    void setTrace(TraceRecorder *trace) { _trace = trace; }

  private:
    /** DRAM cycles needed to move `bytes` at the NPU clock. */
    double dramCycles(double bytes) const;

    estimator::NpuEstimate _est;
    TraceRecorder *_trace = nullptr;
};

} // namespace npusim
} // namespace supernpu

#endif // SUPERNPU_NPUSIM_SIM_HH
