/**
 * @file
 * Result records of the SFQ-NPU cycle-level performance simulator.
 */

#ifndef SUPERNPU_NPUSIM_RESULT_HH
#define SUPERNPU_NPUSIM_RESULT_HH

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

namespace supernpu {
namespace npusim {

/**
 * Categorized preparation cycles (the paper's Fig. 14 trace/stall
 * analyzers): every prep cycle the simulator charges lands in
 * exactly one of these buckets.
 */
struct PrepBreakdown
{
    std::uint64_t weightLoad = 0;   ///< DRAM->weight buffer->array
    std::uint64_t ifmapFill = 0;    ///< first-use buffer fills
    std::uint64_t ifmapRewind = 0;  ///< reuse recirculation
    std::uint64_t psumMove = 0;     ///< inter/intra output-buffer moves
    std::uint64_t outputFlush = 0;  ///< forced drains to DRAM
    std::uint64_t outputHandoff = 0;///< on-chip layer-to-layer moves

    /** Sum of every bucket. */
    std::uint64_t total() const
    {
        return weightLoad + ifmapFill + ifmapRewind + psumMove +
               outputFlush + outputHandoff;
    }

    /** Accumulate another breakdown. */
    void add(const PrepBreakdown &other);
};

/** Cycle and activity accounting for one layer. */
struct LayerResult
{
    std::string layerName;

    std::uint64_t computeCycles = 0; ///< PE array streaming cycles
    std::uint64_t prepCycles = 0;    ///< buffer fill/move/drain/weights
    std::uint64_t memoryStallCycles = 0; ///< DRAM-bandwidth exposed
    PrepBreakdown prep;              ///< categorized prep cycles

    std::uint64_t macOps = 0;        ///< MACs executed (batch included)
    std::uint64_t weightMappings = 0;///< mappings this layer needed
    std::uint64_t dramBytes = 0;     ///< off-chip traffic
    // DRAM traffic split by stream; the three always sum to
    // dramBytes (audited by obs/audit.hh).
    std::uint64_t dramWeightBytes = 0;
    std::uint64_t dramIfmapBytes = 0;
    std::uint64_t dramOutputBytes = 0;
    /** The layer's outputs stayed on chip for the next layer. */
    bool outputOnChip = false;
    /**
     * Compute cycles of the layer's last weight mapping — the window
     * the *next* layer's first weight fetch can hide behind when
     * double buffering is on.
     */
    std::uint64_t lastMappingComputeCycles = 0;

    // Activity counters for the power model.
    std::uint64_t ifmapShiftChunkCycles = 0; ///< chunk-shift events
    std::uint64_t outputShiftChunkCycles = 0;
    std::uint64_t dauWordsForwarded = 0;
    std::uint64_t nwHops = 0;

    /** All cycles of this layer. */
    std::uint64_t totalCycles() const
    {
        return computeCycles + prepCycles + memoryStallCycles;
    }
};

/**
 * Read-only view of a SimResult's per-layer results in network order:
 * layer 0, then a contiguous run of the rest. Valid while the
 * SimResult it came from lives.
 */
class LayerView
{
  public:
    class const_iterator
    {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = LayerResult;
        using difference_type = std::ptrdiff_t;
        using pointer = const LayerResult *;
        using reference = const LayerResult &;

        const_iterator(const LayerView &view, std::size_t i)
            : _head(view._head), _tail(view._tail), _i(i)
        {
        }
        reference operator*() const
        {
            return _i == 0 ? *_head : _tail[_i - 1];
        }
        const_iterator &operator++()
        {
            ++_i;
            return *this;
        }
        bool operator==(const const_iterator &o) const { return _i == o._i; }
        bool operator!=(const const_iterator &o) const { return _i != o._i; }

      private:
        const LayerResult *_head;
        const LayerResult *_tail;
        std::size_t _i;
    };

    LayerView() = default;
    LayerView(const LayerResult *head, const LayerResult *tail,
              std::size_t size)
        : _head(head), _tail(tail), _size(size)
    {
    }

    std::size_t size() const { return _size; }
    bool empty() const { return _size == 0; }
    const LayerResult &operator[](std::size_t i) const
    {
        return i == 0 ? *_head : _tail[i - 1];
    }
    const_iterator begin() const { return const_iterator(*this, 0); }
    const_iterator end() const { return const_iterator(*this, _size); }

  private:
    const LayerResult *_head = nullptr;
    const LayerResult *_tail = nullptr; ///< layers 1..size-1
    std::size_t _size = 0;
};

/**
 * Whole-network (or pipeline-stage) simulation result.
 *
 * Who owns which layers: a result of NpuSimulator::run() or of the
 * TPU comparator owns every layer. A stage composed by
 * NpuSimulator::runRange owns only its cold head layer; the rest of
 * its layers are its wide run's, read in place through a shared
 * pointer that keeps that wide run alive as long as the stage lives.
 * Readers see both kinds through the one view, layers().
 */
struct SimResult
{
    std::string networkName;
    std::string configName;
    int batch = 1;
    double frequencyGhz = 0.0;

    /** Every per-layer result, in network order. */
    LayerView layers() const;
    /** Own `layers` as every per-layer result. Totals stay as set. */
    void setLayers(std::vector<LayerResult> layers);
    /**
     * Own `head` as layer 0 and read `wide`'s layers first+1..last
     * in place as the rest. `wide` must own all its layers. Totals
     * stay as set.
     */
    void shareTail(LayerResult head, std::shared_ptr<const SimResult> wide,
                   std::size_t first, std::size_t last);

    std::uint64_t totalCycles = 0;
    std::uint64_t computeCycles = 0;
    std::uint64_t prepCycles = 0;
    std::uint64_t memoryStallCycles = 0;
    PrepBreakdown prep;
    std::uint64_t macOps = 0;
    std::uint64_t dramBytes = 0;
    // Per-stream DRAM totals; sum to dramBytes (see LayerResult).
    std::uint64_t dramWeightBytes = 0;
    std::uint64_t dramIfmapBytes = 0;
    std::uint64_t dramOutputBytes = 0;

    std::uint64_t ifmapShiftChunkCycles = 0;
    std::uint64_t outputShiftChunkCycles = 0;
    std::uint64_t dauWordsForwarded = 0;
    std::uint64_t nwHops = 0;

    // --- fault-injection accounting (src/reliability) ---------------
    // Filled only by the reliability injector; a clean simulation
    // leaves both at zero and every other field untouched, so fault
    // support costs nothing when injection is off.
    /** Transient SFQ fault events charged against this run. */
    std::uint64_t faultEventsInjected = 0;
    /**
     * Cycles re-spent redoing weight mappings whose results a
     * transient fault corrupted. Not part of totalCycles: the clean
     * run's cycle counts stay comparable across fault rates.
     */
    std::uint64_t faultRecomputeCycles = 0;

    /** Wall-clock seconds for the whole batch. */
    double seconds() const;
    /** Seconds including fault-recompute redo work. */
    double secondsWithRecompute() const;
    /**
     * Wall-clock seconds per single inference at this batch size —
     * the per-batch service time divided across the batch. This is
     * the quantity the serving simulator's batch service model is
     * built from.
     */
    double secondsPerInference() const;
    /** Steady-state inferences per second at this batch size. */
    double inferencesPerSec() const;
    /** Effective throughput, MAC/s. */
    double effectiveMacPerSec() const;
    /** Effective MACs per cycle divided by the PE count. */
    double peUtilization(int pe_count) const;
    /** Fraction of cycles spent outside computation. */
    double preparationFraction() const;

  private:
    /** Every layer, or a composed stage's head only. */
    std::vector<LayerResult> _owned;
    /** A composed stage's wide run, whose _owned holds the tail. */
    std::shared_ptr<const SimResult> _wide;
    /** Index of layer 1 in the tail's vector (_wide's or _owned). */
    std::size_t _tailFirst = 1;
    std::size_t _layerCount = 0;
};

} // namespace npusim
} // namespace supernpu

#endif // SUPERNPU_NPUSIM_RESULT_HH
