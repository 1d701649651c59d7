/**
 * @file
 * Inter-chip link model for pipeline-parallel execution.
 *
 * When a network is split across K chips, every stage boundary
 * ships the boundary layer's activation tensor (ofmap) to the next
 * chip over a chip-to-chip link. The link is modeled as a fixed
 * per-transfer latency plus a bandwidth term, mirroring how the
 * paper models off-chip DRAM traffic: the default bandwidth is the
 * paper's 300 GB/s off-chip comparator, overridable per study (a
 * superconducting pulse link and an electrical SerDes bridge sit at
 * very different points; `supernpu partition --link-gbps` sets it).
 *
 * Transfer sizes come straight from dnn::Layer output shapes
 * (1 byte/activation, matching the simulator's DRAM accounting),
 * scaled by the batch streaming through the pipeline. Products that
 * would not fit the 64-bit transfer size type saturate to
 * UINT64_MAX with a warn() instead of silently wrapping — parser
 * inputs are unbounded, and a wrapped byte count would corrupt
 * every downstream cycle figure.
 */

#ifndef SUPERNPU_PARTITION_LINK_MODEL_HH
#define SUPERNPU_PARTITION_LINK_MODEL_HH

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <string>

#include "dnn/layer.hh"

namespace supernpu {
namespace partition {

/** Chip-to-chip link of a pipeline group. */
struct LinkConfig
{
    /**
     * Sustained link bandwidth, GB/s (1e9 bytes/s). Defaults to the
     * paper's 300 GB/s off-chip bandwidth comparator.
     */
    double bandwidthGBps = 300.0;

    /**
     * Fixed cycles charged per transfer regardless of size —
     * serialization, synchronization, and flight time of the first
     * flit, at the NPU clock.
     */
    std::uint64_t latencyCycles = 64;

    /** Fatal on a non-positive bandwidth. */
    void check() const;
};

/**
 * The saturating half of guardedBytes: warn that the product of
 * `factors` exceeds 64 bits — once per distinct `context` per
 * process, not per call, because sweep loops re-evaluate the same
 * boundary thousands of times — and return UINT64_MAX.
 */
std::uint64_t saturatedBytes(std::initializer_list<std::uint64_t> factors,
                             const std::string &context);

/**
 * Guarded transfer-size multiply shared by every byte-count
 * computation that multiplies unbounded parser shapes: each uint64
 * multiply is checked for wrap before it is formed. When the product
 * fits it is returned exactly; when it does not, the result
 * saturates through saturatedBytes. `context()` names the boundary
 * for the warning and its dedup; it is called only on saturation, so
 * the common path builds no string.
 */
template <typename Context>
std::uint64_t
guardedBytes(std::initializer_list<std::uint64_t> factors,
             const Context &context)
{
    constexpr std::uint64_t kMax =
        std::numeric_limits<std::uint64_t>::max();
    std::uint64_t exact = 1;
    for (std::uint64_t f : factors) {
        if (f != 0 && exact > kMax / f)
            return saturatedBytes(factors, context());
        exact *= f;
    }
    return exact;
}

/**
 * Count of distinct saturation contexts warned so far — the
 * observable contract of saturatedBytes's once-per-boundary dedup,
 * pinned by tests.
 */
std::size_t saturationWarningCount();

/**
 * Bytes shipped across a stage boundary after `boundary` at the
 * given batch: ofmap activations, 1 byte each, for every image in
 * the batch. Saturates to UINT64_MAX with a warn() when the true
 * product exceeds the 64-bit transfer size type.
 */
std::uint64_t activationBytes(const dnn::Layer &boundary, int batch);

/**
 * Cycles a transfer of `bytes` occupies the link at the given NPU
 * clock: fixed latency plus the bandwidth term, rounded up.
 * Saturates to UINT64_MAX rather than overflowing.
 */
std::uint64_t transferCycles(const LinkConfig &link, std::uint64_t bytes,
                             double frequency_ghz);

} // namespace partition
} // namespace supernpu

#endif // SUPERNPU_PARTITION_LINK_MODEL_HH
