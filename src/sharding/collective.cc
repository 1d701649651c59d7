/**
 * @file
 * Ring-collective closed forms over the inter-chip link model.
 */

#include "collective.hh"

#include <cmath>
#include <limits>
#include <string>

#include "common/logging.hh"

namespace supernpu {
namespace sharding {

namespace {

constexpr std::uint64_t kSaturated =
    std::numeric_limits<std::uint64_t>::max();

/**
 * Shared ring shape: `data_steps` steps each moving a ceil(bytes/K)
 * chunk. All three collectives reduce to this with different step
 * counts.
 */
CollectiveCost
ringCost(const partition::LinkConfig &link, int chips,
         std::uint64_t bytes, double frequency_ghz,
         std::uint64_t data_steps, const char *what)
{
    SUPERNPU_ASSERT(chips >= 1, "collective needs at least one chip");
    CollectiveCost cost;
    if (chips == 1 || bytes == 0)
        return cost; // a chip needs no ring to agree with itself
    link.check();
    SUPERNPU_ASSERT(frequency_ghz > 0.0, "clock must be positive");
    cost.steps = data_steps;

    // Chunk each step moves; the ceil division cannot wrap because
    // a saturated `bytes` is UINT64_MAX and K >= 2 halves it first.
    const std::uint64_t k = (std::uint64_t)chips;
    const std::uint64_t chunk = bytes / k + (bytes % k != 0 ? 1 : 0);
    cost.wireBytes = partition::guardedBytes(
        {data_steps, chunk},
        [&] { return std::string(what) + " ring wire volume"; });

    // Same cycle arithmetic as partition::transferCycles, with one
    // fixed latency per ring step instead of per transfer. A cycle
    // count that would not fit 64 bits implies an already-warned
    // saturated wire volume, so it saturates silently here.
    const double wire = std::ceil((double)cost.wireBytes *
                                  frequency_ghz / link.bandwidthGBps);
    const double total =
        (double)data_steps * (double)link.latencyCycles + wire;
    cost.cycles =
        total >= (double)kSaturated ? kSaturated : (std::uint64_t)total;
    return cost;
}

} // namespace

CollectiveCost
allReduceCost(const partition::LinkConfig &link, int chips,
              std::uint64_t bytes, double frequency_ghz)
{
    return ringCost(link, chips, bytes, frequency_ghz,
                    2 * ((std::uint64_t)chips - 1), "all-reduce");
}

CollectiveCost
allGatherCost(const partition::LinkConfig &link, int chips,
              std::uint64_t bytes, double frequency_ghz)
{
    return ringCost(link, chips, bytes, frequency_ghz,
                    (std::uint64_t)chips - 1, "all-gather");
}

CollectiveCost
scatterCost(const partition::LinkConfig &link, int chips,
            std::uint64_t bytes, double frequency_ghz)
{
    return ringCost(link, chips, bytes, frequency_ghz,
                    (std::uint64_t)chips - 1, "scatter");
}

} // namespace sharding
} // namespace supernpu
