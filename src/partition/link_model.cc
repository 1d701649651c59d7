/**
 * @file
 * Inter-chip link model implementation.
 */

#include "link_model.hh"

#include <cmath>
#include <limits>
#include <mutex>
#include <unordered_set>

#include "common/logging.hh"

namespace supernpu {
namespace partition {

namespace {

constexpr std::uint64_t kSaturated =
    std::numeric_limits<std::uint64_t>::max();

std::mutex warned_mutex;
std::unordered_set<std::string> warned_contexts;

} // namespace

std::uint64_t
saturatedBytes(std::initializer_list<std::uint64_t> factors,
               const std::string &context)
{
    double approx = 1.0;
    for (std::uint64_t f : factors)
        approx *= (double)f;
    bool first = false;
    {
        std::lock_guard<std::mutex> lock(warned_mutex);
        first = warned_contexts.insert(context).second;
    }
    if (first)
        warn(context, " (~", approx,
             " bytes) exceeds the 64-bit transfer size type; "
             "saturating (warned once for this boundary)");
    return kSaturated;
}

std::size_t
saturationWarningCount()
{
    std::lock_guard<std::mutex> lock(warned_mutex);
    return warned_contexts.size();
}

void
LinkConfig::check() const
{
    if (bandwidthGBps <= 0.0)
        fatal("link bandwidth must be positive, got ", bandwidthGBps,
              " GB/s");
}

std::uint64_t
activationBytes(const dnn::Layer &boundary, int batch)
{
    SUPERNPU_ASSERT(batch >= 1, "batch must be positive");
    return guardedBytes({(std::uint64_t)boundary.outChannels,
                         (std::uint64_t)boundary.outHeight(),
                         (std::uint64_t)boundary.outWidth(),
                         (std::uint64_t)batch},
                        [&] {
                            return "layer '" + boundary.name +
                                   "' activation transfer at batch " +
                                   std::to_string(batch);
                        });
}

std::uint64_t
transferCycles(const LinkConfig &link, std::uint64_t bytes,
               double frequency_ghz)
{
    link.check();
    SUPERNPU_ASSERT(frequency_ghz > 0.0, "clock must be positive");
    // cycles = bytes / (bytes/s) * (cycles/s); both in 1e9 units so
    // the 1e9 factors cancel. Values below 2^53 are exact in double;
    // anything larger saturates anyway.
    double wire = std::ceil((double)bytes * frequency_ghz /
                            link.bandwidthGBps);
    double total = (double)link.latencyCycles + wire;
    if (total >= (double)std::numeric_limits<std::uint64_t>::max()) {
        warn("link transfer of ", bytes,
             " bytes saturates the 64-bit cycle count");
        return std::numeric_limits<std::uint64_t>::max();
    }
    return (std::uint64_t)total;
}

} // namespace partition
} // namespace supernpu
