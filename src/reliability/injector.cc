/**
 * @file
 * Fault-injection implementation: degraded-geometry re-estimation
 * and cached, fault-keyed cycle simulations.
 */

#include "injector.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "npusim/sim.hh"

namespace supernpu {
namespace reliability {

DegradedGeometry
geometryAfter(const FaultSchedule &schedule, int chip)
{
    DegradedGeometry geometry;
    for (const FaultEvent event : schedule.events()) {
        if (event.chip != chip || event.kind != FaultKind::FluxTrap)
            continue;
        if (event.trapTarget == FluxTrapTarget::PeColumn)
            ++geometry.disabledColumns;
        else
            ++geometry.disabledChunks;
    }
    return geometry;
}

estimator::NpuEstimate
degradeEstimate(const estimator::NpuEstimate &estimate,
                const DegradedGeometry &geometry)
{
    if (geometry.pristine())
        return estimate;
    SUPERNPU_ASSERT(geometry.disabledColumns >= 0 &&
                        geometry.disabledChunks >= 0 &&
                        geometry.frequencyDerate >= 0.0 &&
                        geometry.frequencyDerate < 1.0,
                    "bad degraded geometry");

    estimator::NpuEstimate out = estimate;
    out.config.name += "+degraded";

    // --- PE columns remapped out ----------------------------------
    // Each disabled column strands its slice of the output-side
    // buffers too (the buffer rows feed fixed columns, Fig. 18(b)).
    const int old_w = estimate.config.peWidth;
    const int new_w =
        std::max(1, old_w - geometry.disabledColumns);
    out.config.peWidth = new_w;
    const double col_keep = (double)new_w / (double)old_w;
    out.config.outputBufferBytes = (std::uint64_t)(
        (double)estimate.config.outputBufferBytes * col_keep);
    out.config.psumBufferBytes = (std::uint64_t)(
        (double)estimate.config.psumBufferBytes * col_keep);
    out.config.ofmapBufferBytes = (std::uint64_t)(
        (double)estimate.config.ofmapBufferBytes * col_keep);

    // --- buffer chunks lost to trapped flux ------------------------
    if (geometry.disabledChunks > 0) {
        const std::uint64_t chunk_bytes = std::max<std::uint64_t>(
            1, estimate.ifmapChunkLength);
        const std::uint64_t lost = std::min(
            estimate.config.ifmapBufferBytes,
            chunk_bytes * (std::uint64_t)geometry.disabledChunks);
        const double keep =
            estimate.config.ifmapBufferBytes > 0
                ? 1.0 - (double)lost /
                            (double)estimate.config.ifmapBufferBytes
                : 1.0;
        out.config.ifmapBufferBytes = (std::uint64_t)(
            (double)estimate.config.ifmapBufferBytes * keep);
        out.ifmapRowLength = std::max<std::uint64_t>(
            1, (std::uint64_t)((double)estimate.ifmapRowLength * keep));
        out.ifmapChunkLength = std::max<std::uint64_t>(
            1,
            (std::uint64_t)((double)estimate.ifmapChunkLength * keep));
    }

    // --- timing-margin derate --------------------------------------
    const double freq_keep = 1.0 - geometry.frequencyDerate;
    out.frequencyGhz = estimate.frequencyGhz * freq_keep;

    out.peakMacPerSec = estimate.peakMacPerSec * freq_keep * col_keep;
    return out;
}

FaultInjector::FaultInjector(const estimator::NpuEstimate &estimate,
                             npusim::SimCache *cache)
    : _est(estimate),
      _cache(cache != nullptr ? cache : &npusim::SimCache::global())
{
}

std::shared_ptr<const npusim::SimResult>
FaultInjector::run(const dnn::Network &network, int batch,
                   const FaultSchedule &schedule, int chip) const
{
    SUPERNPU_ASSERT(batch >= 1, "bad batch");

    const DegradedGeometry geometry = geometryAfter(schedule, chip);
    const estimator::NpuEstimate est =
        geometry.pristine() ? _est : degradeEstimate(_est, geometry);
    npusim::NpuSimulator sim(est);

    // Chip index participates in the fault hash: each chip sees its
    // own slice of the cryostat's schedule. Empty schedules keep the
    // clean key (faultHash 0) so they share the clean cache entry.
    const std::uint64_t fault_hash =
        schedule.empty()
            ? 0
            : streamSeed(schedule.hash(), (std::uint64_t)chip);
    const npusim::SimKey key{npusim::hashNetwork(network),
                             npusim::hashEstimate(est), batch,
                             fault_hash};

    return _cache->getOrCompute(key, [&] {
        npusim::SimResult out = sim.run(network, batch);
        if (schedule.empty())
            return out;

        // Transient pulse drops corrupt the weight mapping in
        // flight; each one inside the run's span costs the mean
        // per-mapping redo.
        const double span = out.seconds();
        std::uint64_t drops_in_span = 0;
        std::uint64_t events_for_chip = 0;
        for (const FaultEvent event : schedule.events()) {
            if (event.chip != chip)
                continue;
            ++events_for_chip;
            if (event.kind == FaultKind::PulseDrop &&
                event.timeSec < span)
                ++drops_in_span;
        }
        out.faultEventsInjected = events_for_chip;
        if (drops_in_span > 0) {
            std::uint64_t mappings = 0;
            for (const auto &layer : out.layers())
                mappings += layer.weightMappings;
            const std::uint64_t redo =
                out.totalCycles / std::max<std::uint64_t>(1, mappings);
            out.faultRecomputeCycles =
                drops_in_span * std::max<std::uint64_t>(1, redo);
        }
        return out;
    });
}

double
FaultInjector::serviceDerate(const dnn::Network &network, int batch,
                             const FaultSchedule &schedule,
                             int chip) const
{
    const auto clean = run(network, batch, FaultSchedule{}, 0);
    const auto faulted = run(network, batch, schedule, chip);
    const double derate =
        faulted->secondsWithRecompute() / clean->seconds();
    return std::max(1.0, derate);
}

} // namespace reliability
} // namespace supernpu
