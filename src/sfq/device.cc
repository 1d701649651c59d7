/**
 * @file
 * DeviceConfig implementation.
 */

#include "device.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/physics.hh"

namespace supernpu {
namespace sfq {

namespace {
/** Below this feature size the linear frequency scaling law stops. */
constexpr double scalingFloorUm = 0.2;
} // namespace

const char *
technologyName(Technology tech)
{
    switch (tech) {
      case Technology::RSFQ:
        return "RSFQ";
      case Technology::ERSFQ:
        return "ERSFQ";
    }
    panic("unknown technology");
}

double
DeviceConfig::timingScale() const
{
    SUPERNPU_ASSERT(featureSizeUm > 0, "bad feature size");
    // Delay shrinks linearly with feature size until 0.2 um, then
    // saturates (Kadin et al. scaling rule referenced by the paper).
    const double effective = std::max(featureSizeUm, scalingFloorUm);
    return effective / 1.0;
}

double
DeviceConfig::areaScale() const
{
    SUPERNPU_ASSERT(featureSizeUm > 0, "bad feature size");
    return featureSizeUm * featureSizeUm;
}

double
DeviceConfig::staticPowerPerJj() const
{
    if (technology == Technology::ERSFQ)
        return 0.0;
    return biasVoltage * biasCurrentPerJj;
}

double
DeviceConfig::switchEnergyFactor() const
{
    return technology == Technology::ERSFQ ? 2.0 : 1.0;
}

double
DeviceConfig::energyPerJjSwitch() const
{
    return unitCriticalCurrent * physics::phi0;
}

} // namespace sfq
} // namespace supernpu
