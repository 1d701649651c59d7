/**
 * @file
 * Physical constants shared by the device model (src/sfq) and the
 * Josephson-junction transient simulator (src/jsim), so both derive
 * switching energies and phase-voltage relations from one value.
 */

#ifndef SUPERNPU_COMMON_PHYSICS_HH
#define SUPERNPU_COMMON_PHYSICS_HH

namespace supernpu {
namespace physics {

/** Magnetic flux quantum Phi0 = h / 2e, Wb. */
constexpr double phi0 = 2.067833848e-15;
/** Phi0 / 2 pi, the phase-to-flux conversion factor. */
constexpr double phi0Over2Pi = phi0 / 6.283185307179586;

} // namespace physics
} // namespace supernpu

#endif // SUPERNPU_COMMON_PHYSICS_HH
