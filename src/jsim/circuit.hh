/**
 * @file
 * Netlist representation for the Josephson-junction transient
 * simulator.
 *
 * The paper extracts its RSFQ gate parameters with JSIM, an analog
 * circuit simulator for superconductive electronics. This module is
 * our JSIM substitute: a nodal phase-based transient simulator for
 * circuits made of Josephson junctions, inductors, resistors, and
 * current sources.
 *
 * Formulation: each node n carries a superconducting phase phi_n;
 * the node voltage is V_n = (Phi0 / 2 pi) * dphi_n/dt. Branch
 * currents follow the RSJC (resistively and capacitively shunted
 * junction) model:
 *
 *   JJ:        i = Ic sin(phi) + (Phi0/2pi) phi' / R + (Phi0/2pi) C phi''
 *   inductor:  i = (Phi0/2pi) (phi_a - phi_b) / L
 *   resistor:  i = (Phi0/2pi) (phi_a' - phi_b') / R
 *
 * Kirchhoff's current law per node yields a second-order ODE system
 * M phi'' + D(phi') + f(phi) = I(t) which the simulator integrates
 * with classical RK4.
 */

#ifndef SUPERNPU_JSIM_CIRCUIT_HH
#define SUPERNPU_JSIM_CIRCUIT_HH

#include <cstddef>
#include <string>
#include <vector>

#include "common/physics.hh"

namespace supernpu {
namespace jsim {

using physics::phi0;
using physics::phi0Over2Pi;

/** Node index type; node 0 is always ground. */
using NodeId = std::size_t;
/** Ground node constant. */
constexpr NodeId ground = 0;

/** A Josephson junction in the RSJC model. */
struct Junction
{
    std::string label;   ///< Name used in measurements ("J1", ...).
    NodeId positive;     ///< Node the junction current leaves.
    NodeId negative;     ///< Node the junction current enters.
    double criticalCurrent; ///< Ic, amperes.
    double shuntResistance; ///< R, ohms (external shunt + subgap).
    double capacitance;     ///< C, farads.
};

/** A linear inductor. */
struct Inductor
{
    NodeId positive;
    NodeId negative;
    double inductance; ///< henries
};

/** A linear resistor. */
struct Resistor
{
    NodeId positive;
    NodeId negative;
    double resistance; ///< ohms
};

/** A DC bias current source injecting into `into` (from ground). */
struct BiasSource
{
    NodeId into;
    double current; ///< amperes
};

/**
 * A raised-cosine current pulse injected into a node, used to launch
 * SFQ pulses into a circuit's input JTL. Each entry of `times` starts
 * one pulse.
 */
struct PulseSource
{
    NodeId into;
    double amplitude;         ///< peak current, amperes
    double width;             ///< full pulse width, seconds
    std::vector<double> times; ///< pulse start times, seconds
};

/**
 * Mutable netlist under construction. The builder API hands out node
 * ids; ground (node 0) pre-exists.
 */
class Circuit
{
  public:
    Circuit();

    /** Create a new circuit node and return its id. */
    NodeId addNode();

    /** Number of nodes including ground. */
    std::size_t nodeCount() const { return _nodeCount; }

    /** Add a Josephson junction; returns its index for measurement. */
    std::size_t addJunction(const std::string &label, NodeId pos,
                            NodeId neg, double ic, double r, double c);

    /** Add an inductor between two nodes. */
    void addInductor(NodeId pos, NodeId neg, double l);

    /** Add a resistor between two nodes. */
    void addResistor(NodeId pos, NodeId neg, double r);

    /** Add a DC bias current source feeding a node. */
    void addBias(NodeId into, double current);

    /** Add a pulse source feeding a node. */
    void addPulses(NodeId into, double amplitude, double width,
                   std::vector<double> times);

    /** Look up a junction index by label; panics when absent. */
    std::size_t junctionIndex(const std::string &label) const;

    const std::vector<Junction> &junctions() const { return _junctions; }
    const std::vector<Inductor> &inductors() const { return _inductors; }
    const std::vector<Resistor> &resistors() const { return _resistors; }
    const std::vector<BiasSource> &biases() const { return _biases; }
    const std::vector<PulseSource> &pulses() const { return _pulses; }

    /** Total DC bias current, used for static power accounting. */
    double totalBiasCurrent() const;

    /**
     * SPICE-flavoured netlist dump for inspection and debugging:
     * one line per element with nodes and values in engineering
     * units.
     */
    std::string dumpNetlist() const;

  private:
    std::size_t _nodeCount;
    std::vector<Junction> _junctions;
    std::vector<Inductor> _inductors;
    std::vector<Resistor> _resistors;
    std::vector<BiasSource> _biases;
    std::vector<PulseSource> _pulses;
};

} // namespace jsim
} // namespace supernpu

#endif // SUPERNPU_JSIM_CIRCUIT_HH
