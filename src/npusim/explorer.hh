/**
 * @file
 * Design-space explorer: automates the Section V workflow — sweep
 * architecture knobs (array width, buffer division, registers per
 * PE), score each candidate over a workload set at its solved batch,
 * and rank by a chosen objective. Inoperable candidates (design-rule
 * errors) are skipped with a note.
 *
 * Candidates are independent, so the sweep fans out over a
 * common/parallel ThreadPool (the `jobs` argument) and memoizes every
 * cycle simulation in a npusim::SimCache. The parallel sweep is
 * bit-identical to the serial one: candidates are evaluated into
 * submission-order slots and ranked by the same stable sort, and the
 * per-candidate workload loop never changes order, so
 * explore(space, obj, 8) returns byte-for-byte the vector of
 * explore(space, obj, 1).
 */

#ifndef SUPERNPU_NPUSIM_EXPLORER_HH
#define SUPERNPU_NPUSIM_EXPLORER_HH

#include <string>
#include <vector>

#include "common/parallel.hh"
#include "dnn/layer.hh"
#include "estimator/npu_estimator.hh"
#include "power/power.hh"
#include "sim_cache.hh"

namespace supernpu {
namespace npusim {

/** Ranking objective. */
enum class Objective
{
    Throughput,     ///< average effective MAC/s
    PerfPerWatt,    ///< MAC/s per chip watt (cooling excluded)
    PerfPerArea,    ///< MAC/s per mm^2 at the native node
};

/** Name of an objective for reports. */
const char *objectiveName(Objective objective);

/** The swept knob ranges. */
struct ExplorationSpace
{
    std::vector<int> widths = {256, 128, 64, 32};
    std::vector<int> divisions = {16, 64, 256};
    std::vector<int> regsPerPe = {1, 4, 8};

    /**
     * Total on-chip buffer MB granted at each width (the Fig. 21
     * resource-balancing points); must parallel `widths`.
     */
    std::vector<int> bufferMbForWidth = {24, 38, 46, 50};
};

/** One evaluated candidate. */
struct Candidate
{
    estimator::NpuConfig config;
    double avgMacPerSec = 0.0;
    double chipPowerW = 0.0;
    double areaMm2 = 0.0;
    double score = 0.0;
    bool operable = true;
    std::string note; ///< first design-rule error when inoperable
};

/** The exploration driver. */
class DesignSpaceExplorer
{
  public:
    /**
     * @param lib Cell library (fixes the device/technology point).
     * @param workloads Networks to average the score over.
     */
    DesignSpaceExplorer(const sfq::CellLibrary &lib,
                        std::vector<dnn::Network> workloads);

    /**
     * Evaluate every candidate in the space and return them ranked
     * best-first by the objective (inoperable candidates last).
     *
     * @param jobs Worker parallelism: 1 = serial (the reference
     *        path), 0 = hardware concurrency. Any value returns the
     *        identical ranked vector.
     */
    std::vector<Candidate> explore(const ExplorationSpace &space,
                                   Objective objective,
                                   int jobs = 1) const;

    /**
     * Same sweep on a caller-owned pool, so the caller can fold the
     * pool's work counters (ThreadPool::stats()) into a run ledger.
     */
    std::vector<Candidate> explore(const ExplorationSpace &space,
                                   Objective objective,
                                   ThreadPool &pool) const;

    /**
     * Memoization cache for the candidates' cycle simulations;
     * defaults to SimCache::global() so repeated sweeps (and the
     * serving service model) share results. Pass nullptr to simulate
     * every point afresh — the honest mode for scaling benchmarks.
     */
    void setCache(SimCache *cache) { _cache = cache; }

    /** Build the candidate config for one knob setting. */
    static estimator::NpuConfig makeConfig(int width, int division,
                                           int regs, int buffer_mb);

  private:
    /** Score one knob point (the parallel unit of work). */
    Candidate evaluate(const estimator::NpuEstimator &npu_estimator,
                       const estimator::NpuConfig &config,
                       Objective objective) const;

    const sfq::CellLibrary &_lib;
    std::vector<dnn::Network> _workloads;
    SimCache *_cache = &SimCache::global();
};

} // namespace npusim
} // namespace supernpu

#endif // SUPERNPU_NPUSIM_EXPLORER_HH
