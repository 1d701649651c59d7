/**
 * @file
 * Conservation audits over simulation results.
 *
 * The paper validates its architecture model against gate-level JSIM
 * runs (Fig. 13); this repository's equivalent is cheaper and runs
 * on every result: a set of conservation invariants that any correct
 * accounting must satisfy, evaluated after each run. Cycle buckets
 * must roll up (`totalCycles == compute + prep + stall`, per layer
 * and summed), DRAM traffic must decompose exactly into its weight /
 * ifmap / output streams, serving busy-time cannot exceed
 * chips x makespan, goodput cannot exceed throughput, percentiles
 * must be ordered, and the fault path's kill / retry / give-up
 * counters must balance. A violation means a bookkeeping bug, never
 * a modeling choice — which is why audits can be fatal.
 *
 * Audits are always on in the test suites. For release runs they are
 * gated: the SUPERNPU_AUDIT environment variable ("1"/"0") wins,
 * falling back to the SUPERNPU_AUDIT CMake option's compiled-in
 * default.
 */

#ifndef SUPERNPU_OBS_AUDIT_HH
#define SUPERNPU_OBS_AUDIT_HH

#include <string>
#include <vector>

#include "npusim/result.hh"
#include "partition/pipeline_sim.hh"
#include "perf/profile.hh"
#include "serving/metrics.hh"
#include "sharding/planner.hh"

namespace supernpu {
namespace obs {

/** One failed invariant, formatted as `source:metric expected-vs-got`. */
struct Violation
{
    std::string source; ///< which accounting layer ("sim", "serving", a layer)
    std::string metric; ///< which invariant
    std::string expected;
    std::string got;

    /** `source:metric expected <x> got <y>` — the diagnostic line. */
    std::string str() const;
};

/** The outcome of one audit pass. */
struct AuditReport
{
    std::vector<Violation> violations;

    bool ok() const { return violations.empty(); }
    /** All violation lines joined with newlines; "" when ok. */
    std::string summary() const;
    /** Merge another report's violations into this one. */
    void merge(const AuditReport &other);
};

/**
 * Audit a cycle-level simulation result: per-layer and summed cycle
 * roll-ups, prep-bucket totals, and the DRAM byte decomposition.
 */
AuditReport auditSim(const npusim::SimResult &result);

/**
 * Audit a serving run: request conservation, busy-time versus
 * makespan, rate ordering (goodput <= throughput), availability and
 * utilization ranges, percentile ordering, batch accounting, and the
 * fault-path kill/retry/give-up balance.
 */
AuditReport auditServing(const serving::ServingReport &report);

/**
 * Audit a pipeline-parallel run: every stage's SimResult, stage
 * range contiguity, occupancy roll-ups (Σ stage + link cycles ==
 * fill), the bottleneck being the max-occupancy stage with
 * bottleneck <= fill <= stages x bottleneck, stage utilizations in
 * (0, 1] with exactly 1 at the bottleneck, a link-free final stage,
 * and the stream makespan identity fill + (M-1)·bottleneck.
 */
AuditReport auditPipeline(const partition::PipelineResult &result);

/**
 * Audit a tensor-parallel shard run: the wide shard's SimResult,
 * per-layer shard/reduce cycles and bytes rolling up exactly to the
 * totals, shard + collective == total, zero collectives (and
 * total == solo) at T=1, and group MAC throughput bounded by T
 * chips' peak rate (the speedup itself may exceed T when sharding
 * drops whole weight mappings).
 */
AuditReport auditSharding(const sharding::TensorShardResult &result);

/**
 * Audit a hybrid DP×TP×PP plan: every pipeline stage's SimResult at
 * the replica share ceil(batch/R), the TP overlay rolling up (Σ stage
 * collective == tensor collective, stage occupancy == pipeline
 * occupancy + overlay), bottleneck == max overlaid occupancy with
 * fill == Σ, interval == max(bottleneck, gather) and latency == fill
 * + gather, zero collectives at degree 1, and group MAC throughput
 * bounded by R·T·K chips' peak rate (the speedup itself may exceed
 * R·T·K when sharding drops whole weight mappings, or when the full
 * batch outgrows the chip and the solo run slows per image).
 */
AuditReport auditSharding(const sharding::ShardPlan &plan);

/**
 * Audit a profiler snapshot: every nested phase path must have its
 * parent path present in the report (scopes close inside out, so an
 * orphan child means the registry was corrupted or reset mid-scope),
 * and the children of one parent can never sum past the parent's
 * time (child intervals are disjoint subintervals of each parent
 * instance). When `wall_ns_bound` is nonzero, the root phases must
 * additionally sum to at most that bound — the single-threaded
 * roll-up check the bench harness runs against its measured wall
 * clock (meaningless with worker threads, where phase time is a sum
 * across concurrent timelines; pass 0 there).
 */
AuditReport auditPerf(const perf::Report &report,
                      std::uint64_t wall_ns_bound = 0);

/**
 * Whether audits should run: the SUPERNPU_AUDIT environment variable
 * ("1" on, "0" off) when set, else the compiled-in default from the
 * SUPERNPU_AUDIT CMake option.
 */
bool auditEnabled();

/**
 * Print every violation via warn() and fatal() when the report is
 * not ok. No-op on a clean report.
 */
void enforce(const AuditReport &report, const std::string &context);

} // namespace obs
} // namespace supernpu

#endif // SUPERNPU_OBS_AUDIT_HH
