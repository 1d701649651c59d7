/**
 * @file
 * Oracle implementations. See the header for the catalog contract
 * and docs/checking.md for why each relation is a theorem of the
 * model under its stated restrictions.
 */

#include "oracles.hh"

#include <algorithm>
#include <sstream>

#include "common/logging.hh"
#include "estimator/npu_estimator.hh"
#include "npusim/batch.hh"
#include "npusim/sim.hh"
#include "npusim/sim_cache.hh"
#include "obs/audit.hh"
#include "obs/json_reader.hh"
#include "obs/ledger.hh"
#include "partition/partitioner.hh"
#include "partition/pipeline_sim.hh"
#include "reliability/injector.hh"
#include "serving/service_model.hh"
#include "serving/simulator.hh"
#include "sharding/planner.hh"

namespace supernpu {
namespace check {

const char *
cookName(Cook cook)
{
    return cook == Cook::None ? "none" : "tamper";
}

namespace {

/** Collects the first violated assertion of one oracle run. */
class Checker
{
  public:
    void
    expectTrue(bool condition, const std::string &what)
    {
        if (!condition && _detail.empty())
            _detail = what;
    }

    template <typename A, typename B>
    void
    expectEq(const A &a, const B &b, const std::string &what)
    {
        if (!(a == b))
            record(what, a, "==", b);
    }

    template <typename A, typename B>
    void
    expectLe(const A &a, const B &b, const std::string &what)
    {
        if (!(a <= b))
            record(what, a, "<=", b);
    }

    OracleOutcome
    outcome() const
    {
        OracleOutcome result;
        result.passed = _detail.empty();
        result.detail = _detail;
        return result;
    }

  private:
    template <typename A, typename B>
    void
    record(const std::string &what, const A &a, const char *relation,
           const B &b)
    {
        if (!_detail.empty())
            return;
        std::ostringstream out;
        out << what << " (expected " << a << " " << relation << " "
            << b << ")";
        _detail = out.str();
    }

    std::string _detail;
};

OracleOutcome
notApplicable()
{
    OracleOutcome outcome;
    outcome.applicable = false;
    return outcome;
}

estimator::NpuEstimate
makeEstimate(const CheckCase &c, const sfq::CellLibrary &library)
{
    estimator::NpuEstimator npu_estimator(library);
    return npu_estimator.estimate(c.config());
}

/**
 * Every cycle bucket of a direct run must roll up (the obs audit);
 * the cook perturbs the total so the roll-up cannot balance.
 */
OracleOutcome
oracleSimConservation(const CheckCase &c, const sfq::CellLibrary &lib,
                      Cook cook)
{
    const estimator::NpuEstimate est = makeEstimate(c, lib);
    npusim::NpuSimulator sim(est);
    npusim::SimResult result = sim.run(c.network(), c.batch);
    if (cook == Cook::Tamper)
        result.totalCycles += 1;
    const obs::AuditReport report = obs::auditSim(result);
    Checker checker;
    checker.expectTrue(report.ok(), "auditSim: " + report.summary());
    return checker.outcome();
}

/**
 * The K=1 pipeline and the degree-1 hybrid plan must resolve to the
 * *same cache entry* as the direct simulation — pointer identity,
 * not just equal numbers — and the ledgers built from either side
 * must be byte-identical. The cook partitions at a different batch,
 * which lands on a different cache entry.
 */
OracleOutcome
oracleCrossPath(const CheckCase &c, const sfq::CellLibrary &lib,
                Cook cook)
{
    const estimator::NpuEstimate est = makeEstimate(c, lib);
    npusim::SimCache cache;
    npusim::NpuSimulator sim(est);
    const dnn::Network net = c.network();
    const auto direct = cache.getOrRun(sim, net, c.batch);

    Checker checker;

    const partition::Partitioner partitioner(est, c.link, &cache);
    const int partition_batch =
        c.batch + (cook == Cook::Tamper ? 1 : 0);
    const partition::PartitionPlan plan =
        partitioner.partition(net, 1, partition_batch);
    checker.expectEq((int)plan.stages.size(), 1, "K=1 stage count");
    checker.expectTrue(plan.stages[0].sim.get() == direct.get(),
                       "partition@K=1 stage sim is not the direct "
                       "simulation's cache entry");

    const sharding::HybridPlanner planner(est, c.link, &cache);
    const sharding::ShardPlan shard =
        planner.evaluate(net, 1, 1, 1, c.batch);
    checker.expectTrue(
        !shard.pipeline.stages.empty() &&
            shard.pipeline.stages[0].sim.get() == direct.get(),
        "shard@degree-1 stage sim is not the direct simulation's "
        "cache entry");

    obs::RunLedger direct_ledger, staged_ledger;
    obs::addSimResult(direct_ledger, *direct);
    obs::addSimResult(staged_ledger, *plan.stages[0].sim);
    checker.expectTrue(direct_ledger.json() == staged_ledger.json(),
                       "direct and K=1 ledgers are not byte-identical");
    return checker.outcome();
}

/**
 * Pipeline conservation laws (occupancy roll-ups, bottleneck, the
 * fill + (M-1)*bottleneck makespan identity) plus link-transfer
 * monotonicity in bandwidth. The cook perturbs the makespan.
 */
OracleOutcome
oraclePipeline(const CheckCase &c, const sfq::CellLibrary &lib,
               Cook cook)
{
    const estimator::NpuEstimate est = makeEstimate(c, lib);
    npusim::SimCache cache;
    const partition::PipelineSimulator pipeline(est, c.link, &cache);
    partition::PipelineResult result =
        pipeline.run(c.network(), c.pipelineStages, c.batch, 3);
    if (cook == Cook::Tamper)
        result.makespanCycles += 1;
    const obs::AuditReport report = obs::auditPipeline(result);
    Checker checker;
    checker.expectTrue(report.ok(),
                       "auditPipeline: " + report.summary());

    partition::LinkConfig fast = c.link;
    fast.bandwidthGBps *= 2.0;
    const std::uint64_t probe_bytes = 1u << 20;
    checker.expectLe(
        partition::transferCycles(fast, probe_bytes,
                                  est.frequencyGhz),
        partition::transferCycles(c.link, probe_bytes,
                                  est.frequencyGhz),
        "doubling link bandwidth must not add transfer cycles");
    return checker.outcome();
}

/**
 * A hybrid plan's solo baseline must be the *full-batch single-chip*
 * run (PR 7's bug took it from the replica-share run, inflating
 * every reported speedup). The cook re-introduces exactly that
 * arithmetic, so it needs a case where the replica share differs
 * from the full batch.
 */
OracleOutcome
oracleShardSolo(const CheckCase &c, const sfq::CellLibrary &lib,
                Cook cook)
{
    const estimator::NpuEstimate est = makeEstimate(c, lib);
    npusim::SimCache cache;
    npusim::NpuSimulator sim(est);
    const dnn::Network net = c.network();
    const sharding::HybridPlanner planner(est, c.link, &cache);
    sharding::ShardPlan plan =
        planner.evaluate(net, c.dataParallel, c.tensorShards,
                         c.pipelineStages, c.batch);
    const auto direct = cache.getOrRun(sim, net, c.batch);
    if (cook == Cook::Tamper) {
        if (plan.replicaShare >= c.batch)
            return notApplicable();
        const auto share = cache.getOrRun(sim, net, plan.replicaShare);
        if (share->totalCycles == direct->totalCycles)
            return notApplicable();
        plan.soloCycles = share->totalCycles;
    }
    Checker checker;
    const obs::AuditReport report = obs::auditSharding(plan);
    checker.expectTrue(report.ok(),
                       "auditSharding: " + report.summary());
    checker.expectEq(plan.soloCycles, direct->totalCycles,
                     "soloCycles must be the full-batch single-chip "
                     "run");
    if (c.tensorShards == 1) {
        checker.expectEq(plan.macOpsPerBatch, direct->macOps,
                         "unsharded plan MACs must match the direct "
                         "run");
    }
    return checker.outcome();
}

/**
 * Within the all-fit regime (batch <= the Table II solve, where the
 * fit thresholds are monotone), splitting a batch and running the
 * halves can never beat running it whole, and cycles are monotone
 * in batch. Outside that regime the relation is NOT a theorem — a
 * spilling batch legally charges no prep on the streamed path — so
 * the oracle derives its batches from npusim::maxBatch.
 */
OracleOutcome
oracleBatchSplit(const CheckCase &c, const sfq::CellLibrary &lib,
                 Cook cook)
{
    const estimator::NpuEstimate est = makeEstimate(c, lib);
    const dnn::Network net = c.network();
    const int fit = npusim::maxBatch(est.config, est, net);
    if (fit < 2)
        return notApplicable();
    const int whole_batch = std::min(std::max(c.batch, 2), fit);
    const int lo = whole_batch / 2;
    const int hi = whole_batch - lo;

    npusim::SimCache cache;
    npusim::NpuSimulator sim(est);
    const auto whole = cache.getOrRun(sim, net, whole_batch);
    const auto first = cache.getOrRun(sim, net, lo);
    const auto second = cache.getOrRun(sim, net, hi);

    std::uint64_t whole_cycles = whole->totalCycles;
    if (cook == Cook::Tamper)
        whole_cycles *= 3;

    Checker checker;
    checker.expectLe(whole_cycles,
                     first->totalCycles + second->totalCycles,
                     "split-and-gather must never beat the whole "
                     "batch");
    checker.expectLe(first->totalCycles, whole_cycles,
                     "cycles must be monotone in batch (all-fit "
                     "regime)");
    return checker.outcome();
}

/**
 * Weight double buffering hides fetches behind the *previous*
 * mapping's compute (PR 4's bug overlapped the current one): with
 * geometry and frequency held fixed, turning it on can only shave
 * weight-load cycles, and the very first mapping — which has no
 * previous compute to hide behind — must cost exactly the same.
 * The cook makes the buffered run one cycle slower.
 */
OracleOutcome
oracleDoubleBuffering(const CheckCase &c, const sfq::CellLibrary &lib,
                      Cook cook)
{
    CheckCase plain = c;
    plain.weightDoubleBuffering = false;
    const estimator::NpuEstimate est_off = makeEstimate(plain, lib);
    // Flip only the flag on a copy: re-estimating could move the
    // frequency and turn the comparison into apples vs oranges.
    estimator::NpuEstimate est_on = est_off;
    est_on.config.weightDoubleBuffering = true;

    const dnn::Network net = c.network();
    const npusim::SimResult off =
        npusim::NpuSimulator(est_off).run(net, c.batch);
    npusim::SimResult on =
        npusim::NpuSimulator(est_on).run(net, c.batch);
    if (cook == Cook::Tamper)
        on.totalCycles = off.totalCycles + 1;

    Checker checker;
    checker.expectLe(on.totalCycles, off.totalCycles,
                     "double buffering must never slow a run");
    const npusim::LayerView on_layers = on.layers();
    const npusim::LayerView off_layers = off.layers();
    for (std::size_t i = 0; i < off_layers.size(); ++i) {
        checker.expectLe(on_layers[i].prep.weightLoad,
                         off_layers[i].prep.weightLoad,
                         "double buffering must never add weight-load "
                         "cycles (" + off_layers[i].layerName + ")");
    }
    if (!off_layers.empty() && off_layers[0].weightMappings == 1) {
        checker.expectEq(on_layers[0].prep.weightLoad,
                         off_layers[0].prep.weightLoad,
                         "the first mapping has nothing to hide "
                         "behind");
    }
    return checker.outcome();
}

/**
 * Doubling the per-PE register file can only merge weight mappings,
 * never split them. The cook claims one extra mapping.
 */
OracleOutcome
oracleRegsMonotone(const CheckCase &c, const sfq::CellLibrary &lib,
                   Cook cook)
{
    CheckCase doubled = c;
    doubled.regsPerPe = c.regsPerPe * 2;
    const estimator::NpuEstimate est_lo = makeEstimate(c, lib);
    const estimator::NpuEstimate est_hi = makeEstimate(doubled, lib);
    const dnn::Network net = c.network();
    const npusim::SimResult lo =
        npusim::NpuSimulator(est_lo).run(net, c.batch);
    const npusim::SimResult hi =
        npusim::NpuSimulator(est_hi).run(net, c.batch);
    std::uint64_t lo_mappings = 0, hi_mappings = 0;
    for (const npusim::LayerResult &layer : lo.layers())
        lo_mappings += layer.weightMappings;
    for (const npusim::LayerResult &layer : hi.layers())
        hi_mappings += layer.weightMappings;
    if (cook == Cook::Tamper)
        hi_mappings = lo_mappings + 1;
    Checker checker;
    checker.expectLe(hi_mappings, lo_mappings,
                     "doubling registers must never add weight "
                     "mappings");
    return checker.outcome();
}

/**
 * DRAM stalls scale as bytes * frequency / bandwidth, so doubling
 * the bandwidth on the estimate — directly, so the frequency cannot
 * move — can only remove cycles. The cook makes the fast run slower.
 */
OracleOutcome
oracleBandwidthMonotone(const CheckCase &c,
                        const sfq::CellLibrary &lib, Cook cook)
{
    const estimator::NpuEstimate est = makeEstimate(c, lib);
    estimator::NpuEstimate fast = est;
    fast.config.memoryBandwidth *= 2.0;
    const dnn::Network net = c.network();
    const npusim::SimResult slow =
        npusim::NpuSimulator(est).run(net, c.batch);
    const npusim::SimResult quick =
        npusim::NpuSimulator(fast).run(net, c.batch);
    std::uint64_t quick_cycles = quick.totalCycles;
    if (cook == Cook::Tamper)
        quick_cycles = slow.totalCycles + 1;
    Checker checker;
    checker.expectLe(quick_cycles, slow.totalCycles,
                     "doubling memory bandwidth must never add "
                     "cycles");
    return checker.outcome();
}

/**
 * For *transient-only* schedules (a flux trap narrows the array and
 * can legally flip fit thresholds, so permanent faults are excluded
 * by construction in the generator), a prefix subset of the events
 * injects at most as many faults and at most as many recompute
 * cycles — and the empty schedule is pointer-identical to the clean
 * cached run. The cook claims the subset recomputed more.
 */
OracleOutcome
oracleFaultSubset(const CheckCase &c, const sfq::CellLibrary &lib,
                  Cook cook)
{
    const estimator::NpuEstimate est = makeEstimate(c, lib);
    npusim::SimCache cache;
    npusim::NpuSimulator sim(est);
    const dnn::Network net = c.network();
    const auto clean = cache.getOrRun(sim, net, c.batch);

    reliability::FaultScheduleConfig fc;
    fc.horizonSec = 0.01;
    fc.chips = 1;
    fc.seed = c.faultSeed;
    fc.pulseDropRatePerSec = c.pulseDropRate;
    fc.clockSkewRatePerSec = c.clockSkewRate;
    fc.linkGlitchRatePerSec = c.linkGlitchRate;

    const reliability::FaultInjector injector(est, &cache);
    const auto via_empty =
        injector.run(net, c.batch, reliability::FaultSchedule{});
    Checker checker;
    checker.expectTrue(via_empty.get() == clean.get(),
                       "empty schedule must return the clean cache "
                       "entry itself");

    const reliability::FaultSchedule full =
        reliability::FaultSchedule::generate(fc);
    const auto with_full = injector.run(net, c.batch, full);
    std::vector<reliability::FaultEvent> prefix(
        full.events().begin(),
        full.events().begin() + full.size() / 2);
    const reliability::FaultSchedule half =
        reliability::FaultSchedule::fromEvents(fc, std::move(prefix));
    const auto with_half = injector.run(net, c.batch, half);

    std::uint64_t half_events = with_half->faultEventsInjected;
    std::uint64_t half_recompute = with_half->faultRecomputeCycles;
    if (cook == Cook::Tamper)
        half_recompute = with_full->faultRecomputeCycles + 1;
    checker.expectLe(half_events, with_full->faultEventsInjected,
                     "an event subset must inject a subset");
    checker.expectLe(half_recompute,
                     with_full->faultRecomputeCycles,
                     "an event subset must recompute no more");
    return checker.outcome();
}

serving::ServingConfig
servingConfig(const CheckCase &c)
{
    serving::ServingConfig config;
    config.arrival.kind = serving::ArrivalKind::OpenPoisson;
    config.arrival.ratePerSec = c.servingRps;
    config.batching.policy = c.servingFixedBatch
                                 ? serving::BatchPolicy::FixedBatch
                                 : serving::BatchPolicy::DynamicTimeout;
    config.batching.maxBatch = c.servingMaxBatch;
    // The case's parallelism degrees place the fleet as servingChips
    // groups: K-stage pipelines when the case is not replicated,
    // R-replica groups otherwise.
    if (c.dataParallel == 1)
        config.pipelineStages = c.pipelineStages;
    config.dataParallelReplicas = c.dataParallel;
    config.link = c.link;
    config.chips = c.servingChips * config.pipelineStages *
                   config.dataParallelReplicas;
    config.requests = c.servingRequests;
    config.seed = c.servingSeed;
    config.check();
    return config;
}

/**
 * A fault-free serving run must conserve requests, pass the serving
 * audit, and land inside its closed-form envelope from the group
 * timing model: throughput cannot beat groups * the best per-group
 * batches-per-interval peak, and no request can finish faster than
 * the cheapest batch latency. The cook inflates the reported
 * throughput past the envelope.
 */
OracleOutcome
oracleServingBounds(const CheckCase &c, const sfq::CellLibrary &lib,
                    Cook cook)
{
    const estimator::NpuEstimate est = makeEstimate(c, lib);
    npusim::SimCache cache;
    const dnn::Network net = c.network();
    const serving::BatchServiceModel service(est, net, &cache);
    const serving::ServingConfig config = servingConfig(c);
    serving::ServingReport report =
        serving::ServingSimulator(service, config).run();

    const serving::GroupTimingModel group(
        service, config.pipelineStages, config.dataParallelReplicas,
        config.link);
    double peak = 0.0;
    double min_latency = 0.0;
    for (int b = 1; b <= config.batching.maxBatch; ++b) {
        const serving::GroupTimingModel::Timing &timing =
            group.timing(b);
        peak = std::max(peak, (double)b / timing.intervalSec);
        if (b == 1 || timing.latencySec < min_latency)
            min_latency = timing.latencySec;
    }
    const double ceiling =
        (double)(config.chips / group.chips()) * peak;
    if (cook == Cook::Tamper)
        report.throughputRps = ceiling * 1.5 + 1.0;

    Checker checker;
    const obs::AuditReport audit = obs::auditServing(report);
    checker.expectTrue(audit.ok(),
                       "auditServing: " + audit.summary());
    checker.expectEq(report.completed, report.generated,
                     "every injected request must complete");
    checker.expectLe(report.throughputRps, ceiling * (1.0 + 1e-9),
                     "throughput must not beat the closed-form peak");
    checker.expectLe(min_latency * (1.0 - 1e-9), report.latencyMax,
                     "no request can finish faster than the cheapest "
                     "batch latency");
    return checker.outcome();
}

/**
 * Two runs of the same (config, seed) must produce byte-identical
 * serving ledgers — the replay guarantee every repro in
 * tests/repros/ leans on. The cook corrupts the second rendering.
 */
OracleOutcome
oracleServingDeterminism(const CheckCase &c,
                         const sfq::CellLibrary &lib, Cook cook)
{
    const estimator::NpuEstimate est = makeEstimate(c, lib);
    npusim::SimCache cache;
    const dnn::Network net = c.network();
    const serving::BatchServiceModel service(est, net, &cache);
    const serving::ServingConfig config = servingConfig(c);
    obs::RunLedger first_ledger, second_ledger;
    obs::addServingReport(
        first_ledger, serving::ServingSimulator(service, config).run());
    obs::addServingReport(
        second_ledger,
        serving::ServingSimulator(service, config).run());
    const std::string first = first_ledger.json();
    std::string second = second_ledger.json();
    if (cook == Cook::Tamper)
        second += " ";
    Checker checker;
    checker.expectTrue(first == second,
                       "serving runs of one (config, seed) must be "
                       "byte-identical");
    return checker.outcome();
}

/**
 * A ledger must render repeatably, parse under the strict reader,
 * and round-trip its numbers exactly. The cook truncates the
 * document's closing brace.
 */
OracleOutcome
oracleLedgerRoundtrip(const CheckCase &c, const sfq::CellLibrary &lib,
                      Cook cook)
{
    const estimator::NpuEstimate est = makeEstimate(c, lib);
    npusim::SimCache cache;
    npusim::NpuSimulator sim(est);
    const dnn::Network net = c.network();
    const auto direct = cache.getOrRun(sim, net, c.batch);
    obs::RunLedger ledger;
    obs::addSimResult(ledger, *direct);
    obs::addSimCacheStats(ledger, cache.stats());
    std::string text = ledger.json();
    Checker checker;
    checker.expectTrue(text == ledger.json(),
                       "json() must render repeatably");
    if (cook == Cook::Tamper) {
        const std::size_t brace = text.rfind('}');
        if (brace != std::string::npos)
            text.erase(brace);
    }
    std::string error;
    const auto doc = obs::parseJson(text, &error);
    checker.expectTrue(doc.has_value(),
                       "ledger JSON must parse strictly: " + error);
    if (doc.has_value()) {
        checker.expectEq(doc->stringAt("schema"),
                         std::string(obs::kLedgerSchema),
                         "ledger schema tag");
        const obs::JsonValue *sections = doc->find("sections");
        const obs::JsonValue *sim_section =
            sections ? sections->find("sim") : nullptr;
        checker.expectTrue(sim_section != nullptr,
                           "ledger must carry a sim section");
        if (sim_section) {
            checker.expectEq(sim_section->numberAt("totalCycles"),
                             (double)direct->totalCycles,
                             "totalCycles must round-trip exactly");
            checker.expectEq(sim_section->numberAt("frequencyGhz"),
                             direct->frequencyGhz,
                             "frequencyGhz must round-trip exactly");
        }
    }
    return checker.outcome();
}

using OracleFn = OracleOutcome (*)(const CheckCase &,
                                   const sfq::CellLibrary &, Cook);

struct OracleEntry
{
    const char *name;
    OracleFn fn;
};

const OracleEntry kOracles[] = {
    {"sim-conservation", oracleSimConservation},
    {"cross-path-identity", oracleCrossPath},
    {"pipeline-identities", oraclePipeline},
    {"shard-solo-baseline", oracleShardSolo},
    {"batch-subadditivity", oracleBatchSplit},
    {"double-buffering", oracleDoubleBuffering},
    {"regs-monotonicity", oracleRegsMonotone},
    {"bandwidth-monotonicity", oracleBandwidthMonotone},
    {"fault-subset", oracleFaultSubset},
    {"serving-bounds", oracleServingBounds},
    {"serving-determinism", oracleServingDeterminism},
    {"ledger-roundtrip", oracleLedgerRoundtrip},
};

} // namespace

const std::vector<std::string> &
oracleNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> list;
        for (const OracleEntry &entry : kOracles)
            list.push_back(entry.name);
        return list;
    }();
    return names;
}

bool
isOracle(const std::string &name)
{
    for (const OracleEntry &entry : kOracles) {
        if (name == entry.name)
            return true;
    }
    return false;
}

OracleOutcome
runOracle(const std::string &name, const CheckCase &c,
          const sfq::CellLibrary &library, Cook cook)
{
    for (const OracleEntry &entry : kOracles) {
        if (name == entry.name)
            return entry.fn(c, library, cook);
    }
    panic("unknown oracle '", name, "'");
}

} // namespace check
} // namespace supernpu
