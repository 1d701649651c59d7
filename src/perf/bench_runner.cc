/**
 * @file
 * Bench harness implementation: the case registry, the
 * warmup/repeat/median timing loop, JSON export, and baseline
 * comparison.
 */

#include "bench_runner.hh"

#include <algorithm>
#include <fstream>

#include "check/runner.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "dnn/networks.hh"
#include "estimator/npu_estimator.hh"
#include "npusim/batch.hh"
#include "npusim/explorer.hh"
#include "npusim/sim.hh"
#include "npusim/sim_cache.hh"
#include "obs/audit.hh"
#include "obs/json_reader.hh"
#include "obs/json_writer.hh"
#include "partition/pipeline_sim.hh"
#include "reliability/fault_model.hh"
#include "serving/simulator.hh"
#include "sharding/planner.hh"

namespace supernpu {
namespace bench {

namespace {

/** What one case execution produced (work + deterministic metrics). */
struct CaseRun
{
    std::uint64_t work = 0;
    std::vector<Metric> metrics;
};

/** Shared knobs the case bodies read. */
struct CaseCtx
{
    bool smoke = true;
    int jobs = 1;
};

/** One registered case. */
struct BenchCase
{
    const char *name;
    const char *unit;
    CaseRun (*fn)(const CaseCtx &);
};

void
addMetric(CaseRun &run, const char *name, std::uint64_t value)
{
    run.metrics.push_back({name, value});
}

/** Low 32 bits of a fingerprint, so JSON numbers stay exactly
 *  representable as doubles for baseline comparison. */
std::uint64_t
low32(std::uint64_t hash)
{
    return hash & 0xffffffffull;
}

/** The paper's RSFQ 1.0 um SuperNPU design point. */
estimator::NpuEstimate
superNpuEstimate(sfq::Technology tech = sfq::Technology::RSFQ)
{
    sfq::DeviceConfig device;
    device.technology = tech;
    sfq::CellLibrary library(device);
    estimator::NpuEstimator est(library);
    return est.estimate(estimator::NpuConfig::superNpu());
}

/** The tiny two-conv net the serving-path cases stream, so their
 *  wall clock measures the event loop rather than cycle sims. */
dnn::Network
servingNet()
{
    dnn::Network net;
    net.name = "BenchServeNet";
    net.layers = {dnn::conv("c1", 3, 16, 16, 3),
                  dnn::conv("c2", 16, 16, 16, 3)};
    net.check();
    return net;
}

// --- case: micro_kernels --------------------------------------------
// Raw cycle-simulator throughput: fresh NpuSimulator runs over the
// evaluation workloads at their Table II batch (and batch 1 in the
// full suite), no memo cache.
CaseRun
caseMicroKernels(const CaseCtx &ctx)
{
    const estimator::NpuEstimate est = superNpuEstimate();
    const npusim::NpuSimulator sim(est);
    const auto workloads = dnn::evaluationWorkloads();
    const std::vector<int> batches =
        ctx.smoke ? std::vector<int>{0} : std::vector<int>{0, 1};

    CaseRun run;
    std::uint64_t cycles = 0, macs = 0, mappings = 0;
    for (int forced : batches) {
        for (const auto &net : workloads) {
            const int batch =
                forced > 0 ? forced
                           : npusim::maxBatch(est.config, est, net);
            const npusim::SimResult result = sim.run(net, batch);
            cycles += result.totalCycles;
            macs += result.macOps;
            for (const auto &layer : result.layers)
                mappings += layer.weightMappings;
            run.work += 1;
        }
    }
    addMetric(run, "macOps", macs);
    addMetric(run, "totalCycles", cycles);
    addMetric(run, "weightMappings", mappings);
    return run;
}

// --- case: sweep_scaling --------------------------------------------
// Cold-cache design-space sweep on the thread pool; the one case
// whose wall clock responds to --jobs. The ranked output is
// fingerprinted so a nondeterministic sweep fails loudly.
CaseRun
caseSweepScaling(const CaseCtx &ctx)
{
    sfq::DeviceConfig device;
    sfq::CellLibrary library(device);
    std::vector<dnn::Network> workloads;
    if (ctx.smoke) {
        workloads = {dnn::makeAlexNet(), dnn::makeMobileNet()};
    } else {
        workloads = dnn::evaluationWorkloads();
    }
    npusim::DesignSpaceExplorer explorer(library, workloads);

    npusim::ExplorationSpace space;
    if (ctx.smoke) {
        space.widths = {64, 32};
        space.bufferMbForWidth = {46, 50};
        space.divisions = {16, 64};
        space.regsPerPe = {1, 8};
    }

    npusim::SimCache cold;
    explorer.setCache(&cold);
    ThreadPool pool(ctx.jobs);
    const auto ranked = explorer.explore(
        space, npusim::Objective::Throughput, pool);

    CaseRun run;
    run.work = ranked.size();
    std::uint64_t operable = 0;
    Fnv1a print;
    for (const auto &cand : ranked) {
        operable += cand.operable ? 1 : 0;
        print.bytes(cand.config.name.data(), cand.config.name.size());
        print.real(cand.score);
        print.real(cand.avgMacPerSec);
    }
    addMetric(run, "candidates", ranked.size());
    addMetric(run, "operable", operable);
    addMetric(run, "rankHash32", low32(print.value()));
    const auto pool_stats = pool.stats();
    addMetric(run, "poolTasks", pool_stats.tasks);
    return run;
}

// --- case: serving_tail_latency -------------------------------------
// Discrete-event serving near capacity: measures calendar-queue and
// batching throughput (the service model is tiny by construction).
CaseRun
caseServingTailLatency(const CaseCtx &ctx)
{
    const estimator::NpuEstimate est = superNpuEstimate();
    const dnn::Network net = servingNet();
    const int max_batch = npusim::maxBatch(est.config, est, net);
    npusim::SimCache cache;
    const serving::BatchServiceModel service(est, net, &cache);

    serving::ServingConfig config;
    config.arrival.kind = serving::ArrivalKind::OpenPoisson;
    config.batching.policy = serving::BatchPolicy::DynamicTimeout;
    config.batching.maxBatch = max_batch;
    config.batching.timeoutSec = 100e-6;
    config.dispatch = serving::DispatchPolicy::JoinShortestQueue;
    config.chips = ctx.smoke ? 1 : 4;
    config.requests = ctx.smoke ? 8000 : 30000;
    config.arrival.ratePerSec =
        0.7 * service.peakRps(max_batch) * (double)config.chips;

    serving::ServingSimulator sim(service, config);
    const serving::ServingReport report = sim.run();
    obs::enforce(obs::auditServing(report), "bench serving");

    CaseRun run;
    run.work = report.completed;
    addMetric(run, "completed", report.completed);
    addMetric(run, "batchesLaunched", report.batchesLaunched);
    addMetric(run, "events", report.eventsProcessed);
    addMetric(run, "p99Ns",
              (std::uint64_t)(report.latencyP99 * 1e9 + 0.5));
    return run;
}

// --- case: fault_sweep ----------------------------------------------
// Serving under a seeded fault schedule with retry/backoff: the
// resilience machinery's event overhead at a fixed fault sequence.
CaseRun
caseFaultSweep(const CaseCtx &ctx)
{
    const estimator::NpuEstimate est = superNpuEstimate();
    const dnn::Network net = servingNet();
    const int max_batch = npusim::maxBatch(est.config, est, net);
    npusim::SimCache cache;
    const serving::BatchServiceModel service(est, net, &cache);

    const int chips = 4;
    const std::uint64_t requests = ctx.smoke ? 4000 : 20000;
    const double batch_sec = service.batchSeconds(max_batch);
    const double rps =
        0.6 * chips * (double)max_batch / batch_sec;
    const double makespan = (double)requests / rps;

    reliability::FaultScheduleConfig fault_cfg;
    fault_cfg.chips = chips;
    fault_cfg.seed = streamSeed(0xbe9c5eedull, 0); // fixed bench seed
    fault_cfg.horizonSec = makespan;
    fault_cfg.pulseDropRatePerSec = 40.0 / makespan;
    fault_cfg.clockSkewRatePerSec = 8.0 / makespan;
    fault_cfg.linkGlitchRatePerSec = 20.0 / makespan;
    fault_cfg.clockSkewDurationSec = 4.0 * batch_sec;
    fault_cfg.linkGlitchDelaySec = 0.5 * batch_sec;

    serving::ServingConfig config;
    config.arrival.ratePerSec = rps;
    config.chips = chips;
    config.requests = requests;
    config.batching.maxBatch = max_batch;
    config.faults = reliability::FaultSchedule::generate(fault_cfg);
    config.resilience.recovery =
        serving::RecoveryPolicy::RetryBackoff;
    config.resilience.detectLatencySec = 0.25 * batch_sec;
    config.resilience.backoffBaseSec = batch_sec;

    serving::ServingSimulator sim(service, config);
    const serving::ServingReport report = sim.run();
    obs::enforce(obs::auditServing(report), "bench fault_sweep");

    CaseRun run;
    run.work = report.completed;
    addMetric(run, "completed", report.completed);
    addMetric(run, "events", report.eventsProcessed);
    addMetric(run, "faultsInjected", report.faultsInjected);
    addMetric(run, "requestsKilled", report.requestsKilled);
    addMetric(run, "availabilityPpb",
              (std::uint64_t)(report.availability * 1e9 + 0.5));
    return run;
}

// --- case: pipeline_scaling -----------------------------------------
// Partitioner DP plus pipeline composition at K = 1/2/4 with a cold
// sim cache: the multi-chip planning path end to end.
CaseRun
casePipelineScaling(const CaseCtx &ctx)
{
    const estimator::NpuEstimate est = superNpuEstimate();
    const dnn::Network net =
        ctx.smoke ? dnn::makeMobileNet() : dnn::makeResNet50();
    const int batch = npusim::maxBatch(est.config, est, net);

    CaseRun run;
    std::uint64_t makespan = 0, stage_cycles = 0, link_cycles = 0;
    for (int stages : {1, 2, 4}) {
        npusim::SimCache cold;
        partition::PipelineSimulator pipeline(est, {}, &cold);
        const partition::PipelineResult result =
            pipeline.run(net, stages, batch, 8);
        obs::enforce(obs::auditPipeline(result), "bench pipeline");
        makespan += result.makespanCycles;
        stage_cycles += result.totalStageCycles;
        link_cycles += result.totalLinkCycles;
        run.work += 1;
    }
    addMetric(run, "makespanCycles", makespan);
    addMetric(run, "stageCycles", stage_cycles);
    addMetric(run, "linkCycles", link_cycles);
    return run;
}

// --- case: shard_scaling --------------------------------------------
// Hybrid DP×TP×PP factorization search over chip budgets 1/2/4 with
// a cold sim cache: the sharding planner end to end, including the
// tensor-shard re-simulations and collective closed forms.
CaseRun
caseShardScaling(const CaseCtx &ctx)
{
    const estimator::NpuEstimate est = superNpuEstimate();
    const dnn::Network net =
        ctx.smoke ? dnn::makeMobileNet() : dnn::makeResNet50();
    const int batch = npusim::maxBatch(est.config, est, net);

    CaseRun run;
    std::uint64_t interval = 0, collective = 0, gather = 0;
    std::uint64_t evaluated = 0;
    for (int budget : {1, 2, 4}) {
        npusim::SimCache cold;
        sharding::HybridPlanner planner(est, {}, &cold);
        const sharding::PlanSearch search = planner.plan(
            net, budget, batch, sharding::PlanObjective::Throughput);
        obs::enforce(obs::auditSharding(search.best()),
                     "bench shard");
        interval += search.best().intervalCycles;
        collective += search.best().tensorCollectiveCycles;
        gather += search.best().gatherCycles;
        evaluated += search.evaluated.size();
        run.work += 1;
    }
    addMetric(run, "intervalCycles", interval);
    addMetric(run, "collectiveCycles", collective);
    addMetric(run, "gatherCycles", gather);
    addMetric(run, "plansEvaluated", evaluated);
    return run;
}

// --- case: planner_search -------------------------------------------
// The hybrid DP×TP×PP factorization search at one 8-chip budget on a
// cold sim cache, fanned across --jobs pool threads — the case the
// perf job times at jobs 1 and 4 to gate the parallel speedup. Every
// evaluated plan and the layer-timing-cache tallies are pinned as
// metrics; all of them must be identical at any job count.
CaseRun
casePlannerSearch(const CaseCtx &ctx)
{
    const estimator::NpuEstimate est = superNpuEstimate();
    const dnn::Network net =
        ctx.smoke ? dnn::makeMobileNet() : dnn::makeResNet50();
    const int batch = npusim::maxBatch(est.config, est, net);

    npusim::SimCache cold;
    sharding::HybridPlanner planner(est, {}, &cold);
    const sharding::PlanSearch search = planner.plan(
        net, 8, batch, sharding::PlanObjective::Throughput,
        ctx.jobs);
    obs::enforce(obs::auditSharding(search.best()),
                 "bench planner_search");

    CaseRun run;
    run.work = search.evaluated.size();
    Fnv1a print;
    for (const auto &plan : search.evaluated) {
        print.bytes(&plan.dataParallel, sizeof plan.dataParallel);
        print.bytes(&plan.tensorShards, sizeof plan.tensorShards);
        print.bytes(&plan.pipelineStages, sizeof plan.pipelineStages);
        print.bytes(&plan.intervalCycles, sizeof plan.intervalCycles);
        print.bytes(&plan.latencyCycles, sizeof plan.latencyCycles);
        print.real(plan.throughput());
    }
    const partition::LayerTimingCacheStats timings =
        planner.timingCacheStats();
    addMetric(run, "plansEvaluated", search.evaluated.size());
    addMetric(run, "bestIndex", (std::uint64_t)search.bestIndex);
    addMetric(run, "bestIntervalCycles",
              search.best().intervalCycles);
    addMetric(run, "planHash32", low32(print.value()));
    addMetric(run, "timingCacheHits", timings.hits);
    addMetric(run, "timingCacheMisses", timings.misses);
    return run;
}

// --- case: check_fuzz -----------------------------------------------
// The check harness's generate-mode sweep (src/check) over the full
// oracle catalog, fanned across --jobs pool threads. The outcome
// hash is a pure function of (seed, cases, cook) — pinning it
// catches any job-count dependence creeping into the fuzz sweep.
CaseRun
caseCheckFuzz(const CaseCtx &ctx)
{
    sfq::DeviceConfig device;
    const sfq::CellLibrary library(device);

    check::RunnerOptions options;
    options.seed = 9;
    options.cases = ctx.smoke ? 12 : 40;
    options.shrinkFailures = false;
    options.jobs = ctx.jobs;
    const check::CheckSummary summary =
        check::runCases(options, library);

    CaseRun run;
    run.work = summary.ran;
    addMetric(run, "oracleRuns", summary.ran);
    addMetric(run, "skipped", summary.skipped);
    addMetric(run, "failures", summary.failures);
    addMetric(run, "outcomeHash32", low32(summary.outcomeHash));
    return run;
}

const std::vector<BenchCase> &
allCases()
{
    static const std::vector<BenchCase> cases = {
        {"micro_kernels", "sims/sec", caseMicroKernels},
        {"sweep_scaling", "candidates/sec", caseSweepScaling},
        {"serving_tail_latency", "requests/sec",
         caseServingTailLatency},
        {"fault_sweep", "requests/sec", caseFaultSweep},
        {"pipeline_scaling", "plans/sec", casePipelineScaling},
        {"shard_scaling", "plans/sec", caseShardScaling},
        {"planner_search", "plans/sec", casePlannerSearch},
        {"check_fuzz", "runs/sec", caseCheckFuzz},
    };
    return cases;
}

/** Which registered cases the options select, validated. */
std::vector<const BenchCase *>
selectCases(const BenchOptions &options)
{
    if (options.suite != "smoke" && options.suite != "full")
        fatal("unknown bench suite '", options.suite,
              "' (expected smoke or full)");
    std::vector<const BenchCase *> selected;
    for (const auto &candidate : allCases()) {
        if (!options.only.empty() &&
            std::find(options.only.begin(), options.only.end(),
                      candidate.name) == options.only.end())
            continue;
        selected.push_back(&candidate);
    }
    for (const auto &name : options.only) {
        const bool known = std::any_of(
            allCases().begin(), allCases().end(),
            [&](const BenchCase &c) { return name == c.name; });
        if (!known)
            fatal("unknown bench case '", name, "'");
    }
    return selected;
}

double
median(std::vector<double> values)
{
    SUPERNPU_ASSERT(!values.empty(), "median of nothing");
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1
               ? values[n / 2]
               : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

bool
sameMetrics(const std::vector<Metric> &a, const std::vector<Metric> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].name != b[i].name || a[i].value != b[i].value)
            return false;
    }
    return true;
}

} // namespace

std::vector<std::string>
suiteCaseNames(const std::string &suite)
{
    BenchOptions options;
    options.suite = suite;
    std::vector<std::string> names;
    for (const BenchCase *c : selectCases(options))
        names.push_back(c->name);
    return names;
}

BenchReport
runSuite(const BenchOptions &options)
{
    SUPERNPU_ASSERT(options.repetitions >= 1, "need >= 1 repetition");
    SUPERNPU_ASSERT(options.warmups >= 0, "negative warmups");
    SUPERNPU_ASSERT(options.jobs >= 1, "need >= 1 job");
    SUPERNPU_ASSERT(options.injectSlowdownPct >= 0.0,
                    "negative injected slowdown");

    const std::vector<const BenchCase *> cases = selectCases(options);
    CaseCtx ctx;
    ctx.smoke = options.suite == "smoke";
    ctx.jobs = options.jobs;

    BenchReport report;
    report.suite = options.suite;
    report.repetitions = options.repetitions;
    report.warmups = options.warmups;
    report.jobs = options.jobs;

    const bool was_profiling = perf::enabled();
    if (options.profile)
        perf::setEnabled(true);

    for (const BenchCase *bench_case : cases) {
        CaseResult result;
        result.name = bench_case->name;
        result.unit = bench_case->unit;

        for (int i = 0; i < options.warmups; ++i)
            (void)bench_case->fn(ctx);

        // Exclude warmups from the per-case profiler snapshot.
        if (options.profile)
            perf::reset();

        CaseRun first;
        std::uint64_t total_ns = 0;
        for (int rep = 0; rep < options.repetitions; ++rep) {
            const std::uint64_t start = perf::nowNs();
            CaseRun run = bench_case->fn(ctx);
            const std::uint64_t elapsed = perf::nowNs() - start;
            total_ns += elapsed;
            result.wallSec.push_back((double)elapsed * 1e-9);
            if (rep == 0) {
                first = std::move(run);
            } else if (!sameMetrics(first.metrics, run.metrics) ||
                       first.work != run.work) {
                // The whole BENCH determinism contract rests on
                // this: a case must do identical work every rep.
                fatal("bench case '", bench_case->name,
                      "' produced different metrics across"
                      " repetitions — simulator nondeterminism");
            }
        }
        result.work = first.work;
        result.metrics = std::move(first.metrics);
        std::sort(result.metrics.begin(), result.metrics.end(),
                  [](const Metric &a, const Metric &b) {
                      return a.name < b.name;
                  });

        result.medianWallSec = median(result.wallSec);
        const double slow = 1.0 + options.injectSlowdownPct / 100.0;
        result.medianWallSec *= slow;
        for (double &sec : result.wallSec)
            sec *= slow;
        if (result.medianWallSec > 0.0) {
            result.throughput =
                (double)result.work / result.medianWallSec;
        }

        if (options.profile) {
            result.profile = perf::report();
            // Single-threaded cases must satisfy the roll-up
            // invariants, phase time bounded by the measured wall.
            obs::enforce(
                obs::auditPerf(result.profile,
                               options.jobs == 1 ? total_ns : 0),
                std::string("bench perf ") + bench_case->name);
        }

        report.cases.push_back(std::move(result));
    }

    if (options.profile)
        perf::setEnabled(was_profiling);
    return report;
}

std::string
benchJson(const BenchReport &report, bool include_timing)
{
    obs::JsonWriter json;
    json.beginObject();
    json.key("schema").value(kBenchSchema);
    json.key("suite").value(report.suite);
    json.key("jobs").value((std::uint64_t)report.jobs);
    json.key("warmups").value((std::uint64_t)report.warmups);
    json.key("repetitions").value((std::uint64_t)report.repetitions);
    json.key("cases").beginArray();
    for (const CaseResult &c : report.cases) {
        json.beginObject();
        json.key("name").value(c.name);
        json.key("unit").value(c.unit);
        json.key("work").value(c.work);
        json.key("metrics").beginObject();
        for (const Metric &metric : c.metrics)
            json.key(metric.name).value(metric.value);
        json.endObject();
        if (include_timing) {
            json.key("timing").beginObject();
            json.key("medianWallSec").value(c.medianWallSec);
            json.key("throughput").value(c.throughput);
            json.key("wallSec").beginArray();
            for (double sec : c.wallSec)
                json.value(sec);
            json.endArray();
            json.endObject();
            if (!c.profile.empty()) {
                json.key("profile").beginObject();
                json.key("counters").beginObject();
                for (const auto &counter : c.profile.counters)
                    json.key(counter.name).value(counter.value);
                json.endObject();
                json.key("phases").beginArray();
                for (const auto &phase : c.profile.phases) {
                    json.beginObject();
                    json.key("path").value(phase.path);
                    json.key("count").value(phase.count);
                    json.key("ns").value(phase.ns);
                    json.endObject();
                }
                json.endArray();
                json.endObject();
            }
        }
        json.endObject();
    }
    json.endArray();
    json.endObject();
    return json.str() + "\n";
}

bool
writeBenchJson(const BenchReport &report, bool include_timing,
               const std::string &path)
{
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    if (!file)
        return false;
    file << benchJson(report, include_timing);
    return file.good();
}

std::string
defaultOutputPath(const std::string &suite)
{
    return "BENCH_" + suite + ".json";
}

CompareOutcome
compareToBaseline(const BenchReport &current,
                  const std::string &baseline_json,
                  double threshold_pct)
{
    CompareOutcome outcome;

    std::string parse_error;
    const auto baseline = obs::parseJson(baseline_json, &parse_error);
    if (!baseline) {
        outcome.ok = false;
        outcome.error = "baseline unreadable: " + parse_error;
        return outcome;
    }
    const std::string schema = baseline->stringAt("schema");
    if (schema != kBenchSchema) {
        outcome.ok = false;
        outcome.error = "baseline schema '" + schema +
                        "' does not match '" + kBenchSchema + "'";
        return outcome;
    }
    const obs::JsonValue *base_cases = baseline->find("cases");
    if (base_cases == nullptr || !base_cases->isArray()) {
        outcome.ok = false;
        outcome.error = "baseline has no cases array";
        return outcome;
    }

    for (const CaseResult &c : current.cases) {
        CaseDelta delta;
        delta.name = c.name;
        delta.currentThroughput = c.throughput;

        const obs::JsonValue *base_case = nullptr;
        for (const obs::JsonValue &candidate : base_cases->array) {
            if (candidate.stringAt("name") == c.name) {
                base_case = &candidate;
                break;
            }
        }
        if (base_case == nullptr) {
            delta.note = "new case (not in baseline)";
            outcome.deltas.push_back(delta);
            continue;
        }

        const obs::JsonValue *timing = base_case->find("timing");
        if (timing != nullptr &&
            timing->numberAt("throughput") > 0.0 &&
            c.throughput > 0.0) {
            // Timed baseline: gate on wall-clock throughput.
            delta.comparable = true;
            delta.baselineThroughput = timing->numberAt("throughput");
            delta.slowdownPct =
                (delta.baselineThroughput / c.throughput - 1.0) *
                100.0;
            if (delta.slowdownPct > threshold_pct) {
                delta.regressed = true;
                outcome.ok = false;
            }
            outcome.deltas.push_back(delta);
            continue;
        }

        // Untimed baseline (the committed --no-timing form): gate on
        // exact equality of the deterministic work metrics.
        const obs::JsonValue *base_metrics =
            base_case->find("metrics");
        if (base_metrics == nullptr || !base_metrics->isObject()) {
            delta.note = "baseline case has neither timing nor"
                         " metrics";
            outcome.deltas.push_back(delta);
            continue;
        }
        delta.comparable = true;
        for (const Metric &metric : c.metrics) {
            const obs::JsonValue *base_value =
                base_metrics->find(metric.name);
            if (base_value == nullptr || !base_value->isNumber() ||
                base_value->number != (double)metric.value) {
                delta.regressed = true;
                outcome.ok = false;
                delta.note += delta.note.empty() ? "" : "; ";
                delta.note += "metric " + metric.name + " drifted";
            }
        }
        if ((double)c.work !=
            base_case->numberAt("work", (double)c.work)) {
            delta.regressed = true;
            outcome.ok = false;
            delta.note += delta.note.empty() ? "" : "; ";
            delta.note += "work drifted";
        }
        if (!delta.regressed)
            delta.note = "metrics identical (untimed baseline)";
        outcome.deltas.push_back(delta);
    }
    return outcome;
}

} // namespace bench
} // namespace supernpu
