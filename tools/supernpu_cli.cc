/**
 * @file
 * supernpu — command-line front end over the library.
 *
 *   supernpu workloads
 *       List the built-in CNN workloads.
 *   supernpu estimate <config> [options]
 *       Frequency / power / area of an architecture.
 *   supernpu simulate <workload> <config> [options]
 *       Cycle-level performance + power of a workload.
 *   supernpu batch <workload> <config> [options]
 *       The Table II maximum on-chip batch.
 *   supernpu serve <workload> <config> [options]
 *       Discrete-event serving simulation: request load, dynamic
 *       batching, multi-chip dispatch, tail latency.
 *   supernpu faults <workload> <config> [options]
 *       Fault-injection study: degraded-geometry cycle costs,
 *       functional error propagation, and a serving run under a
 *       seeded SFQ fault schedule with a recovery policy.
 *   supernpu report <workload> <config> [options]
 *       Audited run ledger as JSON on stdout: the cycle-level run's
 *       counters with conservation invariants enforced (exit 1 on
 *       any violation).
 *   supernpu partition <workload> <config> [options]
 *       Multi-chip pipeline partition: balanced stage table, link
 *       transfer costs, steady-state throughput, optional K-sweep.
 *   supernpu shard <workload> <config> [options]
 *       Hybrid DP×TP×PP parallelism: evaluate a fixed
 *       --dp/--tp/--stages factorization, or search every
 *       factorization of a --chips budget; --sweep adds a
 *       budget-scaling table.
 *   supernpu check [options]
 *       Differential & metamorphic fuzz harness (src/check): seeded
 *       random scenarios cross-checked by the oracle catalog, with
 *       failing cases shrunk to minimal JSON repros; --replay runs
 *       one committed repro, --cook tamper self-tests the oracles.
 *   supernpu validate
 *       The Fig. 13 model-validation table.
 *   supernpu explore [options]
 *       Parallel design-space sweep (--jobs N workers, default all
 *       hardware threads; any N prints the identical leaderboard).
 *   supernpu bench [smoke|full] [options]
 *       Unified performance harness (src/perf/bench_runner.hh): the
 *       curated suite with warmup + repetition + median-of-N timing,
 *       written as BENCH_<suite>.json, optionally gated against a
 *       saved baseline.
 *
 * Every subcommand accepts --help (usage on stdout, exit 0) and
 * rejects unknown options and stray positional arguments with a
 * usage line on stderr.
 *
 * Configs: baseline | bufferopt | resourceopt | supernpu, or start
 * from one and override with options:
 *   --tech rsfq|ersfq       bias technology (default rsfq)
 *   --feature <um>          process feature size (default 1.0)
 *   --width <n>             PE array width
 *   --height <n>            PE array height
 *   --regs <n>              weight registers per PE
 *   --division <n>          output-buffer division degree
 *   --ifmap-mb <n>          ifmap buffer capacity
 *   --output-mb <n>         output buffer capacity
 *   --bandwidth-gbps <n>    DRAM bandwidth
 *   --batch <n>             force a batch size (simulate, serve)
 *   --jobs <n>              worker threads (explore, shard, check,
 *                           bench); results are identical at any N
 *
 * Serving options (serve):
 *   --rps <n>               offered load, requests/s (default 1000)
 *   --chips <n>             NPU dies behind the dispatcher
 *   --policy dynamic|fixed  batching policy
 *   --dispatch rr|jsq       request placement across chips
 *   --arrival poisson|bursty|closed   traffic shape
 *   --timeout-us <n>        dynamic-batching timeout
 *   --requests <n>          requests to simulate
 *   --clients <n>           closed-loop client population
 *   --seed <n>              RNG seed
 *
 * Fault options (faults):
 *   --drop-rate <n>         pulse drops per chip-second
 *   --trap-rate <n>         flux traps per chip-second
 *   --skew-rate <n>         clock-skew windows per chip-second
 *   --glitch-rate <n>       link glitches per chip-second
 *   --fault-burst           bursty (on/off) transient arrivals
 *   --fault-seed <n>        fault-schedule seed
 *   --recovery none|retry|degraded   recovery policy
 *   --detect-us <n>         fault detection latency
 *   --max-retries <n>       retry budget per request
 *   --backoff-us <n>        first retry backoff
 *   --checkpoint            checkpoint/restart killed batches
 *   --ber <n>               bit flips per million MACs (error study)
 *
 * Partition options (partition; --stages also pipelines serve and
 * faults):
 *   --stages <k>            chips in the pipeline group
 *   --sweep                 also print a K-sweep table
 *   --stream <n>            batches streamed through the pipeline
 *   --link-gbps <n>         inter-chip link bandwidth (default 300)
 *   --link-latency <n>      fixed link latency in cycles
 *
 * Shard options (shard; --dp also replicates serve and faults):
 *   --dp <r>                data-parallel replicas
 *   --tp <t>                tensor-parallel shards per replica
 *   --stages <k>            pipeline stages per shard
 *   --chips <n>             planner chip budget (default 8)
 *   --objective throughput|latency   planner ranking
 *   --sweep                 also print a budget-scaling table
 *
 * Bench options (bench; --jobs defaults to 1 here, the byte-stable
 * reference point):
 *   --reps <n>              timed repetitions per case (default 3)
 *   --warmups <n>           untimed warmup runs per case (default 1)
 *   --case <name>           run only this case (repeatable)
 *   --out <path>            output path (default BENCH_<suite>.json)
 *   --no-timing             omit wall-clock fields: the output is a
 *                           pure function of (code, suite, jobs) and
 *                           byte-identical across reruns
 *   --baseline <path>       compare against a saved BENCH_*.json;
 *                           exit 1 on regression
 *   --threshold <pct>       allowed slowdown vs a timed baseline
 *                           (default 10)
 *   --inject-slowdown <pct> test hook: report throughput as if this
 *                           much slower (proves the gate fails)
 *
 * --profile (any subcommand) turns the src/perf profiler on: bench
 * embeds per-case phase/counter snapshots, and every --ledger file
 * gains a "perf" section and "perfPhases" table (wall-clock — strip
 * them before byte-comparing ledgers).
 */

#include <cctype>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <fstream>
#include <sstream>

#include "check/runner.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/table.hh"
#include "common/units.hh"
#include "dnn/networks.hh"
#include "dnn/parser.hh"
#include "estimator/design_rules.hh"
#include "estimator/npu_estimator.hh"
#include "estimator/validation.hh"
#include "npusim/batch.hh"
#include "npusim/explorer.hh"
#include "npusim/sim.hh"
#include "obs/audit.hh"
#include "obs/ledger.hh"
#include "partition/pipeline_sim.hh"
#include "perf/bench_runner.hh"
#include "perf/profile.hh"
#include "power/power.hh"
#include "reliability/error_propagation.hh"
#include "reliability/fault_model.hh"
#include "reliability/injector.hh"
#include "serving/simulator.hh"
#include "sharding/planner.hh"

using namespace supernpu;

namespace {

/** Parsed command-line state. */
struct Options
{
    sfq::Technology technology = sfq::Technology::RSFQ;
    double featureUm = 1.0;
    int forcedBatch = 0;
    int jobs = 0; ///< explore parallelism; 0 = hardware concurrency
    estimator::NpuConfig config = estimator::NpuConfig::superNpu();
    bool configChosen = false;
    std::string netFile;   ///< --netfile path, when given
    std::string traceFile; ///< --trace path for the mapping CSV
    std::string ledgerFile; ///< --ledger path (.json or .csv)
    bool jsonOut = false;  ///< --json: machine output on stdout
    serving::ServingConfig serve; ///< serve/faults-subcommand state
    reliability::FaultScheduleConfig faults; ///< fault rates + seed
    bool faultRateGiven = false; ///< any --*-rate flag seen
    double berFlipsPerMillion = 25.0; ///< --ber error-study rate
    int stages = 0;        ///< --stages pipeline chips; 0 = unset
    bool sweep = false;    ///< --sweep: partition K-sweep table
    int streamBatches = 0; ///< --stream batches; 0 = default
    partition::LinkConfig link; ///< --link-gbps / --link-latency
    int dataParallel = 0;  ///< --dp replica count; 0 = unset
    int tensorShards = 0;  ///< --tp shard count; 0 = unset
    int chipBudget = 0;    ///< --chips for shard planning; 0 = unset
    /** --objective for shard planning. */
    sharding::PlanObjective objective =
        sharding::PlanObjective::Throughput;

    // --- check-subcommand state (src/check) -------------------------
    std::uint64_t checkCases = 100; ///< --cases generated scenarios
    std::string checkReplay;    ///< --replay repro path
    bool checkNoShrink = false; ///< --no-shrink raw repros
    std::string checkReproDir = "."; ///< --repro-dir failure output
    check::Cook checkCook = check::Cook::None; ///< --cook
    std::string checkOracle;    ///< --oracle restriction
    std::string checkEmitCorpus; ///< --emit-corpus directory

    bool profile = false;  ///< --profile: src/perf instrumentation on
    int benchReps = 3;     ///< --reps timed repetitions
    int benchWarmups = 1;  ///< --warmups untimed runs
    bool benchNoTiming = false;   ///< --no-timing deterministic form
    std::string benchOut;         ///< --out path; "" = default name
    std::string benchBaseline;    ///< --baseline comparison file
    double benchThreshold = 10.0; ///< --threshold allowed slowdown %
    double benchInjectSlowdown = 0.0; ///< --inject-slowdown test hook
    std::vector<std::string> benchOnly; ///< --case selections
};

std::string
lowered(const std::string &text)
{
    std::string out;
    for (char c : text)
        out += (char)std::tolower((unsigned char)c);
    return out;
}

dnn::Network
findWorkload(const std::string &name)
{
    const std::string want = lowered(name);
    for (const auto &net : dnn::evaluationWorkloads()) {
        if (lowered(net.name) == want)
            return net;
    }
    if (want == "resnet18")
        return dnn::makeResNet18();
    if (want == "vgg19")
        return dnn::makeVgg19();
    fatal("unknown workload '", name, "'; run 'supernpu workloads'");
}

bool
tryConfig(const std::string &name, estimator::NpuConfig &out)
{
    const std::string want = lowered(name);
    if (want == "baseline") {
        out = estimator::NpuConfig::baseline();
    } else if (want == "bufferopt") {
        out = estimator::NpuConfig::bufferOpt();
    } else if (want == "resourceopt") {
        out = estimator::NpuConfig::resourceOpt();
    } else if (want == "supernpu") {
        out = estimator::NpuConfig::superNpu();
    } else {
        return false;
    }
    return true;
}

/** Consume "--flag value" pairs; returns leftover positionals. */
std::vector<std::string>
parseOptions(int argc, char **argv, int first, Options &options)
{
    std::vector<std::string> positional;
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("option '", arg, "' needs a value");
            return argv[++i];
        };
        if (arg == "--tech") {
            const std::string value = lowered(next());
            if (value == "rsfq") {
                options.technology = sfq::Technology::RSFQ;
            } else if (value == "ersfq") {
                options.technology = sfq::Technology::ERSFQ;
            } else {
                fatal("unknown technology '", value, "'");
            }
        } else if (arg == "--feature") {
            options.featureUm = std::stod(next());
        } else if (arg == "--width") {
            options.config.peWidth = std::stoi(next());
        } else if (arg == "--height") {
            options.config.peHeight = std::stoi(next());
        } else if (arg == "--regs") {
            options.config.regsPerPe = std::stoi(next());
        } else if (arg == "--division") {
            options.config.outputDivision = std::stoi(next());
        } else if (arg == "--ifmap-mb") {
            options.config.ifmapBufferBytes =
                (std::uint64_t)std::stoul(next()) * units::MiB;
        } else if (arg == "--output-mb") {
            options.config.integratedOutputBuffer = true;
            options.config.outputBufferBytes =
                (std::uint64_t)std::stoul(next()) * units::MiB;
            options.config.psumBufferBytes = 0;
            options.config.ofmapBufferBytes = 0;
        } else if (arg == "--bandwidth-gbps") {
            options.config.memoryBandwidth = std::stod(next()) * 1e9;
        } else if (arg == "--batch") {
            options.forcedBatch = std::stoi(next());
        } else if (arg == "--jobs") {
            options.jobs = std::stoi(next());
        } else if (arg == "--netfile") {
            options.netFile = next();
        } else if (arg == "--trace") {
            options.traceFile = next();
        } else if (arg == "--ledger") {
            options.ledgerFile = next();
        } else if (arg == "--json") {
            options.jsonOut = true;
        } else if (arg == "--rps") {
            options.serve.arrival.ratePerSec = std::stod(next());
        } else if (arg == "--chips") {
            options.serve.chips = std::stoi(next());
            options.chipBudget = options.serve.chips;
        } else if (arg == "--policy") {
            const std::string value = lowered(next());
            if (value == "dynamic") {
                options.serve.batching.policy =
                    serving::BatchPolicy::DynamicTimeout;
            } else if (value == "fixed") {
                options.serve.batching.policy =
                    serving::BatchPolicy::FixedBatch;
            } else {
                fatal("unknown batching policy '", value, "'");
            }
        } else if (arg == "--dispatch") {
            const std::string value = lowered(next());
            if (value == "rr") {
                options.serve.dispatch =
                    serving::DispatchPolicy::RoundRobin;
            } else if (value == "jsq") {
                options.serve.dispatch =
                    serving::DispatchPolicy::JoinShortestQueue;
            } else {
                fatal("unknown dispatch policy '", value, "'");
            }
        } else if (arg == "--arrival") {
            const std::string value = lowered(next());
            if (value == "poisson") {
                options.serve.arrival.kind =
                    serving::ArrivalKind::OpenPoisson;
            } else if (value == "bursty") {
                options.serve.arrival.kind =
                    serving::ArrivalKind::Bursty;
            } else if (value == "closed") {
                options.serve.arrival.kind =
                    serving::ArrivalKind::ClosedLoop;
            } else {
                fatal("unknown arrival kind '", value, "'");
            }
        } else if (arg == "--timeout-us") {
            options.serve.batching.timeoutSec =
                std::stod(next()) * 1e-6;
        } else if (arg == "--requests") {
            options.serve.requests =
                (std::uint64_t)std::stoull(next());
        } else if (arg == "--clients") {
            options.serve.arrival.clients = std::stoi(next());
        } else if (arg == "--seed") {
            options.serve.seed = (std::uint64_t)std::stoull(next());
        } else if (arg == "--drop-rate") {
            options.faults.pulseDropRatePerSec = std::stod(next());
            options.faultRateGiven = true;
        } else if (arg == "--trap-rate") {
            options.faults.fluxTrapRatePerSec = std::stod(next());
            options.faultRateGiven = true;
        } else if (arg == "--skew-rate") {
            options.faults.clockSkewRatePerSec = std::stod(next());
            options.faultRateGiven = true;
        } else if (arg == "--glitch-rate") {
            options.faults.linkGlitchRatePerSec = std::stod(next());
            options.faultRateGiven = true;
        } else if (arg == "--fault-burst") {
            options.faults.arrival = reliability::FaultArrival::Burst;
        } else if (arg == "--fault-seed") {
            options.faults.seed = (std::uint64_t)std::stoull(next());
        } else if (arg == "--recovery") {
            const std::string value = lowered(next());
            if (value == "none") {
                options.serve.resilience.recovery =
                    serving::RecoveryPolicy::None;
            } else if (value == "retry") {
                options.serve.resilience.recovery =
                    serving::RecoveryPolicy::RetryBackoff;
            } else if (value == "degraded") {
                options.serve.resilience.recovery =
                    serving::RecoveryPolicy::DegradedDispatch;
            } else {
                fatal("unknown recovery policy '", value, "'");
            }
        } else if (arg == "--detect-us") {
            options.serve.resilience.detectLatencySec =
                std::stod(next()) * 1e-6;
        } else if (arg == "--max-retries") {
            options.serve.resilience.maxRetries = std::stoi(next());
        } else if (arg == "--backoff-us") {
            options.serve.resilience.backoffBaseSec =
                std::stod(next()) * 1e-6;
        } else if (arg == "--checkpoint") {
            options.serve.resilience.checkpointRestart = true;
        } else if (arg == "--ber") {
            options.berFlipsPerMillion = std::stod(next());
        } else if (arg == "--stages") {
            options.stages = std::stoi(next());
        } else if (arg == "--dp") {
            options.dataParallel = std::stoi(next());
        } else if (arg == "--tp") {
            options.tensorShards = std::stoi(next());
        } else if (arg == "--objective") {
            const std::string value = lowered(next());
            if (value == "throughput") {
                options.objective =
                    sharding::PlanObjective::Throughput;
            } else if (value == "latency") {
                options.objective = sharding::PlanObjective::Latency;
            } else {
                fatal("unknown plan objective '", value, "'");
            }
        } else if (arg == "--sweep") {
            options.sweep = true;
        } else if (arg == "--stream") {
            options.streamBatches = std::stoi(next());
        } else if (arg == "--link-gbps") {
            options.link.bandwidthGBps = std::stod(next());
        } else if (arg == "--link-latency") {
            options.link.latencyCycles =
                (std::uint64_t)std::stoull(next());
        } else if (arg == "--cases") {
            options.checkCases = (std::uint64_t)std::stoull(next());
        } else if (arg == "--replay") {
            options.checkReplay = next();
        } else if (arg == "--no-shrink") {
            options.checkNoShrink = true;
        } else if (arg == "--repro-dir") {
            options.checkReproDir = next();
        } else if (arg == "--cook") {
            const std::string value = lowered(next());
            if (value == "none") {
                options.checkCook = check::Cook::None;
            } else if (value == "tamper") {
                options.checkCook = check::Cook::Tamper;
            } else {
                fatal("unknown cook '", value, "'");
            }
        } else if (arg == "--oracle") {
            options.checkOracle = next();
        } else if (arg == "--emit-corpus") {
            options.checkEmitCorpus = next();
        } else if (arg == "--profile") {
            options.profile = true;
        } else if (arg == "--reps") {
            options.benchReps = std::stoi(next());
        } else if (arg == "--warmups") {
            options.benchWarmups = std::stoi(next());
        } else if (arg == "--no-timing") {
            options.benchNoTiming = true;
        } else if (arg == "--out") {
            options.benchOut = next();
        } else if (arg == "--baseline") {
            options.benchBaseline = next();
        } else if (arg == "--threshold") {
            options.benchThreshold = std::stod(next());
        } else if (arg == "--inject-slowdown") {
            options.benchInjectSlowdown = std::stod(next());
        } else if (arg == "--case") {
            options.benchOnly.push_back(next());
        } else if (arg.rfind("--", 0) == 0) {
            std::fprintf(stderr, "usage: supernpu <command>"
                         " [options]; run 'supernpu --help'\n");
            fatal("unknown option '", arg, "'");
        } else if (!options.configChosen &&
                   tryConfig(arg, options.config)) {
            options.configChosen = true;
        } else {
            positional.push_back(arg);
        }
    }
    return positional;
}

sfq::DeviceConfig
deviceFor(const Options &options)
{
    sfq::DeviceConfig device;
    device.technology = options.technology;
    device.featureSizeUm = options.featureUm;
    return device;
}

/** Write the run ledger when --ledger was given; fatal on failure. */
void
emitLedger(const Options &options, const obs::RunLedger &ledger)
{
    if (options.ledgerFile.empty())
        return;
    if (perf::enabled()) {
        // Profiling on (--profile or SUPERNPU_PROFILE=1): fold the
        // profiler snapshot in (and check its roll-up invariants)
        // without disturbing the caller's ledger — the perf section
        // is wall-clock and must stay opt-in so default ledgers
        // remain byte-comparable.
        const perf::Report snapshot = perf::report();
        obs::enforce(obs::auditPerf(snapshot), "perf roll-up");
        obs::RunLedger with_perf = ledger;
        obs::addPerfReport(with_perf, snapshot);
        if (!with_perf.write(options.ledgerFile))
            fatal("cannot write ledger '", options.ledgerFile, "'");
    } else if (!ledger.write(options.ledgerFile)) {
        fatal("cannot write ledger '", options.ledgerFile, "'");
    }
    std::printf("wrote ledger to %s\n", options.ledgerFile.c_str());
}

/** Enforce an audit when SUPERNPU_AUDIT (env or build) enables it. */
void
maybeAudit(const obs::AuditReport &audit, const std::string &context)
{
    if (obs::auditEnabled())
        obs::enforce(audit, context);
}

int
cmdWorkloads()
{
    TextTable table("built-in workloads");
    table.row().cell("name").cell("layers").cell("GMAC/inf").cell(
        "weights (MiB)");
    auto add = [&](const dnn::Network &net) {
        table.row()
            .cell(lowered(net.name))
            .cell((long long)net.layers.size())
            .cell((double)net.totalMacs() / 1e9, 2)
            .cell((double)net.totalWeightBytes() / (double)units::MiB,
                  1);
    };
    for (const auto &net : dnn::evaluationWorkloads())
        add(net);
    add(dnn::makeResNet18());
    add(dnn::makeVgg19());
    table.print();
    return 0;
}

int
cmdEstimate(const Options &options)
{
    const sfq::DeviceConfig device = deviceFor(options);
    sfq::CellLibrary library(device);
    estimator::NpuEstimator est(library);
    const auto estimate = est.estimate(options.config);

    std::printf("%s @ %s %.2f um\n", options.config.name.c_str(),
                sfq::technologyName(device.technology),
                device.featureSizeUm);
    TextTable table;
    table.row().cell("unit").cell("freq (GHz)").cell("static (W)").cell(
        "area (mm2)").cell("MJJ");
    for (const auto &unit : estimate.units) {
        table.row()
            .cell(unit.name)
            .cell(unit.frequencyGhz, 1)
            .cell(unit.staticPowerW, 2)
            .cell(unit.areaMm2, 1)
            .cell((double)unit.jjCount / 1e6, 1);
    }
    table.row()
        .cell("TOTAL")
        .cell(estimate.frequencyGhz, 1)
        .cell(estimate.staticPowerW, 2)
        .cell(estimate.areaMm2, 1)
        .cell((double)estimate.jjCount / 1e6, 1);
    table.print();
    std::printf("\nlimited by %s; peak %.0f TMAC/s; %.0f mm2 at 28 nm"
                " equivalent\n",
                estimate.limitingUnit.c_str(),
                estimate.peakMacPerSec / 1e12,
                estimate.areaMm2At(28.0));

    const auto findings =
        estimator::checkDesignRules(options.config, estimate);
    for (const auto &finding : findings) {
        std::printf("%s [%s]: %s\n",
                    finding.severity ==
                            estimator::RuleSeverity::Error
                        ? "ERROR"
                        : "warning",
                    finding.rule.c_str(), finding.message.c_str());
    }
    return estimator::designIsOperable(findings) ? 0 : 1;
}

int
cmdSimulate(const Options &options, const dnn::Network &net)
{
    const sfq::DeviceConfig device = deviceFor(options);
    sfq::CellLibrary library(device);
    estimator::NpuEstimator est(library);
    const auto estimate = est.estimate(options.config);
    npusim::NpuSimulator sim(estimate);
    npusim::TraceRecorder trace;
    if (!options.traceFile.empty())
        sim.setTrace(&trace);
    const int batch =
        options.forcedBatch > 0
            ? options.forcedBatch
            : npusim::maxBatch(options.config, estimate, net);
    const auto run = sim.run(net, batch);
    const auto report = power::analyze(estimate, run);

    if (!options.traceFile.empty()) {
        std::ofstream out(options.traceFile);
        if (!out)
            fatal("cannot write '", options.traceFile, "'");
        out << trace.csv();
        std::printf("wrote %zu mapping events to %s\n",
                    trace.events().size(), options.traceFile.c_str());
    }

    std::printf("%s on %s (%s), batch %d\n", net.name.c_str(),
                options.config.name.c_str(),
                sfq::technologyName(device.technology), batch);
    std::printf("  %.1f GHz, %llu cycles, %.2f us/batch\n",
                run.frequencyGhz,
                (unsigned long long)run.totalCycles,
                run.seconds() * 1e6);
    std::printf("  %.1f TMAC/s effective (%.1f%% of peak),"
                " %.1f%% preparation\n",
                run.effectiveMacPerSec() / 1e12,
                100.0 * run.effectiveMacPerSec() /
                    estimate.peakMacPerSec,
                100.0 * run.preparationFraction());
    std::printf("  power: %.2f W chip (%.2f static + %.2f dynamic),"
                " %.0f W with 400x cooling\n",
                report.chipW(), report.staticW, report.dynamicW,
                report.totalWithCoolingW());
    std::printf("  DRAM traffic: %.1f MiB\n",
                (double)run.dramBytes / (double)units::MiB);

    maybeAudit(obs::auditSim(run), net.name);
    if (!options.ledgerFile.empty()) {
        obs::RunLedger ledger;
        obs::addSimResult(ledger, run);
        emitLedger(options, ledger);
    }
    return 0;
}

int
cmdReport(const Options &options, const dnn::Network &net)
{
    const sfq::DeviceConfig device = deviceFor(options);
    sfq::CellLibrary library(device);
    estimator::NpuEstimator est(library);
    const auto estimate = est.estimate(options.config);
    npusim::NpuSimulator sim(estimate);
    const int batch =
        options.forcedBatch > 0
            ? options.forcedBatch
            : npusim::maxBatch(options.config, estimate, net);
    const auto run = sim.run(net, batch);

    // `report` is the audited machine interface: invariants always
    // run here, regardless of the SUPERNPU_AUDIT toggle, and any
    // violation is a non-zero exit.
    obs::enforce(obs::auditSim(run), "report " + net.name);

    obs::RunLedger ledger;
    obs::addSimResult(ledger, run);
    obs::addSimCacheStats(ledger, npusim::SimCache::global().stats());
    if (!options.ledgerFile.empty()) {
        if (!ledger.write(options.ledgerFile))
            fatal("cannot write ledger '", options.ledgerFile, "'");
    }
    // JSON is the default (and only) stdout format; --json accepted
    // for symmetry with scripts that pass it explicitly.
    (void)options.jsonOut;
    std::fputs(ledger.json().c_str(), stdout);
    return 0;
}

int
cmdBatch(const Options &options, const dnn::Network &net)
{
    const sfq::DeviceConfig device = deviceFor(options);
    sfq::CellLibrary library(device);
    estimator::NpuEstimator est(library);
    const auto estimate = est.estimate(options.config);
    std::printf("%s on %s: max on-chip batch %d\n", net.name.c_str(),
                options.config.name.c_str(),
                npusim::maxBatch(options.config, estimate, net));
    return 0;
}

/**
 * The serving config of `serve` and `faults`: the parsed serving
 * flags, the batch cap (forced or the solver's), and the placement
 * (--stages, --dp, link).
 */
serving::ServingConfig
servingConfigFor(const Options &options,
                 const estimator::NpuEstimate &estimate,
                 const dnn::Network &net)
{
    serving::ServingConfig serve = options.serve;
    serve.batching.maxBatch =
        options.forcedBatch > 0
            ? options.forcedBatch
            : npusim::maxBatch(options.config, estimate, net);
    if (options.stages > 0)
        serve.pipelineStages = options.stages;
    if (options.dataParallel > 0)
        serve.dataParallelReplicas = options.dataParallel;
    serve.link = options.link;
    return serve;
}

/**
 * Reject the documented-unsupported combination up front, before
 * any model building: there is no per-stage checkpoint model, so
 * checkpoint-restart cannot pipeline. Returns the exit status, or 0
 * to go on.
 */
int
rejectPipelinedCheckpoint(const Options &options, const char *command)
{
    if (options.stages > 1 &&
        options.serve.resilience.checkpointRestart) {
        std::fprintf(stderr, "usage: supernpu %s: --checkpoint is"
                     " unsupported with --stages > 1 (no per-stage"
                     " checkpoint model)\n", command);
        return 2;
    }
    return 0;
}

int
cmdServe(const Options &options, const dnn::Network &net)
{
    if (const int status = rejectPipelinedCheckpoint(options, "serve"))
        return status;
    const sfq::DeviceConfig device = deviceFor(options);
    sfq::CellLibrary library(device);
    estimator::NpuEstimator est(library);
    const auto estimate = est.estimate(options.config);

    const serving::ServingConfig serve =
        servingConfigFor(options, estimate, net);

    serving::BatchServiceModel service(estimate, net);
    serving::ServingSimulator sim(service, serve);
    const auto report = sim.run();
    report.print();
    std::printf("\nchip capacity at full batch: %.0f req/s x %d chips"
                " = %.0f req/s; served %.0f req/s at p99 %.4f ms\n",
                service.peakRps(serve.batching.maxBatch), serve.chips,
                service.peakRps(serve.batching.maxBatch) *
                    (double)serve.chips,
                report.throughputRps, report.latencyP99 * 1e3);

    maybeAudit(obs::auditServing(report), "serve " + net.name);
    if (!options.ledgerFile.empty()) {
        obs::RunLedger ledger;
        obs::addServingReport(ledger, report);
        emitLedger(options, ledger);
    }
    return 0;
}

int
cmdFaults(const Options &options, const dnn::Network &net)
{
    if (const int status = rejectPipelinedCheckpoint(options, "faults"))
        return status;
    const sfq::DeviceConfig device = deviceFor(options);
    sfq::CellLibrary library(device);
    estimator::NpuEstimator est(library);
    const auto estimate = est.estimate(options.config);

    serving::ServingConfig serve =
        servingConfigFor(options, estimate, net);
    const int batch = serve.batching.maxBatch;

    // --- what one flux trap costs in cycles -------------------------
    reliability::FaultInjector injector(estimate);
    const auto one_trap = [&](reliability::FluxTrapTarget target) {
        reliability::FaultScheduleConfig cfg;
        reliability::FaultEvent event;
        event.kind = reliability::FaultKind::FluxTrap;
        event.trapTarget = target;
        event.magnitude = cfg.fluxTrapDerate;
        return reliability::FaultSchedule::fromEvents(cfg, {event});
    };
    const auto clean = injector.run(net, batch, {}, 0);
    const auto lost_col =
        injector.run(net, batch,
                     one_trap(reliability::FluxTrapTarget::PeColumn), 0);
    const auto lost_chunk = injector.run(
        net, batch, one_trap(reliability::FluxTrapTarget::BufferChunk),
        0);

    std::printf("%s on %s, batch %d: flux-trap degradation\n",
                net.name.c_str(), options.config.name.c_str(), batch);
    TextTable degraded;
    degraded.row().cell("geometry").cell("cycles").cell("us/batch").cell(
        "service x");
    const auto degraded_row = [&](const char *label, const auto &run) {
        degraded.row()
            .cell(label)
            .cell((unsigned long long)run->totalCycles)
            .cell(run->seconds() * 1e6, 2)
            .cell(run->seconds() / clean->seconds(), 3);
    };
    degraded_row("pristine", clean);
    degraded_row("-1 PE column", lost_col);
    degraded_row("-1 buffer chunk", lost_chunk);
    degraded.print();

    // The serving trap derate comes from the remapped cycle counts,
    // not a guessed constant.
    const double trap_derate = injector.serviceDerate(
        net, batch, one_trap(reliability::FluxTrapTarget::PeColumn), 0);

    // --- functional error propagation -------------------------------
    // The functional path walks sequential chains only; branching
    // networks (residual projections) study bit-error propagation on
    // a small sequential probe instead.
    dnn::Network ber_net = net;
    if (!reliability::canPropagate(ber_net)) {
        ber_net = dnn::Network{};
        ber_net.name = "BerProbe";
        ber_net.layers = {dnn::conv("probe1", 3, 32, 16, 3),
                          dnn::conv("probe2", 16, 32, 32, 3),
                          dnn::conv("probe3", 32, 16, 32, 3)};
        ber_net.check();
        std::printf("\n%s branches; propagating bit errors through"
                    " the sequential probe network instead\n",
                    net.name.c_str());
    }
    const auto errors = reliability::propagateErrors(
        ber_net, options.berFlipsPerMillion, options.faults.seed);
    std::printf("\nerror propagation at %.2f flips per MMAC"
                " (%llu flips total)\n",
                options.berFlipsPerMillion,
                (unsigned long long)errors.totalFlips());
    TextTable prop;
    prop.row().cell("layer").cell("flips").cell("wrong %").cell(
        "mean |err|").cell("max |err|");
    for (const auto &layer : errors.layers) {
        prop.row()
            .cell(layer.layer)
            .cell((unsigned long long)layer.flips)
            .cell(layer.fracWrong * 100.0, 3)
            .cell(layer.meanAbsError, 4)
            .cell((long long)layer.maxAbsError);
    }
    prop.print();

    // --- serving under the fault schedule ---------------------------
    reliability::FaultScheduleConfig fault_cfg = options.faults;
    if (!options.faultRateGiven) {
        // Demonstrative defaults when no rate was given.
        fault_cfg.pulseDropRatePerSec = 20.0;
        fault_cfg.fluxTrapRatePerSec = 0.05;
        fault_cfg.clockSkewRatePerSec = 5.0;
        fault_cfg.linkGlitchRatePerSec = 10.0;
    }
    fault_cfg.chips = serve.chips;
    fault_cfg.fluxTrapDerate = std::max(1.0, trap_derate);
    fault_cfg.horizonSec = std::max(
        1.0, 2.0 * (double)serve.requests /
                 std::max(serve.arrival.ratePerSec, 1.0));
    serve.faults = reliability::FaultSchedule::generate(fault_cfg);
    std::printf("\nfault schedule: %zu events over %.1f s x %d chips"
                " (seed %llu)\n",
                serve.faults.size(), fault_cfg.horizonSec, serve.chips,
                (unsigned long long)fault_cfg.seed);

    serving::BatchServiceModel service(estimate, net);
    serving::ServingSimulator sim(service, serve);
    const auto report = sim.run();
    report.print();
    std::printf("\navailability %.2f%%, goodput %.0f of %.0f req/s"
                " under policy %s\n",
                report.availability * 100.0, report.goodputRps,
                report.throughputRps, report.recovery.c_str());

    obs::AuditReport audit = obs::auditSim(*clean);
    audit.merge(obs::auditServing(report));
    maybeAudit(audit, "faults " + net.name);
    if (!options.ledgerFile.empty()) {
        obs::RunLedger ledger;
        obs::addServingReport(ledger, report);
        obs::addFaultSchedule(ledger, serve.faults);
        obs::addSimCacheStats(ledger,
                              npusim::SimCache::global().stats());
        emitLedger(options, ledger);
    }
    return 0;
}

int
cmdPartition(const Options &options, const dnn::Network &net)
{
    const sfq::DeviceConfig device = deviceFor(options);
    sfq::CellLibrary library(device);
    estimator::NpuEstimator est(library);
    const auto estimate = est.estimate(options.config);

    const int batch =
        options.forcedBatch > 0
            ? options.forcedBatch
            : npusim::maxBatch(options.config, estimate, net);
    const int stages = options.stages > 0 ? options.stages : 4;
    const int batches =
        options.streamBatches > 0 ? options.streamBatches : 64;

    partition::PipelineSimulator pipeline(
        estimate, options.link, &npusim::SimCache::global());
    const auto run = pipeline.run(net, stages, batch, batches);
    const auto &plan = run.plan;

    std::printf("%s on %s across %d chip(s), batch %d,"
                " %d-batch stream\n",
                net.name.c_str(), options.config.name.c_str(),
                plan.stageCount(), batch, batches);
    std::printf("link: %.0f GB/s, %llu-cycle latency\n",
                plan.link.bandwidthGBps,
                (unsigned long long)plan.link.latencyCycles);

    TextTable table;
    table.row()
        .cell("stage")
        .cell("layers")
        .cell("range")
        .cell("cycles")
        .cell("link KiB")
        .cell("link cyc")
        .cell("util");
    for (int s = 0; s < plan.stageCount(); ++s) {
        const auto &stage = plan.stages[s];
        std::string range = std::to_string(stage.firstLayer);
        range += "..";
        range += std::to_string(stage.lastLayer);
        table.row()
            .cell((long long)s)
            .cell((long long)stage.layerCount())
            .cell(range)
            .cell((unsigned long long)stage.stageCycles)
            .cell((double)stage.linkBytes / 1024.0, 1)
            .cell((unsigned long long)stage.linkCycles)
            .cell(plan.stageUtilization(s), 3);
    }
    table.print();

    // The K=1 reference gives the honest speedup; it shares the
    // stream's sim cache, so this costs one memoized lookup.
    const auto solo = pipeline.run(net, 1, batch, batches);
    std::printf("\nbottleneck: stage %d (%llu cycles/batch);"
                " fill latency %.2f us\n",
                plan.bottleneckStage,
                (unsigned long long)plan.bottleneckCycles,
                plan.fillLatencySec() * 1e6);
    std::printf("steady state: %.0f inf/s (%.2fx over 1 chip),"
                " %.1f TMAC/s\n",
                run.steadyInferencesPerSec(),
                run.steadyInferencesPerSec() /
                    solo.steadyInferencesPerSec(),
                run.effectiveMacPerSec() / 1e12);

    obs::AuditReport audit = obs::auditPipeline(run);
    audit.merge(obs::auditPipeline(solo));
    maybeAudit(audit, "partition " + net.name);

    if (options.sweep) {
        std::printf("\n");
        TextTable sweep("pipeline K-sweep");
        sweep.row()
            .cell("K")
            .cell("inf/s")
            .cell("speedup")
            .cell("fill us")
            .cell("mean util");
        for (int k : {1, 2, 4, 8}) {
            if (k > (int)net.layers.size())
                break;
            const auto swept = pipeline.run(net, k, batch, batches);
            double util_sum = 0.0;
            for (int s = 0; s < swept.plan.stageCount(); ++s)
                util_sum += swept.plan.stageUtilization(s);
            sweep.row()
                .cell((long long)k)
                .cell(swept.steadyInferencesPerSec(), 0)
                .cell(swept.steadyInferencesPerSec() /
                          solo.steadyInferencesPerSec(),
                      2)
                .cell(swept.plan.fillLatencySec() * 1e6, 2)
                .cell(util_sum / (double)swept.plan.stageCount(), 3);
        }
        sweep.print();
    }

    if (!options.ledgerFile.empty()) {
        obs::RunLedger ledger;
        obs::addPipelineResult(ledger, run);
        obs::addSimCacheStats(ledger,
                              npusim::SimCache::global().stats());
        emitLedger(options, ledger);
    }
    return 0;
}

int
cmdShard(const Options &options, const dnn::Network &net)
{
    const sfq::DeviceConfig device = deviceFor(options);
    sfq::CellLibrary library(device);
    estimator::NpuEstimator est(library);
    const auto estimate = est.estimate(options.config);

    const int batch =
        options.forcedBatch > 0
            ? options.forcedBatch
            : npusim::maxBatch(options.config, estimate, net);

    sharding::HybridPlanner planner(estimate, options.link,
                                    &npusim::SimCache::global());
    // Like bench, the search defaults to the byte-stable serial walk;
    // any --jobs value produces identical output (and ledgers), so
    // the flag is purely a wall-clock knob here.
    const int jobs = options.jobs > 0 ? options.jobs : 1;

    // Any explicit degree flag pins that factorization; otherwise
    // the planner searches the --chips budget. The budget also sets
    // the --sweep points below, so it is resolved either way.
    const int budget = options.chipBudget > 0 ? options.chipBudget : 8;
    const bool fixed_point = options.dataParallel > 0 ||
                             options.tensorShards > 0 ||
                             options.stages > 0;
    sharding::ShardPlan plan;
    if (fixed_point) {
        plan = planner.evaluate(net,
                                std::max(options.dataParallel, 1),
                                std::max(options.tensorShards, 1),
                                std::max(options.stages, 1), batch);
    } else {
        const sharding::PlanSearch search =
            planner.plan(net, budget, batch, options.objective, jobs);
        plan = search.best();
        std::printf("planned %zu factorizations of <= %d chip(s)"
                    " for %s\n",
                    search.evaluated.size(), budget,
                    sharding::planObjectiveName(options.objective));
    }

    std::printf("%s on %s: dp %d x tp %d x pp %d = %d chip(s),"
                " batch %d (share %d)\n",
                net.name.c_str(), options.config.name.c_str(),
                plan.dataParallel, plan.tensorShards,
                plan.pipelineStages, plan.chips(), plan.batch,
                plan.replicaShare);
    std::printf("link: %.0f GB/s, %llu-cycle latency\n",
                plan.link.bandwidthGBps,
                (unsigned long long)plan.link.latencyCycles);

    TextTable table;
    table.row()
        .cell("stage")
        .cell("range")
        .cell("stage cyc")
        .cell("coll cyc")
        .cell("occupancy")
        .cell("link KiB");
    for (int s = 0; s < plan.pipelineStages; ++s) {
        const auto &stage = plan.pipeline.stages[s];
        std::string range = std::to_string(stage.firstLayer);
        range += "..";
        range += std::to_string(stage.lastLayer);
        table.row()
            .cell((long long)s)
            .cell(range)
            .cell((unsigned long long)stage.stageCycles)
            .cell((unsigned long long)
                      plan.stageCollectiveCycles[(std::size_t)s])
            .cell((unsigned long long)
                      plan.stageOccupancyCycles[(std::size_t)s])
            .cell((double)stage.linkBytes / 1024.0, 1);
    }
    table.print();

    std::printf("\ninterval %llu cyc, latency %llu cyc, DP gather"
                " %llu cyc (%.1f KiB)\n",
                (unsigned long long)plan.intervalCycles,
                (unsigned long long)plan.latencyCycles,
                (unsigned long long)plan.gatherCycles,
                (double)plan.gatherBytes / 1024.0);
    std::printf("steady state: %.0f inf/s (%.2fx over 1 chip),"
                " %.1f TMAC/s\n",
                plan.throughput(), plan.speedup(),
                plan.effectiveMacPerSec() / 1e12);

    obs::AuditReport audit = obs::auditSharding(plan);

    if (options.sweep) {
        std::printf("\n");
        TextTable sweep("shard budget sweep");
        sweep.row()
            .cell("chips")
            .cell("dp")
            .cell("tp")
            .cell("pp")
            .cell("inf/s")
            .cell("speedup")
            .cell("latency us");
        // Powers of two up to the effective budget, plus the budget
        // itself, so the table always covers the headline search.
        std::vector<int> sweep_budgets;
        for (int b = 1; b < budget; b *= 2)
            sweep_budgets.push_back(b);
        sweep_budgets.push_back(budget);
        for (int sweep_budget : sweep_budgets) {
            const sharding::PlanSearch search =
                planner.plan(net, sweep_budget, batch,
                             options.objective, jobs);
            const sharding::ShardPlan &best = search.best();
            audit.merge(obs::auditSharding(best));
            sweep.row()
                .cell((long long)sweep_budget)
                .cell((long long)best.dataParallel)
                .cell((long long)best.tensorShards)
                .cell((long long)best.pipelineStages)
                .cell(best.throughput(), 0)
                .cell(best.speedup(), 2)
                .cell(best.latencySec() * 1e6, 2);
        }
        sweep.print();
    }

    maybeAudit(audit, "shard " + net.name);
    if (!options.ledgerFile.empty()) {
        obs::RunLedger ledger;
        obs::addShardPlan(ledger, plan);
        obs::addSimCacheStats(ledger,
                              npusim::SimCache::global().stats());
        obs::addLayerTimingCacheStats(ledger,
                                      planner.timingCacheStats());
        emitLedger(options, ledger);
    }
    return 0;
}

int
cmdValidate(const Options &options)
{
    const sfq::DeviceConfig device = deviceFor(options);
    sfq::CellLibrary library(device);
    TextTable table("model validation (Fig. 13)");
    table.row().cell("unit").cell("metric").cell("model").cell(
        "reference").cell("error %");
    for (const auto &e : estimator::validationReport(library)) {
        table.row()
            .cell(e.unit)
            .cell(e.metric)
            .cell(e.modelValue, 3)
            .cell(e.referenceValue, 3)
            .cell(e.errorPercent(), 1);
    }
    table.print();
    return 0;
}

int
cmdExplore(const Options &options)
{
    const sfq::DeviceConfig device = deviceFor(options);
    sfq::CellLibrary library(device);
    npusim::DesignSpaceExplorer explorer(
        library, dnn::evaluationWorkloads());
    ThreadPool pool(options.jobs);
    const auto ranked = explorer.explore(npusim::ExplorationSpace{},
                                         npusim::Objective::Throughput,
                                         pool);

    TextTable table("design-space leaderboard (throughput)");
    table.row()
        .cell("rank")
        .cell("config")
        .cell("avg TMAC/s")
        .cell("chip W")
        .cell("area mm2");
    int rank = 1;
    for (const auto &cand : ranked) {
        if (!cand.operable)
            continue;
        table.row()
            .cell((long long)rank++)
            .cell(cand.config.name)
            .cell(cand.avgMacPerSec / 1e12, 1)
            .cell(cand.chipPowerW, 1)
            .cell(cand.areaMm2, 0);
        if (rank > 8)
            break;
    }
    table.print();
    // Diagnostics go to stderr: stdout must be byte-identical at
    // every --jobs value.
    const auto stats = npusim::SimCache::global().stats();
    std::fprintf(stderr,
                 "%d jobs; sim cache: %llu misses (simulated), %llu"
                 " hits\n",
                 options.jobs > 0 ? options.jobs
                                  : ThreadPool::hardwareConcurrency(),
                 (unsigned long long)stats.misses,
                 (unsigned long long)stats.hits);

    if (!options.ledgerFile.empty()) {
        obs::RunLedger ledger;
        std::uint64_t operable = 0;
        for (const auto &cand : ranked)
            operable += cand.operable ? 1 : 0;
        ledger.setInt("explore", "candidates", ranked.size());
        ledger.setInt("explore", "operable", operable);
        if (!ranked.empty() && ranked.front().operable) {
            ledger.setText("explore", "best", ranked.front().config.name);
            ledger.setReal("explore", "bestMacPerSec",
                           ranked.front().avgMacPerSec);
        }
        obs::addSimCacheStats(ledger, stats);
        obs::addPoolStats(ledger, pool.stats());
        emitLedger(options, ledger);
    }
    return 0;
}

int
cmdBench(const Options &options, const std::string &suite)
{
    bench::BenchOptions opts;
    opts.suite = suite.empty() ? "smoke" : lowered(suite);
    opts.repetitions = options.benchReps;
    opts.warmups = options.benchWarmups;
    // Unlike explore, the reference point is serial: the committed
    // baseline and the CI determinism check both run at --jobs 1.
    opts.jobs = options.jobs > 0 ? options.jobs : 1;
    opts.includeTiming = !options.benchNoTiming;
    opts.profile = options.profile;
    opts.injectSlowdownPct = options.benchInjectSlowdown;
    opts.only = options.benchOnly;

    const bench::BenchReport report = bench::runSuite(opts);

    TextTable table("bench " + opts.suite);
    table.row()
        .cell("case")
        .cell("work")
        .cell("median ms")
        .cell("throughput")
        .cell("unit");
    for (const auto &c : report.cases) {
        table.row()
            .cell(c.name)
            .cell((long long)c.work)
            .cell(c.medianWallSec * 1e3, 2)
            .cell(c.throughput, 1)
            .cell(c.unit);
    }
    table.print();

    const std::string out = options.benchOut.empty()
                                ? bench::defaultOutputPath(opts.suite)
                                : options.benchOut;
    if (!bench::writeBenchJson(report, opts.includeTiming, out))
        fatal("cannot write bench output '", out, "'");
    std::printf("wrote %s\n", out.c_str());

    if (options.benchBaseline.empty())
        return 0;
    std::ifstream file(options.benchBaseline);
    if (!file)
        fatal("cannot open baseline '", options.benchBaseline, "'");
    std::ostringstream text;
    text << file.rdbuf();
    const bench::CompareOutcome outcome = bench::compareToBaseline(
        report, text.str(), options.benchThreshold);
    if (!outcome.error.empty())
        fatal("baseline comparison failed: ", outcome.error);
    for (const auto &delta : outcome.deltas) {
        if (!delta.comparable) {
            std::printf("  %-22s skipped: %s\n", delta.name.c_str(),
                        delta.note.c_str());
        } else if (delta.baselineThroughput > 0.0) {
            std::printf("  %-22s %+.1f%% vs baseline%s\n",
                        delta.name.c_str(), -delta.slowdownPct,
                        delta.regressed ? "  REGRESSED" : "");
        } else {
            std::printf("  %-22s %s\n", delta.name.c_str(),
                        delta.note.c_str());
        }
    }
    if (!outcome.ok) {
        std::fprintf(stderr,
                     "bench: regression beyond %.1f%% threshold\n",
                     options.benchThreshold);
        return 1;
    }
    std::printf("baseline check passed (threshold %.1f%%)\n",
                options.benchThreshold);
    return 0;
}

int
cmdCheck(const Options &options)
{
    const sfq::DeviceConfig device = deviceFor(options);
    const sfq::CellLibrary library(device);
    check::RunnerOptions runner;
    runner.seed = options.serve.seed;
    runner.cases = options.checkCases;
    runner.replayPath = options.checkReplay;
    runner.shrinkFailures = !options.checkNoShrink;
    runner.reproDir = options.checkReproDir;
    runner.cook = options.checkCook;
    runner.oracle = options.checkOracle;
    runner.emitCorpusDir = options.checkEmitCorpus;
    // Serial by default like bench; any --jobs value produces the
    // same tallies, warns, and repro bytes, so the flag only buys
    // wall clock (the CI check job runs with --jobs).
    runner.jobs = options.jobs > 0 ? options.jobs : 1;
    return check::runCheck(runner, library);
}

int
usage(std::FILE *to = stderr)
{
    std::fprintf(to,
                 "usage: supernpu <command> [...]\n"
                 "  workloads                       list CNNs\n"
                 "  estimate <config> [opts]        freq/power/area\n"
                 "  simulate <workload> <config>    performance+power\n"
                 "  batch <workload> <config>       Table II batch\n"
                 "  serve <workload> <config>       serving simulation\n"
                 "  faults <workload> <config>      fault-injection study\n"
                 "  report <workload> <config>      audited JSON run ledger\n"
                 "  partition <workload> <config>   multi-chip pipeline\n"
                 "  shard <workload> <config>       DPxTPxPP planner\n"
                 "  check                           differential fuzz harness\n"
                 "  validate                        Fig. 13 table\n"
                 "  explore                         design-space sweep\n"
                 "  bench [smoke|full]              performance harness\n"
                 "configs: baseline bufferopt resourceopt supernpu\n"
                 "options: --tech --feature --width --height --regs\n"
                 "         --division --ifmap-mb --output-mb\n"
                 "         --bandwidth-gbps --batch --netfile <path>\n"
                 "         --trace <csv path> --jobs <n>\n"
                 "         --ledger <json|csv path> --json --help\n"
                 "serve:   --rps --chips --policy dynamic|fixed\n"
                 "         --dispatch rr|jsq\n"
                 "         --arrival poisson|bursty|closed\n"
                 "         --timeout-us --requests --clients --seed\n"
                 "         --stages <k> (pipeline groups of k chips)\n"
                 "         --dp <r> (replica groups of r chips)\n"
                 "faults:  the serve options, --drop-rate --trap-rate\n"
                 "         --skew-rate --glitch-rate --fault-burst\n"
                 "         --fault-seed --recovery none|retry|degraded\n"
                 "         --detect-us --max-retries --backoff-us\n"
                 "         --checkpoint --ber\n"
                 "partition: --stages <k> --sweep --stream <batches>\n"
                 "         --link-gbps <n> --link-latency <cycles>\n"
                 "shard:   --dp <r> --tp <t> --stages <k> --chips <n>\n"
                 "         --objective throughput|latency --sweep\n"
                 "         --jobs <n> (search parallelism; output is\n"
                 "         byte-identical at any value, default 1)\n"
                 "check:   --cases <n> --seed <s> --replay <file>\n"
                 "         --no-shrink --repro-dir <dir>\n"
                 "         --oracle <name> --cook none|tamper\n"
                 "         --emit-corpus <dir> --jobs (default 1;\n"
                 "         identical output at any value)\n"
                 "bench:   --reps --warmups --case <name> --out <path>\n"
                 "         --no-timing --baseline <path> --threshold\n"
                 "         --inject-slowdown <pct> --jobs (default 1)\n"
                 "any:     --profile (perf phases/counters; bench\n"
                 "         embeds them, --ledger gains perf sections)\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    // --help anywhere on the line wins: usage on stdout, exit 0.
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--help") ||
            !std::strcmp(argv[i], "-h")) {
            usage(stdout);
            return 0;
        }
    }
    const std::string command = argv[1];

    Options options;
    const std::vector<std::string> positional =
        parseOptions(argc, argv, 2, options);
    options.config.check();
    if (options.profile)
        perf::setEnabled(true);

    // Stray positionals are user errors, not things to ignore: each
    // subcommand takes at most one (the workload name).
    const auto reject_extra = [&](std::size_t allowed) {
        if (positional.size() <= allowed)
            return;
        std::fprintf(stderr, "usage: supernpu %s [options]; run"
                     " 'supernpu --help'\n", command.c_str());
        fatal("unexpected argument '", positional[allowed], "'");
    };

    if (command == "workloads" || command == "estimate" ||
        command == "validate" || command == "explore") {
        reject_extra(0);
        if (command == "workloads")
            return cmdWorkloads();
        if (command == "estimate")
            return cmdEstimate(options);
        if (command == "validate")
            return cmdValidate(options);
        return cmdExplore(options);
    }
    if (command == "check") {
        reject_extra(0);
        return cmdCheck(options);
    }
    if (command == "bench") {
        reject_extra(1);
        return cmdBench(options,
                        positional.empty() ? "" : positional.front());
    }
    if (command == "simulate" || command == "batch" ||
        command == "serve" || command == "faults" ||
        command == "report" || command == "partition" ||
        command == "shard") {
        dnn::Network net;
        if (!options.netFile.empty()) {
            reject_extra(0);
            std::ifstream file(options.netFile);
            if (!file)
                fatal("cannot open '", options.netFile, "'");
            std::ostringstream text;
            text << file.rdbuf();
            net = dnn::parseNetwork(text.str());
        } else {
            if (positional.empty()) {
                fatal("'", command,
                      "' needs a workload name or --netfile");
            }
            reject_extra(1);
            net = findWorkload(positional.front());
        }
        if (command == "simulate")
            return cmdSimulate(options, net);
        if (command == "serve")
            return cmdServe(options, net);
        if (command == "faults")
            return cmdFaults(options, net);
        if (command == "report")
            return cmdReport(options, net);
        if (command == "partition")
            return cmdPartition(options, net);
        if (command == "shard")
            return cmdShard(options, net);
        return cmdBatch(options, net);
    }
    return usage();
}
